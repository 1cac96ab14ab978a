"""Random streams: the seed on which each draw of each run mode opens its stream."""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter

import pytest

from ces import pipeline, rng
from ces.config import load_config
from ces.rng import derive_seed
from conftest import CONFIGS

#: Per run mode: its config, its keyword arguments and the derive_seed keys of
#: the streams it opens, one per bell setting, tomography state or bootstrap.
STREAM_MAP = {
    "bell": ("calibrated.json", {}, range(4)),
    "tomo": ("calibrated.json", {"bootstrap": 100}, (1000, 2000)),
    "sweep": ("sweep.json", {}, [3000 + i for i in range(len(pipeline.DEFAULT_SWEEP_GRID_US))]),
}


@pytest.mark.parametrize("seed", [4242, 777])
@pytest.mark.parametrize("mode", STREAM_MAP)
def test_each_draw_opens_one_stream_on_its_seed(mode, seed, tmp_path, monkeypatch):
    name, kwargs, keys = STREAM_MAP[mode]
    real, opened = rng.make_stream, []

    def spy(stream_seed):
        opened.append(stream_seed)
        return real(stream_seed)

    # Every ces module that imported make_stream opens its streams through the spy.
    modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "ces"]
    for module in modules:
        if getattr(module, "make_stream", None) is real:
            monkeypatch.setattr(module, "make_stream", spy)
    cfg = dataclasses.replace(load_config(CONFIGS / name), seed=seed)
    getattr(pipeline, f"run_{mode}")(cfg, tmp_path / "out", **kwargs)
    assert Counter(opened) == Counter(derive_seed(seed, key) for key in keys)
    assert len(set(opened)) == len(opened)
