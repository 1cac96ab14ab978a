"""The benchmark's trace hooks still find every function they wrap."""

from __future__ import annotations

import importlib.util
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ces.pipeline  # noqa: F401  (loads every ces layer the tracer patches)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_its_layer(tracing):
    for layer, names in tracing.LAYERS.items():
        home = import_module(f"ces.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"ces.{layer}.{name}"


def test_tracer_installs_and_restores(tracing):
    home = import_module("ces.measures")
    original = home.report
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert home.report is not original
    finally:
        tracer.uninstall()
    assert home.report is original


def test_detection_is_traced_in_every_run_mode(tracing, tmp_path):
    # Every simulated sequence passes through a traced detection function,
    # so the benchmark's detection figures cover each run mode whole.
    from ces import pipeline
    from ces.config import config_from_dict

    n = 2_000
    cfg = config_from_dict({"detector": {"eta_det": 1.0}, "n_sequences": n})
    modes = [
        (len(cfg.settings), lambda out: pipeline.run_bell(cfg, out)),
        (9, lambda out: pipeline.run_tomo(cfg, out)),
        (9 * 3, lambda out: pipeline.run_sweep(cfg, out, dt_grid_us=(0.8, 2.0, 4.0))),
    ]
    for i, (settings, run) in enumerate(modes):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run(tmp_path / str(i))
        finally:
            tracer.uninstall()
        trials = sum(s.counts["trials"] for s in tracer.spans if s.layer == "detection")
        assert trials == settings * n
