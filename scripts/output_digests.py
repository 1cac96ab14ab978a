"""Print the SHA-256 of every output of every CLI mode at a fixed seed.

Runs ``simulate``, ``bell``, ``tomo`` (MLE, ``--method linear`` and
``--bootstrap 200``), ``sweep`` and ``rates`` on the packaged defaults and
on each config in ``configs/``, all at seed 4242, in a temporary directory,
and prints one ``sha256  mode/config/file`` line per output file.
``manifest.json`` is left out, because it carries a timestamp.

A refactor that promises byte-identical outputs is checked by running this
script on the tree before and after the change and diffing the two
listings:

    python scripts/output_digests.py > before.txt   # on the old tree
    python scripts/output_digests.py > after.txt    # on the new tree
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ces.cli import main  # noqa: E402

SEED = "4242"
MODES = {
    "simulate": ["simulate"],
    "bell": ["bell"],
    "tomo": ["tomo"],
    "tomo-linear": ["tomo", "--method", "linear"],
    "tomo-bootstrap": ["tomo", "--bootstrap", "200"],
    "sweep": ["sweep"],
    "rates": ["rates"],
}


def _configs() -> dict[str, list[str]]:
    configs = {"defaults": []}
    for path in sorted((ROOT / "configs").glob("*.json")):
        configs[path.stem] = ["--config", str(path)]
    return configs


def print_digests() -> None:
    configs = _configs()
    with tempfile.TemporaryDirectory() as tmp:
        for mode, mode_args in MODES.items():
            for config, config_args in configs.items():
                out = Path(tmp) / mode / config
                with contextlib.redirect_stdout(io.StringIO()):
                    main([*mode_args, *config_args, "--seed", SEED, "--out", str(out)])
                for path in sorted(out.iterdir()):
                    if path.name != "manifest.json":
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        print(f"{digest}  {mode}/{config}/{path.name}")


if __name__ == "__main__":
    print_digests()
