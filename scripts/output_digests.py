"""Print the SHA-256 of every output of every CLI mode at a fixed seed.

Runs ``simulate``, ``bell``, ``tomo`` (MLE, ``--method linear`` and
``--bootstrap 200``), ``sweep`` and ``rates`` on the packaged defaults and
on each config in ``configs/``, all at one seed (4242 unless a seed is
given as the only argument), in a temporary directory.  ``print_digests``
also takes a root directory; a second call with the same root reruns every
mode into the run directories of the first.
Then it runs the data modes on files those runs wrote: ``bell --data`` on
the counts, ``tomo --data`` on the tomography CSV, ``measures --out`` on the
reconstruction and ``fit --out`` on the sweep series.  It prints one
``sha256  mode/config/file`` line per output file.  ``manifest.json`` is
left out, because it carries a timestamp.

A refactor that promises byte-identical outputs is checked by running this
script on the tree before and after the change and diffing the two
listings:

    python scripts/output_digests.py > before.txt   # on the old tree
    python scripts/output_digests.py > after.txt    # on the new tree
    diff before.txt after.txt

and again with a second seed, ``python scripts/output_digests.py 777``.
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
#: Data modes and the file, written by a run of MODES at the same config, that each reads.
DATA_MODES = {
    "bell-data": (["bell", "--data"], "bell/{config}/counts.csv"),
    "tomo-data": (["tomo", "--data"], "tomo/{config}/tomography.csv"),
    "measures": (["measures"], "tomo/{config}/reconstruction.json"),
    "fit": (["fit"], "sweep/{config}/sweep_series.csv"),
}


def _configs() -> dict[str, list[str]]:
    configs = {"defaults": []}
    for path in sorted((ROOT / "configs").glob("*.json")):
        configs[path.stem] = ["--config", str(path)]
    return configs


def _print_run(argv: list[str], out: Path, label: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        main([*argv, "--out", str(out)])
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {label}/{path.name}")


def print_digests(seed: str = SEED, root=None) -> None:
    """Run every mode under ``root`` (a new temporary directory if None)."""
    if root is None:
        with tempfile.TemporaryDirectory() as tmp:
            print_digests(seed, tmp)
        return
    configs = _configs()
    for mode, mode_args in MODES.items():
        for config, config_args in configs.items():
            argv = [*mode_args, *config_args, "--seed", seed]
            _print_run(argv, Path(root) / mode / config, f"{mode}/{config}")
    for mode, (mode_args, data) in DATA_MODES.items():
        for config in configs:
            argv = [*mode_args, str(Path(root, data.format(config=config)))]
            _print_run(argv, Path(root) / mode / config, f"{mode}/{config}")


if __name__ == "__main__":
    print_digests(*sys.argv[1:2])
