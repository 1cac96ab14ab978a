"""Mutants of the data files a run writes, and of a config, exit cleanly
through the CLI.

A ``--trials 20000`` run of ``bell``, ``tomo`` and ``sweep`` writes the
counts, tomography and series CSVs and the reconstruction JSON.  Each
mutant changes one field of one of them to one value class, drops one row,
or keeps only the header, and goes through the data mode that reads it.
Each config mutant sets one field of ``configs/sweep.json`` to one JSON
value class and goes through ``rates`` and ``bell``.  Every case must exit
0, 2, 3 or 4 without an exception (so without a traceback), raise no
warning under ``simplefilter("error")``, and a run that fails (2 or 3)
must leave no run directory.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from ces import cli

VALUE_CLASSES = [
    "", "nan", "inf", "-1", "1e400", "1.5", "abc", "1e23", "-0", " 3", "1e-320", "0x10", "true",
    "100000000000000",
]

#: Data file of each kind, the run that writes it, and the mode that reads it.
SOURCES = {
    "counts": ("bell/counts.csv", ["bell", "--data"]),
    "tomography": ("tomo/tomography.csv", ["tomo", "--data"]),
    "series": ("sweep/sweep_series.csv", ["fit"]),
    "state": ("tomo/reconstruction.json", ["measures"]),
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("written")
    for mode in ("bell", "tomo", "sweep"):
        assert cli.main([mode, "--trials", "20000", "--out", str(root / mode)]) == 0
    return root


def _csv_mutants(text: str) -> dict[str, str]:
    """One mutant per (column, value class) on the first row, one per
    dropped row, and the header alone."""
    header, *rows = text.splitlines()
    mutants = {}
    for i, column in enumerate(header.split(",")):
        for value in VALUE_CLASSES:
            cells = rows[0].split(",")
            cells[i] = value
            mutants[f"{column}={value!r}"] = [header, ",".join(cells), *rows[1:]]
    for r in range(len(rows)):
        mutants[f"drop row {r}"] = [header, *rows[:r], *rows[r + 1 :]]
    mutants["header only"] = [header]
    return {name: "\n".join(lines) + "\n" for name, lines in mutants.items()}


def _json_value(text: str):
    """A value class as JSON holds it: its JSON or float reading, else the string."""
    for parse in (json.loads, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _state_mutants(text: str) -> dict[str, str]:
    """The density-matrix JSON counterpart: each of ``dim``, ``re``, ``im``,
    ``re[0]`` and ``im[1]`` set to each value class, each key of the state
    dropped, the state dropped, and an empty object."""
    payload = json.loads(text)
    mutants = {}
    for field, index in [("dim", None), ("re", None), ("im", None), ("re", 0), ("im", 1)]:
        for value in VALUE_CLASSES:
            rho = json.loads(json.dumps(payload["rho"]))
            if index is None:
                rho[field] = _json_value(value)
            else:
                rho[field][index] = _json_value(value)
            mutants[f"{field}[{index}]={value!r}"] = {**payload, "rho": rho}
    for key in payload["rho"]:
        mutants[f"drop {key}"] = {
            **payload, "rho": {k: v for k, v in payload["rho"].items() if k != key}
        }
    mutants["drop rho"] = {k: v for k, v in payload.items() if k != "rho"}
    mutants["empty object"] = {}
    return {name: json.dumps(value) for name, value in mutants.items()}


def _unclean_exit(argv, out: Path, capsys) -> str | None:
    """How ``ces <argv> --out <out>`` failed to exit cleanly, or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main([*argv, "--out", str(out)])
        except Exception as exc:  # a warning turned error counts here too
            return f"raised {exc!r}"
    err = capsys.readouterr().err
    if code not in (0, 2, 3, 4):
        return f"exit {code}"
    if code in (2, 3) and out.exists():
        return f"exit {code} left {out.name}"
    if "Traceback" in err or "Warning" in err:
        return f"stderr {err!r}"
    return None


@pytest.mark.parametrize("kind", list(SOURCES))
def test_every_mutant_exits_cleanly(written, tmp_path, capsys, kind):
    source, argv = SOURCES[kind]
    text = (written / source).read_text()
    mutants = _state_mutants(text) if kind == "state" else _csv_mutants(text)
    failures = []
    for i, (name, mutant) in enumerate(mutants.items()):
        data = tmp_path / f"m{i}{(written / source).suffix}"
        data.write_text(mutant)
        failure = _unclean_exit([*argv, str(data)], tmp_path / f"o{i}", capsys)
        if failure:
            failures.append(f"{name}: {failure}")
    assert len(mutants) > 50
    assert not failures, "\n".join(failures)


CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sweep.json"
CONFIG_VALUES = [-1, 0, 1.5, 1e308, float("nan"), "0.5", True, None, []]


def _config_mutants() -> dict[str, dict]:
    """One mutant of ``configs/sweep.json`` at 2000 sequences per (field,
    value class), the fields being its top-level numbers and section keys."""
    base = {**json.loads(CONFIG.read_text()), "n_sequences": 2000}
    fields = [
        (name, key) for name, value in base.items()
        for key in (value if isinstance(value, dict) else [None])
    ]
    assert len(fields) == 10
    mutants = {}
    for name, key in fields:
        for value in CONFIG_VALUES:
            mutant = json.loads(json.dumps(base))
            if key is None:
                mutant[name] = value
            else:
                mutant[name][key] = value
            mutants[f"{name if key is None else f'{name}.{key}'}={value!r}"] = mutant
    return mutants


@pytest.mark.parametrize("mode", ["rates", "bell"])
def test_every_config_mutant_exits_cleanly(tmp_path, capsys, mode):
    failures = []
    for i, (name, mutant) in enumerate(_config_mutants().items()):
        config = tmp_path / f"c{i}.json"
        config.write_text(json.dumps(mutant))
        failure = _unclean_exit([mode, "--config", str(config)], tmp_path / f"o{i}", capsys)
        if failure:
            failures.append(f"{name}: {failure}")
    assert not failures, "\n".join(failures)
