"""CSV and JSON readers/writers for count, tomography, and series data.

Formats (all line-diffable, documented in the README):

* counts CSV: ``alpha_deg,beta_deg,n_uu,n_ud,n_du,n_dd,n_discarded``
* tomography CSV: the same columns prefixed by ``basis_a,basis_b``; one
  row per basis pair, in any order, its angles those of its labels
* series CSV: ``dt_us,value,kind,sigma`` with kind in {N, EN} and sigma
  optionally empty
* density-matrix JSON: ``{"dim": 4, "re": [...], "im": [...]}`` row-major

Each writer builds its file in memory, replaces any file at ``path`` with
it (``_replace``) and returns the bytes written.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from .detection import (
    BASIS_ANGLES,
    BASIS_LABELS,
    BASIS_PAIRS,
    MAX_COUNT,
    CountRecord,
    MeasurementSetting,
    TomographyDataset,
)
from .errors import DataError
from .qcore import DensityMatrix

COUNT_COLUMNS = ["alpha_deg", "beta_deg", "n_uu", "n_ud", "n_du", "n_dd", "n_discarded"]
TOMOGRAPHY_COLUMNS = ["basis_a", "basis_b"] + COUNT_COLUMNS


def _replace(path, data: bytes) -> bytes:
    """Unlink any file at ``path``, then create it holding ``data``.

    A new file is cheaper than truncating a written one in place, and a
    symlink at ``path`` is replaced rather than followed.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "xb") as fh:
        fh.write(data)
    return data


def _write_csv(path, header, rows) -> bytes:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return _replace(path, text.getvalue().encode())


def _count_row(rec: CountRecord) -> list:
    cells = [rec.n_uu, rec.n_ud, rec.n_du, rec.n_dd, rec.n_discarded]
    return [f"{rec.setting.alpha_deg:.6f}", f"{rec.setting.beta_deg:.6f}", *cells]


def _parse_count_row(row: dict) -> CountRecord:
    cells = [int(row[column]) for column in COUNT_COLUMNS[2:]]
    if max(cells) > MAX_COUNT:
        raise ValueError(f"counts above 2**53 are not supported: {max(cells)}")
    setting = MeasurementSetting(float(row["alpha_deg"]), float(row["beta_deg"]))
    return CountRecord(setting, *cells)


def _read_rows(path, columns, parse, kind: str) -> list:
    """Parse every row of a CSV holding ``columns``; DataError on any bad row,
    including a row too short to fill every one of ``columns`` and a row with
    more fields than the header (``csv.DictReader`` files those under None)."""
    parsed = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c for c in columns if c not in reader.fieldnames]:
            raise DataError(f"{path}: expected columns {columns}")
        for row in reader:
            try:
                missing = [c for c in columns if row[c] is None]
                if missing:
                    raise ValueError(f"no value for {missing}")
                if None in row:
                    raise ValueError(f"fields beyond the header: {row[None]}")
                parsed.append(parse(row))
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}: bad row {row!r}: {exc}") from exc
    if not parsed:
        raise DataError(f"{path}: no {kind} rows")
    return parsed


def write_counts_csv(path, records) -> bytes:
    return _write_csv(path, COUNT_COLUMNS, [_count_row(rec) for rec in records])


def read_counts_csv(path) -> list[CountRecord]:
    return _read_rows(path, COUNT_COLUMNS, _parse_count_row, "count")


def write_tomography_csv(path, dataset: TomographyDataset) -> bytes:
    if dataset.counts.ndim != 2:
        raise DataError("a tomography CSV holds one dataset, not a stack of them")
    return _write_csv(
        path,
        TOMOGRAPHY_COLUMNS,
        [[basis_a, basis_b, *_count_row(rec)] for basis_a, basis_b, rec in dataset.records],
    )


def _parse_tomography_row(row: dict) -> tuple[tuple[str, str], CountRecord]:
    """The row's basis pair and counts; ValueError when an angle column is not
    its label's angle (modulo 180, to the 6 decimals the writer keeps)."""
    pair, rec = (row["basis_a"], row["basis_b"]), _parse_count_row(row)
    for label, angle in zip(pair, (rec.setting.alpha_deg, rec.setting.beta_deg)):
        if label in BASIS_ANGLES and round(angle, 6) % 180.0 != BASIS_ANGLES[label]:
            raise ValueError(f"basis {label} is measured at {BASIS_ANGLES[label]:g} degrees")
    return pair, rec


def read_tomography_csv(path) -> TomographyDataset:
    """Place each row at its basis pair; every pair must appear exactly once."""
    cells = {}
    for pair, rec in _read_rows(path, TOMOGRAPHY_COLUMNS, _parse_tomography_row, "tomography"):
        if pair not in BASIS_PAIRS:
            raise DataError(f"unknown basis pair {pair}, expected labels from {BASIS_LABELS}")
        if pair in cells:
            raise DataError(f"basis pair {pair} appears more than once")
        cells[pair] = [*rec.counts(), rec.n_discarded]
    missing = [pair for pair in BASIS_PAIRS if pair not in cells]
    if missing:
        raise DataError(f"dataset does not cover all nine basis pairs; missing {missing}")
    table = np.array([cells[pair] for pair in BASIS_PAIRS])
    return TomographyDataset(counts=table[:, :4], discarded=table[:, 4])


def write_series_csv(path, rows) -> bytes:
    """rows: iterable of (dt_us, value, kind, sigma-or-None)."""
    return _write_csv(
        path,
        ["dt_us", "value", "kind", "sigma"],
        [
            [f"{dt_us:.6f}", repr(float(value)), kind, "" if sigma is None else repr(float(sigma))]
            for dt_us, value, kind, sigma in rows
        ],
    )


def _parse_series_row(row: dict):
    raw_sigma = (row.get("sigma") or "").strip()
    return (
        float(row["dt_us"]),
        float(row["value"]),
        row["kind"].strip(),
        float(raw_sigma) if raw_sigma else None,
    )


def read_series_csv(path):
    """Returns (dt_us, values, kinds, sigma-or-None) arrays."""
    rows = _read_rows(path, ["dt_us", "value", "kind"], _parse_series_row, "series")
    dts, values, kinds, sigmas = zip(*rows)
    sigma = None
    if all(s is not None for s in sigmas):
        sigma = np.array(sigmas, dtype=float)
    elif any(s is not None for s in sigmas):
        raise DataError(f"{path}: sigma must be given for all rows or none")
    return np.array(dts), np.array(values), np.array(kinds, dtype=object), sigma


def json_text(payload: dict) -> str:
    """``payload`` as indented JSON with sorted keys and a final newline.
    ValueError on a NaN or infinite float, which standard JSON does not allow."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, payload: dict) -> bytes:
    return _replace(path, json_text(payload).encode())


def read_density_matrix_json(path) -> DensityMatrix:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: cannot read density-matrix JSON: {exc}") from exc
    if isinstance(payload, dict) and "rho" in payload and isinstance(payload["rho"], dict):
        payload = payload["rho"]  # accept pipeline reconstruction files too
    return DensityMatrix.from_json_dict(payload)
