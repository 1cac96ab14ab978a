"""The maximum-likelihood fit certifies every row of the boundary ensembles
of ``scripts/boundary_ensemble.py``, whose optima lie on the PSD boundary."""

from __future__ import annotations

import numpy as np

from ces import tomography
from conftest import import_script


def test_every_boundary_ensemble_row_certifies_within_20_steps(monkeypatch):
    # The largest step counts are 14 (werner), 18 (rank1) and 12 (rank2).
    ensembles = import_script("boundary_ensemble", monkeypatch).ensembles()
    assert set(ensembles) == {"werner", "rank1", "rank2"}
    for name, table in ensembles.items():
        _, steps, gap = tomography._fit(table)
        assert np.all(gap <= tomography.gap_tolerance(table.sum(axis=1))), name
        assert steps.max() <= 20, name
