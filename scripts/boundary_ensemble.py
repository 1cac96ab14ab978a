"""Print how the maximum-likelihood fit fares on optima on the PSD boundary.

Fits three fixed ensembles of count tables, each as one batched
``tomography._fit`` call, and prints for each the number of rows, the median
and the largest number of steps, the number of rows that miss the
certificate tolerance (``converged`` false) and the wall time of the fit:

* ``werner``: the Werner state with p_white 0.01 (F = 0.9925) at 500 000
  sequences per basis pair and eta_det 0.2, seeds 0 to 9;
* ``rank1`` and ``rank2``: 600 random rank-1 and 600 random rank-2 states,
  each measured at 200 to 200 000 counts per basis pair (log-uniform), one
  multinomial draw per pair.

The maximum-likelihood optima of all three lie on the boundary of the
positive semidefinite set.  The script takes no options and runs in about a
second:

    python scripts/boundary_ensemble.py

The test suite fits the same ensembles (``ensembles``) and checks that every
row certifies within 20 steps (``tests/test_boundary_ensemble.py``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ces import tomography  # noqa: E402
from ces.detection import DetectorParams, simulate_tomography_dataset  # noqa: E402
from ces.qcore import SINGLET_KET, born_probabilities  # noqa: E402

STATES_PER_RANK = 600


def werner_tables() -> np.ndarray:
    singlet = np.outer(SINGLET_KET, SINGLET_KET.conj())
    rho = 0.99 * singlet + 0.01 * np.eye(4) / 4.0
    detector = DetectorParams(eta_det=0.2)
    dataset = simulate_tomography_dataset(np.array([rho] * 10), 500_000, detector, range(10))
    return dataset.counts.reshape(10, 36).astype(float)


def random_state_tables(rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(STATES_PER_RANK):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        total = int(np.exp(rng.uniform(np.log(200), np.log(200_000))))
        cells = np.clip(born_probabilities(tomography.PROJECTORS, rho), 0.0, None).reshape(9, 4)
        rows.append(np.concatenate([rng.multinomial(total, p / p.sum()) for p in cells]))
    return np.array(rows, dtype=float)


def ensembles() -> dict[str, np.ndarray]:
    """The (rows, 36) count table of each ensemble, by name."""
    return {
        "werner": werner_tables(),
        "rank1": random_state_tables(1, seed=1),
        "rank2": random_state_tables(2, seed=2),
    }


def main() -> None:
    print("ensemble  rows  median_steps  max_steps  unconverged  fit_s")
    for name, table in ensembles().items():
        start = time.perf_counter()
        _, iterations, gap = tomography._fit(table)
        seconds = time.perf_counter() - start
        missed = int(np.sum(gap > tomography.gap_tolerance(table.sum(axis=1))))
        print(f"{name:8s} {len(table):5d} {np.median(iterations):13.1f} "
              f"{iterations.max():10d} {missed:12d} {seconds:6.2f}")


if __name__ == "__main__":
    main()
