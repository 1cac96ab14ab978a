"""Shared state generators for the test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ces.qcore import SINGLET_KET, as_matrix, born_probabilities, require_valid_density, unstack
from ces.tomography import PROJECTORS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def import_script(name: str, monkeypatch):
    """``scripts/<name>.py`` as a module, imported without writing bytecode
    next to it; the script puts src/ on sys.path, which the monkeypatch undoes."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_density(rng: np.random.Generator, dim: int = 4, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_pure(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def singlet_dm() -> np.ndarray:
    return np.outer(SINGLET_KET, SINGLET_KET.conj())


def dephased_singlet(v: float) -> np.ndarray:
    """Photon-pair singlet with its coherence scaled by v (sigma basis)."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = -0.5 * v
    return rho


def werner(p: float) -> np.ndarray:
    return p * singlet_dm() + (1.0 - p) * np.eye(4) / 4.0


def trace_distance(a, b) -> float:
    """Trace distance (1/2) ||a - b||_1 between two Hermitian matrices (or stacks)."""
    diff = as_matrix(a) - as_matrix(b)
    eigs = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff.conj(), -1, -2)))
    return unstack(0.5 * np.sum(np.abs(eigs), axis=-1))


def exact_table(rho, total_per_basis: float = 1.0) -> np.ndarray:
    """The float (9, 4) count table of exact Born probabilities times a scale:
    the noiseless oracle input for estimator round-trip checks."""
    probs = born_probabilities(PROJECTORS, require_valid_density(rho))
    return np.maximum(0.0, total_per_basis * probs).reshape(9, 4)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20210905)
