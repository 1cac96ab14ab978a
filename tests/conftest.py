"""Shared state generators for the test suite."""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ces.detection import (
    LATE_BOUNDARY_QUANTILE,
    DetectorParams,
    setting_probabilities,
    simulate_counts,
    simulate_tomography_dataset,
)
from ces.qcore import (
    KET_SM,
    KET_SP,
    SINGLET_KET,
    born_probabilities,
    require_two_qubit_density,
    two_qubit_matrix,
    unstack,
)
from ces.tomography import PROJECTORS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The polarization kets of the ces.qcore docstring, in the sigma+/sigma-
# basis: the written convention that the exact Pauli matrices and the port
# blocks are checked against.
KET_H = (KET_SP + KET_SM) / np.sqrt(2.0)
KET_V = -1j * (KET_SP - KET_SM) / np.sqrt(2.0)
KET_D = (KET_H + KET_V) / np.sqrt(2.0)
KET_A = (KET_H - KET_V) / np.sqrt(2.0)
KET_R = (KET_H + 1j * KET_V) / np.sqrt(2.0)
KET_L = (KET_H - 1j * KET_V) / np.sqrt(2.0)
#: Up-port ket of each tomography basis; the down port is its complement.
BASIS_KETS = {"HV": KET_H, "DA": KET_D, "RL": KET_R}

#: Counts of a simulated ``ces tomo --trials 20000`` run, hundreds per cell,
#: with HV/HV n_ud set to 1e14.  The table check rejects it (its pair totals
#: differ by more than MAX_PAIR_RATIO), so tests lift that check to reach the fit.
HUGE_CELL_TABLE = np.array(
    [[40, 100_000_000_000_000, 176, 39], [98, 105, 117, 98], [105, 108, 105, 102],
     [94, 92, 123, 96], [38, 177, 171, 35], [95, 107, 88, 90],
     [114, 103, 88, 113], [116, 107, 108, 74], [21, 124, 183, 16]]
)


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


def zero_cell_table() -> np.ndarray:
    """Simulated (9, 4) counts of ``werner(0.9)`` with HV/HV n_uu set to 0, so
    that an MLE fit takes boundary steps from its start; the fit certifies."""
    counts = simulate_tomography_dataset(werner(0.9), 1_000, DetectorParams(), 5).counts.copy()
    counts[0, 0] = 0
    return counts


def trace_distance(a, b) -> float:
    """Trace distance (1/2) ||a - b||_1 between two Hermitian matrices (or stacks)."""
    diff = two_qubit_matrix(a) - two_qubit_matrix(b)
    eigs = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff.conj(), -1, -2)))
    return unstack(0.5 * np.sum(np.abs(eigs), axis=-1))


def exact_table(rho, total_per_basis: float = 1.0) -> np.ndarray:
    """The float (9, 4) count table of exact Born probabilities times a scale:
    the noiseless oracle input for estimator round-trip checks."""
    probs = born_probabilities(PROJECTORS, require_two_qubit_density(rho))
    return np.maximum(0.0, total_per_basis * probs).reshape(9, 4)


def draw_counts(rho, setting, n_sequences, det, seed):
    """The CountRecord of one state at one setting: its outcome probabilities,
    then ``simulate_counts``."""
    probs = setting_probabilities(rho, [setting], det)[0]
    return simulate_counts(probs, setting, n_sequences, seed)


def analyzer_projectors(theta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: port projectors of a linear analyzer rotated by theta_deg, the
    up port onto cos(theta)|H> + sin(theta)|V>, the down port its complement."""
    theta = math.radians(theta_deg)
    ket = math.cos(theta) * KET_H + math.sin(theta) * KET_V
    p_up = np.outer(ket, ket.conj())
    return p_up, np.eye(2) - p_up


def basis_projectors(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: port projectors of a tomography basis, the up port onto its
    ket in BASIS_KETS, the down port its complement."""
    ket = BASIS_KETS[label]
    p_up = np.outer(ket, ket.conj())
    return p_up, np.eye(2) - p_up


def pair_projectors(projs_1, projs_2) -> np.ndarray:
    """Oracle: the (4, 4, 4) block of P_i x Q_j in (uu, ud, du, dd) order, the
    CountRecord cell order, for photon 1 analyzed by projs_1."""
    return np.array([np.kron(p, q) for p in projs_1 for q in projs_2])


def kron_outcome_distribution(rho, projs_a, projs_b, det):
    """Oracle for the detection kernel at one setting: each Born table from
    the Kronecker products P_i x Q_j of the port projectors, then the event
    model's branches summed in turn."""
    late = det.late_emission_error * max(0.0, det.window_fraction - LATE_BOUNDARY_QUANTILE)
    clean = det.window_fraction - late
    dark = (1.0 - det.dark_rate) * np.eye(2) + 0.5 * det.dark_rate

    def photon_table(projs_1, projs_2):
        joint = np.clip(born_probabilities(pair_projectors(projs_1, projs_2), rho), 0.0, None)
        joint = (joint / joint.sum()).reshape(2, 2)
        table = clean * joint + late * np.outer(joint.sum(axis=1), [0.5, 0.5])
        return dark @ table @ dark

    cells = photon_table(projs_a, projs_b) + photon_table(projs_b, projs_a).T
    cells *= 0.25 * det.eta_det**2
    return np.append(cells.reshape(-1), 1.0 - cells.sum())


# Oracle for protocol.final_state: its four steps as channels, in the atom x
# photon ordering (atomic |0> = |1,-1>, |1> = |1,+1>).  The mapping pulse
# flips the atomic qubit (|1,-1> emits sigma-) and reorders the factors to
# photon 1 x photon 2.
_SWAP = np.eye(4)[[0, 2, 1, 3]]
_MAP = _SWAP @ np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


def atom_photon_state() -> np.ndarray:
    """(|1,-1>|s+> - |1,+1>|s->)/sqrt(2) after the first emission."""
    ket = (np.kron([1.0, 0.0], KET_SP) - np.kron([0.0, 1.0], KET_SM)) / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


def apply_storage_noise(rho_ap, noise, dt_us: float) -> np.ndarray:
    """Atomic coherences times v(dt), then a white-noise admixture p_white."""
    mat = np.array(rho_ap, dtype=complex)
    v = noise.coherence(dt_us)
    mat[0:2, 2:4] *= v
    mat[2:4, 0:2] *= v
    return (1.0 - noise.p_white) * mat + noise.p_white * np.eye(4) / 4.0


def pumping_channel(rho, eta_pump: float) -> np.ndarray:
    """A fully depolarized pair for failed optical pumping."""
    return eta_pump * np.asarray(rho) + (1.0 - eta_pump) * np.eye(4) / 4.0


def map_to_photon_pair(rho_ap) -> np.ndarray:
    """Relabel the atomic qubit as photon-2 polarization."""
    return _MAP @ np.asarray(rho_ap) @ _MAP.T


def channel_chain_state(noise, dt_us: float) -> np.ndarray:
    """The photon pair after the four steps, one channel at a time."""
    rho = apply_storage_noise(atom_photon_state(), noise, dt_us)
    return map_to_photon_pair(pumping_channel(rho, noise.eta_pump))


def keyed_stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """numpy's Philox stream of ``SeedSequence(seed, spawn_key=key)``: the
    per-key stream that fixed regression data of earlier keyings was drawn on."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20210905)
