"""Closed forms that the benchmark checks the program's outputs against.

Everything here is built from the conventions in the repository README with
numpy alone; nothing calls into ``ces``.  ``test_oracles.py`` checks the
detection closed forms against a brute-force enumeration of the event model.

Conventions: photonic qubit |0> = |sigma+>, |1> = |sigma->; two-photon
ordering {++, +-, -+, --}; |H> = (|0> + |1>)/sqrt(2), |V> = -i(|0> - |1>)/sqrt(2).
"""

from __future__ import annotations

import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)

#: Emission-time quantile beyond which photon 2 counts as late (README,
#: "Detection window").
LATE_BOUNDARY = 0.4

#: The quad (alpha, alpha', beta, beta') in degrees at which an ideal
#: singlet reaches the Tsirelson bound.
CHSH_QUAD = (0.0, 45.0, 22.5, -22.5)

KET_H = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_V = -1j * np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def werner_state(p_white: float) -> np.ndarray:
    """(1 - p) |singlet><singlet| + p I/4."""
    return (1.0 - p_white) * np.outer(SINGLET, SINGLET.conj()) + p_white * np.eye(4) / 4.0


def dephased_singlet(coherence: float) -> np.ndarray:
    """Singlet populations with the |+-><-+| coherence scaled by ``coherence``."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = -0.5 * coherence
    return rho


def analyzer_projector(theta_deg: float) -> np.ndarray:
    """Up-port projector of a linear analyzer at theta_deg."""
    theta = math.radians(theta_deg)
    ket = math.cos(theta) * KET_H + math.sin(theta) * KET_V
    return np.outer(ket, ket.conj())


def late_share(window: float) -> float:
    """Share of in-window photons emitted beyond the late boundary."""
    return max(0.0, window - LATE_BOUNDARY) / window


def coincidence_fraction(window: float, eta: float) -> float:
    """Coincidences per sequence: different arms (1/2), in window, both detected."""
    return 0.5 * window * eta**2


def chsh_werner(p_white: float, dark: float, late_error: float, window: float) -> float:
    """CHSH S at CHSH_QUAD of a Werner state through the detection chain.

    A dark count randomises one port (factor 1 - d per photon) and a late,
    depolarised photon 2 carries no correlation (factor 1 - eps * late share).
    """
    return (
        TSIRELSON
        * (1.0 - p_white)
        * (1.0 - dark) ** 2
        * (1.0 - late_error * late_share(window))
    )


def werner_fidelity(p_white: float) -> float:
    return 1.0 - 0.75 * p_white


def singlet_fidelity(rho: np.ndarray) -> float:
    return float(np.real(SINGLET.conj() @ rho @ SINGLET))


def s_max(rho: np.ndarray) -> float:
    """2 sqrt(u1 + u2), u1 >= u2 the largest eigenvalues of T^T T."""
    t = np.array(
        [[np.real(np.trace(rho @ np.kron(a, b))) for b in _PAULIS] for a in _PAULIS]
    )
    u = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return 2.0 * math.sqrt(u[0] + u[1])


def negativity(rho: np.ndarray) -> float:
    """Sum of |negative eigenvalues| of the partial transpose on photon 2."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0.0].sum())


def coherence(v0: float, tau_e_us: float, dt_us: float) -> float:
    """v(dt) = v0 exp(-(dt/tau_e)^2); the negativity of the pair is v/2."""
    return v0 * math.exp(-((dt_us / tau_e_us) ** 2))
