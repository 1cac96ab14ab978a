"""Entanglement figures of merit for two-qubit density matrices.

Every function takes one state, shape (4, 4), or a stack of states, shape
(B, 4, 4).  One state gives Python floats; a stack gives arrays over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import s_max
from .qcore import (
    SINGLET_KET,
    partial_transpose,
    require_two_qubit_density,
    tensor,
    unstack,
)

# Spin-flip Pauli for the concurrence: the standard y matrix written in the
# computational basis, which is also the basis the conjugation acts in.
# (This is not the same operator as the polarization-frame sigma_y, whose
# eigenbasis R/L coincides with the computational one.)
_FLIP_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = tensor(_FLIP_Y, _FLIP_Y)

# math.log2 elementwise: numpy's SIMD log2 can differ from the C library's in
# the last bit, depending on the CPU features numpy dispatches to.
_log2 = np.vectorize(math.log2, otypes=[float])


@dataclass(frozen=True)
class EntanglementReport:
    """All measures evaluated on the same state (or arrays over a stack)."""

    fidelity_singlet: float
    concurrence: float
    eof: float
    negativity: float
    log_negativity: float
    s_max: float


def fidelity_singlet(rho) -> float:
    """Overlap <Psi-|rho|Psi-> with the two-photon singlet."""
    return _fidelity_singlet(require_two_qubit_density(rho))


def _fidelity_singlet(mat: np.ndarray) -> float:
    return unstack(np.clip(np.real(SINGLET_KET.conj() @ mat @ SINGLET_KET), 0.0, 1.0))


def concurrence(rho) -> float:
    """Two-qubit concurrence.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the descending square
    roots of the eigenvalues of rho (sy x sy) rho* (sy x sy), with the
    conjugate taken in the computational product basis.  The l_i are
    evaluated as the singular values of sqrt(rho) (sy x sy) sqrt(rho)*,
    which avoids square-rooting noisy zero eigenvalues of the product.
    """
    return _concurrence(require_two_qubit_density(rho))


def _concurrence(mat: np.ndarray) -> float:
    w, v = np.linalg.eigh(mat)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    lams = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return unstack(np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]))


def entanglement_of_formation(rho) -> float:
    """E_F = h((1 + sqrt(1 - C^2))/2), monotone in the concurrence."""
    return eof_from_concurrence(concurrence(rho))


def eof_from_concurrence(c) -> float:
    """E_F from the concurrence: the binary entropy h(x) at x = (1 + sqrt(1 - C^2))/2."""
    c = np.clip(c, 0.0, 1.0)
    x = 0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c)))
    zero = x >= 1.0  # C = 0: h(1) = 0, but log2(1 - x) is undefined there
    y = np.where(zero, 0.5, 1.0 - x)
    return unstack(np.where(zero, 0.0, -x * _log2(x) - y * _log2(y)))


def log_negativity(rho) -> tuple[float, float]:
    """Negativity and logarithmic negativity.

    N is the absolute sum of the negative eigenvalues of the partial
    transpose; E_N = log2(2N + 1).
    """
    return _log_negativity(require_two_qubit_density(rho))


def _log_negativity(mat: np.ndarray) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(partial_transpose(mat))
    negativity = -np.sum(np.minimum(eigs, 0.0), axis=-1)
    return unstack(negativity), unstack(_log2(2.0 * negativity + 1.0))


def report(rho) -> EntanglementReport:
    """Evaluate every measure, including the inferred CHSH maximum.

    The state or stack is validated once, here.
    """
    return report_of_valid(require_two_qubit_density(rho))


def report_of_valid(mat: np.ndarray) -> EntanglementReport:
    """``report`` of a state or stack that has already passed validation."""
    c = _concurrence(mat)
    negativity, e_n = _log_negativity(mat)
    return EntanglementReport(
        fidelity_singlet=_fidelity_singlet(mat),
        concurrence=c,
        eof=eof_from_concurrence(c),
        negativity=negativity,
        log_negativity=e_n,
        s_max=s_max(mat),
    )
