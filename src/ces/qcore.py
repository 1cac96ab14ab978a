"""Exact dense linear algebra on the two-photon (two-qubit, 4x4) space.

Every other module builds on the basis conventions fixed here:

* photonic qubit: ``|0> = |sigma+>``, ``|1> = |sigma->``
* two-photon product ordering: ``{++, +-, -+, --}``
* atomic qubit: ``|0> = |1,-1>``, ``|1> = |1,+1>``
* linear polarization: ``|H> = (|s+> + |s->)/sqrt(2)`` and
  ``|V> = -i(|s+> - |s->)/sqrt(2)``, which makes the ideal photon pair the
  standard linear-polarization singlet (up to a global phase) so that the
  two-analyzer correlation is ``E(a, b) = -cos 2(a - b)``
* diagonal basis ``|D> = (|H> + |V>)/sqrt(2)``, ``|A> = (|H> - |V>)/sqrt(2)``
* circular basis ``|R> = (|H> + i|V>)/sqrt(2)``, ``|L> = (|H> - i|V>)/sqrt(2)``
  (with the conventions above, R/L coincide with sigma+/sigma-)
* Pauli matrices x = D/A, y = R/L, z = H/V: ``|k+><k+| - |k-><k-|`` of the
  kets above, written exactly, so every entry of sigma_m x sigma_n is 0, +-1, +-i

States are immutable after construction and all functions are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE_TOL = -1e-9

# Single-qubit kets in the sigma+/sigma- computational basis.
KET_SP = np.array([1.0, 0.0], dtype=complex)
KET_SM = np.array([0.0, 1.0], dtype=complex)

#: Two-photon singlet ket (|s+ s-> - |s- s+>)/sqrt(2).
SINGLET_KET = (np.kron(KET_SP, KET_SM) - np.kron(KET_SM, KET_SP)) / np.sqrt(2.0)

IDENTITY_2 = np.eye(2, dtype=complex)

# Polarization Bloch frame (see above), in which analyzer rotations by an
# angle a sweep the z-x great circle.
PAULI_X = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Y = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_Z = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: The 16 Hermitian operators sigma_mu x sigma_nu (mu, nu in {I, x, y, z})
#: in the polarization Bloch frame, stored at index 4 mu + nu.
PAULI_PRODUCTS = _freeze(
    np.array([np.kron(a, b) for a in (IDENTITY_2,) + PAULIS for b in (IDENTITY_2,) + PAULIS])
)


class DensityMatrix:
    """Two-qubit density operator stored as a dense complex 4x4 matrix.

    Construction only checks the shape; physicality (Hermiticity, unit trace,
    positivity) is reported by :func:`validate_density` so that diagnostic
    paths (e.g. linear-inversion tomography) can hold unphysical matrices and
    flag them instead of failing.  It remembers passing
    :func:`require_two_qubit_density`, which checks an array on every call.
    """

    __slots__ = ("matrix", "_validated")

    def __init__(self, entries) -> None:
        self.matrix = _freeze(np.array(two_qubit_matrix(entries, one=True)))
        self._validated = None  # the matrix once require_two_qubit_density passed it

    # JSON wire form used by every CLI subcommand:
    # {"dim": 4, "re": [16 row-major], "im": [16 row-major]}

    def to_json_dict(self) -> dict:
        return {
            "dim": 4,
            "re": [float(x) for x in self.matrix.real.reshape(-1)],
            "im": [float(x) for x in self.matrix.imag.reshape(-1)],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DensityMatrix":
        try:
            dim = obj["dim"]
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed density-matrix JSON: {exc}") from exc
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValidationError(f"density-matrix JSON needs an integer dim, got {dim!r}")
        for part, values in (("re", re), ("im", im)):
            if not np.isfinite(values).all():
                raise ValidationError(f"density-matrix JSON: {part} holds a non-finite entry")
        if dim != 4:
            raise DimensionError(f"density-matrix JSON needs dim 4 (one 4x4 state), got {dim}")
        if re.size != 16 or im.size != 16:
            raise ValidationError(
                f"density-matrix JSON needs 16 entries per part, got re={re.size}, im={im.size}"
            )
        return cls((re + 1j * im).reshape(4, 4))


def unstack(values):
    """A Python scalar for the 0-d result of one state; a stack's array as is."""
    return values.item() if np.ndim(values) == 0 else values


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second qubit (photon 2) of a two-qubit operator or of a
    stack of them.

    The result is Hermitian and trace-preserving but may be non-positive;
    its negative eigenvalues feed the negativity.
    """
    mat = two_qubit_matrix(rho)
    blocks = mat.reshape(*mat.shape[:-2], 2, 2, 2, 2)  # (row A, row B, col A, col B)
    return blocks.swapaxes(-3, -1).reshape(mat.shape)


@dataclass(frozen=True)
class DensityDiagnostics:
    """Report produced by :func:`validate_density`: scalars for one matrix,
    arrays over a stack."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float

    @property
    def passed(self) -> bool:
        return (
            (self.hermiticity_defect <= HERMITICITY_TOL)
            & (self.trace_defect <= TRACE_TOL)
            & (self.min_eigenvalue >= MIN_EIGENVALUE_TOL)
        )

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: hermiticity defect {self.hermiticity_defect:.2e}, "
            f"trace defect {self.trace_defect:.2e}, "
            f"min eigenvalue {self.min_eigenvalue:.2e}"
        )


def validate_density(rho) -> DensityDiagnostics:
    """Diagnose how far a 4x4 matrix (or each of a stack) is from being a
    valid density operator."""
    mat = two_qubit_matrix(rho)
    adjoint = np.swapaxes(mat.conj(), -1, -2)
    finite = np.isfinite(mat).all(axis=(-2, -1))
    # A huge or non-finite entry fails with an infinite or NaN figure, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        herm = unstack(np.max(np.abs(mat - adjoint), axis=(-2, -1)))
        tr = unstack(np.abs(np.trace(mat, axis1=-2, axis2=-1) - 1.0))
        # Eigenvalues of the Hermitian part (halves summed: no overflow); for
        # near-Hermitian input this is the spectrum up to the reported defect.
        part = np.where(finite[..., None, None], 0.5 * mat + 0.5 * adjoint, 0.0)
    min_eig = unstack(np.where(finite, np.min(np.linalg.eigvalsh(part), axis=-1), np.nan))
    return DensityDiagnostics(hermiticity_defect=herm, trace_defect=tr, min_eigenvalue=min_eig)


def require_two_qubit_density(rho, one: bool = False) -> np.ndarray:
    """``two_qubit_matrix(rho, one)``, raising ValidationError if any matrix
    is unphysical (a stack's message names the first failing row).  A
    DensityMatrix is checked until it passes once; an array every time."""
    if isinstance(rho, DensityMatrix) and rho._validated is rho.matrix:
        return rho.matrix
    mat = two_qubit_matrix(rho, one)
    passed = np.reshape(validate_density(mat).passed, -1)
    if not passed.all():
        row = int(np.argmin(passed))
        where = "" if mat.ndim == 2 else f" at row {row}"
        diag = validate_density(mat.reshape(-1, 4, 4)[row])
        raise ValidationError(f"invalid density matrix{where} ({diag.describe()})")
    if isinstance(rho, DensityMatrix):
        rho._validated = mat
    return mat


def two_qubit_matrix(rho, one: bool = False) -> np.ndarray:
    """The matrix of a DensityMatrix, else ``rho`` as a complex array;
    DimensionError unless it is a 4x4 matrix or, when not ``one``, a stack
    of them (shape (B, 4, 4))."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape[-2:] != (4, 4) or (one and mat.ndim != 2):
        what = "one two-qubit (4x4) state" if one else "two-qubit (4x4) states"
        raise DimensionError(f"expected {what}, got shape {mat.shape}")
    return mat


def pauli_expectations(rho) -> np.ndarray:
    """4x4 Pauli expectation matrix E_mn = tr(rho sigma_m x sigma_n), with
    m, n over (I, x, y, z) of the polarization Bloch frame (x = D/A, y = R/L,
    z = H/V), so E_00 is the trace.  A stack of operators gives a stack."""
    mat = two_qubit_matrix(rho)
    expectations = np.real(np.einsum("...ij,mji->...m", mat, PAULI_PRODUCTS))
    return expectations.reshape(*mat.shape[:-2], 4, 4)


def correlation_matrix(rho) -> np.ndarray:
    """3x3 two-qubit correlation matrix T_kl = tr(rho sigma_k x sigma_l): the
    Bloch block of ``pauli_expectations``."""
    return pauli_expectations(rho)[..., 1:, 1:]


def flatten_real(a: np.ndarray) -> np.ndarray:
    """Real view (..., 32) of 4x4 complex matrices, real and imaginary parts interleaved."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape[:-2], 32)


def born_probabilities(projectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Born probabilities tr(rho Pi_k), shape (..., K) for rho of shape (..., 4, 4).

    For Hermitian Pi_k, tr(rho Pi_k) = sum_ij Re(rho_ij conj(Pi_k,ij)): one
    real matrix product of the flattened matrices.
    """
    return flatten_real(rho) @ flatten_real(projectors).T
