"""Two-photon state reconstruction from nine-basis coincidence counts.

Two estimators are provided.  Linear inversion solves the measurement
equations tr(rho Pi_k) = f_k by least squares (James et al., PRA 64, 052312
(2001)), one fixed linear map as the design's Gram matrix is diagonal; it
recovers the state exactly from exact frequencies but can leave the
physical set on noisy data (flagged, never hidden).  The
maximum-likelihood estimator takes damped Newton steps in the Pauli
coordinates of rho, which reach an interior optimum in a few steps.  The
rows whose optimum lies on the boundary of the positive semidefinite set
take Newton steps on a factor instead, rho = A A^dag / tr(A A^dag) with A
lower-triangular in the eigenbasis of the current iterate (Burer and
Monteiro, Math. Program. 95, 329 (2003)), which keeps every iterate
positive semidefinite and lets eigenvalues reach zero; a Frank-Wolfe step
toward the top eigenvector of R adds a direction the factor lacks.
Because the multinomial log-likelihood is concave, lambda_max(R) - N
bounds how far an iterate is below the maximum (Glancy, Knill, Girard, NJP
14, 095017 (2012)); the fit stops on that certificate.  Many count tables
(the bootstrap resamples) are fitted as one batch.  The resamples start at
the estimate of the observed table and take their first Newton steps with
one fixed Hessian, its Fisher information (a chord method), under the same
certificate and the same caps as every fit.

Both ports of each analyzer are used, so every basis pair contributes four
projectors.  The count table has one fixed layout, ``PROJECTORS``: the nine
``detection.BASIS_PAIRS`` in order, four cells each, 36 columns.  It and
the estimators' Pauli design come from ``detection.TOMOGRAPHY_PORTS``, so
every design coefficient is exactly 0 or +-1/4.  Every estimator takes
(9, 4) count tables in that pair order, a dataset's ``counts``, and needs
coincidences in every pair.  Error bars on derived
quantities come from multinomial bootstrap resampling of the per-basis
counts: all resamples are drawn in one call on one stream, fitted as one
batch, and the figures are evaluated once on the stack of kept states.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .detection import BASIS_PAIRS, TOMOGRAPHY_PORTS
from .errors import DataError
from .measures import report_of_valid
from .qcore import (
    MIN_EIGENVALUE_TOL,
    PAULI_PRODUCTS,
    DensityMatrix,
    born_probabilities,
    flatten_real,
    require_two_qubit_density,
    validate_density,
)
from .rng import make_stream

_PROB_FLOOR = 1e-12
#: An MLE fit has converged when its certificate gap is at most min(GAP_TOL * N,
#: 1), N being its total count: a log-likelihood within that of the maximum.
GAP_TOL = 1e-8
#: Cap on steps of every kind together per row of every MLE fit, the main
#: fit and the bootstrap resample fits alike.
MAX_ITER = 10_000
#: Fewest and most resamples a bootstrap accepts: each resample adds about
#: 40 KB to the peak memory of a near-pure bootstrap, 0.4 GB at the most.
MIN_RESAMPLES = 100
MAX_RESAMPLES = 10_000
#: Largest ratio of two basis-pair totals of one table that an estimator accepts.
MAX_PAIR_RATIO = 2**20
#: Largest total count N of one table that an estimator accepts: the
#: certificate lambda_max(R) - N is quantised to ulp(N), 1/16 at 2**48.
MAX_TOTAL = 2**48
#: A cut Newton step stops at this fraction of its way to the PSD boundary.
_TO_BOUNDARY = 0.99
#: A factor step is kept at the longest of these lengths that realizes this
#: fraction (Armijo) of the increase its slope predicts.
_STEP_LENGTHS = 0.5 ** np.arange(12)
_ARMIJO = 1e-4
#: Mixing weights a Frank-Wolfe step compares; weight 0 keeps the state.
_MIX_WEIGHTS = np.concatenate([[0.0], np.geomspace(1e-16, 1.0, 97)])
#: A boundary row whose state puts less weight than this on the top
#: eigenvector of R takes a Frank-Wolfe step toward it: the factor step
#: cannot grow a direction the factor lacks.
_ABSENT = 1e-6
#: Passes on which the Newton rows of an anchored (bootstrap) fit step with
#: the shared Hessian of ``_chord``; later passes use each row's own.  The
#: chord converges linearly, at a rate near 1 where a resample's optimum is
#: far from the estimate's (a near-pure estimate on the PSD boundary), and
#: from where the first passes leave a row one exact Newton step certifies.
_CHORD_PASSES = 3
#: On a 2-core x86 VM with numpy 2.4, ``_positive_definite`` costs about
#: 30 us a stack and ``eigvalsh`` about 3 us a row, so a fit uses the former
#: only on stacks of at least this many rows: for the cut test of a Newton
#: step, and to screen rows before the certificate's ``eigvalsh(R)``.
_SCREEN_ROWS = 16


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed state plus estimator diagnostics."""

    rho: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    method: str
    min_eigenvalue: float
    certificate_gap: float | None  # MLE only: lambda_max(R) - N, see _fit

    @property
    def psd_ok(self) -> bool:
        return self.min_eigenvalue >= MIN_EIGENVALUE_TOL


# a_km = tr(Pi_k sigma_m) / 4 = U_A[i, m1] U_B[j, m2] / 4 at cell (i, j) of a
# pair with port blocks U_A, U_B and m = 4 m1 + m2.  rho = (1/4) sum_m c_m
# sigma_m with c_0 = 1 fixed by the trace, so p = a[:, 0] + _DESIGN @ c[1:].
# The Gram matrix a^T a is diagonal, with entries g_m of 1/4, 3/4 and 9/4 (a
# test checks it).
_PAULI_COEFFS = np.einsum("pim,pjn->pijmn", *TOMOGRAPHY_PORTS).reshape(36, 16) / 4.0
#: (36, 4, 4) port projectors of the count table's columns: the four cells
#: (uu, ud, du, dd) of each of the nine BASIS_PAIRS, in that order, each
#: P_i x Q_j = sum_m a_km sigma_m with entries that are multiples of 1/4.
PROJECTORS = np.einsum("km,mab->kab", _PAULI_COEFFS, PAULI_PRODUCTS)
PROJECTORS.flags.writeable = False
_FLAT_PROJECTORS = flatten_real(PROJECTORS)
_DESIGN = _PAULI_COEFFS[:, 1:]
# With a^T a diagonal, least squares on the frequencies f is one fixed map:
# c_m = sum_k a_km f_k / g_m for m >= 1, and rho = I/4 + sum_k f_k M_k with
# M_k = sum_m a_km sigma_m / (4 g_m).  Row k is M_k, flattened to real.
_LINEAR = (_DESIGN / np.sum(_DESIGN**2, axis=0)) @ flatten_real(PAULI_PRODUCTS[1:]) / 4.0
# a_k a_k^T of each design row, flattened: the Newton Hessian is one product.
_OUTER = (_DESIGN[:, :, None] * _DESIGN[:, None, :]).reshape(len(_DESIGN), -1)
# Row m is sigma_m / 4, flattened: a step delta in the 15 Pauli coordinates
# changes rho by delta @ _PAULI_STEPS.
_PAULI_STEPS = PAULI_PRODUCTS[1:].reshape(15, 16) / 4.0


def _checked(tables) -> np.ndarray:
    """A stack of (9, 4) count tables as the float (B, 36) table of the
    columns of PROJECTORS; DataError unless every cell is finite and >= 0,
    every basis pair has coincidences, no pair total of a table exceeds
    MAX_PAIR_RATIO times another, and no table's total exceeds MAX_TOTAL."""
    shapes = {np.shape(counts) for counts in tables}
    if shapes != {(9, 4)}:
        raise DataError(f"expected (9, 4) count tables, got shapes {sorted(shapes)}")
    table = np.array(tables, dtype=float)
    if not np.all(np.isfinite(table) & (table >= 0.0)):
        raise DataError("counts must be finite and >= 0")
    totals = table.sum(axis=2)
    empty = np.flatnonzero(np.any(totals <= 0.0, axis=0))
    if empty.size:
        raise DataError(f"basis pair {BASIS_PAIRS[empty[0]]} has zero coincidences")
    if np.any(totals.max(axis=1) > MAX_PAIR_RATIO * totals.min(axis=1)):
        raise DataError("basis-pair totals of a table differ by more than a factor 2**20")
    largest = totals.sum(axis=1).max()
    if largest > MAX_TOTAL:
        raise DataError(f"count tables above a total of 2**48 are not supported: {largest:g}")
    return table.reshape(-1, 36)


def _log_likelihood(counts: np.ndarray, rho: np.ndarray):
    """sum_k n_k log p_k, per row of a (B, 36) table and (B, 4, 4) stack."""
    probs = np.clip(born_probabilities(PROJECTORS, rho), _PROB_FLOOR, None)
    return np.sum(counts * np.log(probs), axis=-1)


def _linear_states(counts: np.ndarray) -> np.ndarray:
    """Least-squares Hermitian, trace-one matrices, one per row of a (B, 36) table.

    Each row's counts become per-basis frequencies (bases are consecutive
    blocks of four cells); the design's diagonal Gram matrix makes the
    solution of all rows one product with the constant ``_LINEAR``.
    """
    cells = counts.reshape(len(counts), -1, 4)
    freqs = (cells / cells.sum(axis=2, keepdims=True)).reshape(len(counts), -1)
    return np.eye(4) / 4.0 + (freqs @ _LINEAR).view(complex).reshape(-1, 4, 4)


def _results(counts, rho, steps=None, gaps=None) -> list[ReconstructionResult]:
    """One ReconstructionResult per row of a (B, 36) table and its (B, 4, 4)
    stack of states: linear-inversion results, or given the ``steps`` and
    certificate ``gaps`` of a ``_fit``, maximum-likelihood ones."""
    mle = gaps is not None
    log_likelihood = _log_likelihood(counts, rho)
    min_eigenvalue = np.linalg.eigvalsh(rho)[:, 0]
    converged = gaps <= gap_tolerance(counts.sum(axis=1)) if mle else np.ones(len(rho), bool)
    return [
        ReconstructionResult(
            rho=DensityMatrix(rho[b]),
            log_likelihood=float(log_likelihood[b]),
            iterations=int(steps[b]) if mle else 0,
            converged=bool(converged[b]),
            method="mle" if mle else "linear",
            min_eigenvalue=float(min_eigenvalue[b]),
            certificate_gap=float(gaps[b]) if mle else None,
        )
        for b in range(len(rho))
    ]


def linear_inversion(counts) -> ReconstructionResult:
    """Least-squares solution of the tomography equations, one fixed linear
    map of the frequencies because the design's Gram matrix is diagonal.

    ``counts`` is a (9, 4) count table.  Exact frequencies reproduce the
    state to numerical precision; finite counts may give a non-positive
    matrix, reported via min_eigenvalue and psd_ok rather than corrected.
    """
    counts = _checked([counts])
    return _results(counts, _linear_states(counts))[0]


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize to unit trace.

    Works on one matrix or on a stack of them (last two axes).
    """
    sym = 0.5 * (mat + np.swapaxes(mat.conj(), -1, -2))
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    out = (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    return out / np.trace(out, axis1=-2, axis2=-1)[..., None, None]


def _positive_definite(stack: np.ndarray) -> np.ndarray:
    """Whether each Hermitian matrix of a (B, 4, 4) stack is positive definite.

    Reads the pivots of an LDL^H decomposition, one Schur complement per
    column: a Hermitian matrix is positive definite exactly when every pivot
    is positive.  Like ``eigvalsh`` it reads only the lower triangle.  A row
    holding NaN or inf is not positive definite.
    """
    pivots = []
    schur = stack
    with np.errstate(all="ignore"):
        for _ in range(3):
            pivots.append(schur[:, 0, 0].real)
            column = schur[:, 1:, :1]
            row = np.swapaxes(column.conj(), 1, 2) / schur[:, :1, :1].real
            schur = schur[:, 1:, 1:] - column * row
    pivots.append(schur[:, 0, 0].real)
    return (np.array(pivots) > 0.0).all(axis=0) & np.isfinite(stack).all(axis=(1, 2))


def _chord(observed: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The (36, 32) map weights -> Delta_rho (real view) of a Newton step with
    the fixed Hessian H0 = A^T diag(n0/p0^2) A: the Fisher information of the
    observed counts n0 at the state ``start``, whose p0 are all positive.

    The map is real: OpenBLAS runs the complex product of a few hundred rows
    on every core, which doubles the CPU time of a bootstrap.
    """
    fisher = ((observed / born_probabilities(PROJECTORS, start) ** 2) @ _OUTER).reshape(15, 15)
    return _DESIGN @ np.linalg.solve(fisher, flatten_real(PAULI_PRODUCTS[1:]) / 4.0)


def _newton_step(weights, probs, rho, chord=None):
    """Newton step Delta_rho of each row and its length alpha (see _fit).

    weights = n/p; the Hessian A^T diag(n/p^2) A is one product with _OUTER.
    With a ``chord`` (see _chord) every row steps with that one fixed
    Hessian instead, and Delta_rho is weights @ chord.
    alpha = 1 where rho + Delta_rho / _TO_BOUNDARY is PSD (``_positive_definite``
    on _SCREEN_ROWS rows or more); only the rest whiten.
    """
    if chord is None:
        hessian = ((weights / probs)[:, None, :] @ _OUTER).reshape(-1, 15, 15)
        delta = np.linalg.solve(hessian, (weights @ _DESIGN)[..., None])[..., 0]
        d_rho = (delta @ _PAULI_STEPS).reshape(-1, 4, 4)
    else:
        d_rho = (weights @ chord).view(complex).reshape(-1, 4, 4)
    alpha = np.ones(len(d_rho))
    trial = rho + d_rho / _TO_BOUNDARY
    if len(trial) >= _SCREEN_ROWS:
        cut = ~_positive_definite(trial)
    else:
        cut = np.linalg.eigvalsh(trial)[:, 0] < 0.0
    if cut.any():
        whiten = np.linalg.inv(np.linalg.cholesky(rho[cut]))
        mu = np.linalg.eigvalsh(whiten @ d_rho[cut] @ np.swapaxes(whiten.conj(), -1, -2))[:, 0]
        alpha[cut] = _TO_BOUNDARY / np.maximum(-mu, _TO_BOUNDARY)
    return d_rho, alpha


# The 16 real coordinates of a 4x4 lower-triangular matrix T with a real
# diagonal: Re T[i, a] for i >= a and Im T[i, a] for i > a, as indices into
# the interleaved real view of T.
_LOWER = [(i, a, part) for a in range(4) for i in range(a, 4) for part in range(1 + (i > a))]
_LOWER_AT = np.array([2 * (4 * i + a) + part for i, a, part in _LOWER])
_LOWER_COLUMN = np.array([a for _, a, _ in _LOWER])
# Re tr(dT^dag M dT) = x^T K x for Hermitian M and dT with coordinates x:
# K[s, t] is M[i_s, i_t]'s real part, or its imaginary part with a sign when
# one of s, t is an imaginary coordinate, if s and t share a column, else 0.
_CURVATURE_AT = np.array(
    [[2 * (4 * i + j) + (ps != pt) for j, _, pt in _LOWER] for i, _, ps in _LOWER]
)
_CURVATURE_SIGN = np.array(
    [[(a == b) * (-1.0 if (ps, pt) == (0, 1) else 1.0) for _, b, pt in _LOWER]
     for _, a, ps in _LOWER]
)
_DIAGONAL_AT = np.array([2 * 5 * a for a in range(4)])
# PROJECTORS and the identity, flattened: the identity's "probability" is the
# trace, which the factor step treats as a 37th cell with count -N.
_WITH_TRACE = np.concatenate([PROJECTORS, np.eye(4)[None]]).reshape(37, 16)


def _factor_step(counts, eigenvalues, eigenvectors):
    """One Newton step of each row on a factor of rho; returns the new states
    and whether some length of each row's step met the Armijo condition.

    With rho = V W V^dag (eigenvalues W descending), rho = A A^dag / tr(A A^dag)
    for A = V T and T = W^(1/2).  The step moves the 16 coordinates x of T as
    a lower-triangular matrix with a real diagonal, which leaves A no unitary
    freedom but its scale.  With the projectors rotated to V^dag Pi_k V,
    f(x) = sum_k n_k log p_k - N log tr(T T^dag) has gradient
    sum_k (n_k/p_k) J_k - 2 N z, with J_k = dp_k/dx and z = x at T, and minus
    Hessian sum_k (n_k/p_k^2) J_k J_k^T - 2 K(V^dag R V) + 2 N I once
    4 N z z^T is added to fill the scale direction, along which f is
    constant; K(M) is the form Re tr(dT^dag M dT) (_CURVATURE_AT).  The
    column of a zero eigenvalue has J = 0, and K keeps its block nonsingular
    where R < N off the support, as at the optimum.  The trace enters as a
    37th cell, the identity with count -N (_WITH_TRACE), so one expression
    gives f, its gradient, V^dag (R - N) V and the trial values.  The step
    length is the longest of _STEP_LENGTHS meeting the Armijo condition; p
    and the trace are quadratic in it, so every length is tried at once.
    """
    b = len(counts)
    v = eigenvectors[:, :, ::-1]
    w = np.clip(eigenvalues[:, ::-1], 0.0, None)
    root = np.sqrt(w)
    # V^dag Pi_k V and V^dag I V = I, flattened to real (b, 37, 32).
    rotation = (v.conj()[:, :, None, :, None] * v[:, None, :, None, :]).reshape(b, 16, 16)
    rotated = (_WITH_TRACE @ rotation).view(float)
    cells = np.concatenate([counts, -counts.sum(axis=1, keepdims=True)], axis=1)
    used = cells != 0
    probs = (rotated[:, :, _DIAGONAL_AT] @ w[..., None])[..., 0]
    weights = np.divide(cells, probs, out=np.zeros_like(probs), where=used)
    jac = rotated[:, :, _LOWER_AT] * (2.0 * root[:, None, _LOWER_COLUMN])
    grad = (weights[:, None] @ jac)[:, 0]
    r_rotated = (weights[:, None] @ rotated)[:, 0]  # V^dag (R - N) V, real view
    curvature = np.divide(weights, probs, out=np.zeros_like(probs), where=used)
    curvature[:, 36] = 0.0
    neg_hessian = (np.swapaxes(jac, 1, 2) * curvature[:, None]) @ jac
    neg_hessian -= 2.0 * r_rotated[:, _CURVATURE_AT] * _CURVATURE_SIGN
    delta = np.linalg.solve(neg_hessian, grad[..., None])[..., 0]
    d_lower = np.zeros((b, 32))
    d_lower[:, _LOWER_AT] = delta
    d_lower = d_lower.view(complex).reshape(b, 4, 4)
    d_gram = flatten_real(d_lower @ np.swapaxes(d_lower.conj(), 1, 2))
    quad = (rotated @ d_gram[..., None])[..., 0]
    lengths = _STEP_LENGTHS[:, None]
    linear = (jac @ delta[..., None])[:, None, :, 0]
    trial = probs[:, None] + lengths * linear + lengths**2 * quad[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.sum(cells[:, None] * np.log(trial / probs[:, None]), axis=-1, where=used[:, None])
    slope = np.einsum("bi,bi->b", grad, delta)
    ok = gain > np.maximum(_ARMIJO * slope, 0.0)[:, None] * _STEP_LENGTHS
    length = _STEP_LENGTHS[np.argmax(ok, axis=1)]
    factor = v @ (root[:, :, None] * np.eye(4) + length[:, None, None] * d_lower)
    new = factor @ np.swapaxes(factor.conj(), 1, 2)
    return new / np.einsum("bii->b", new).real[:, None, None], ok.any(axis=1)


def _mix_step(counts, rho, ket):
    """rho <- (1 - t) rho + t |ket><ket| per row, t the best of _MIX_WEIGHTS.

    The log-likelihood is concave in t with slope <ket|R|ket> - N at t = 0,
    so toward the top eigenvector of R a step gains whenever the gap is
    positive (a Frank-Wolfe step with line search).
    """
    target = ket[:, :, None] * ket[:, None, :].conj()
    probs = born_probabilities(PROJECTORS, rho)[:, None]
    toward = born_probabilities(PROJECTORS, target)[:, None] - probs
    trial = np.maximum(probs + _MIX_WEIGHTS[:, None] * toward, 0.0)
    with np.errstate(divide="ignore"):
        loglik = np.sum(counts[:, None] * np.log(trial), axis=-1, where=counts[:, None] > 0)
    t = _MIX_WEIGHTS[np.argmax(loglik, axis=1)][:, None, None]
    return (1.0 - t) * rho + t * target


def _boundary_step(counts, rho, r_op):
    """One step of each boundary row: a factor step, or a Frank-Wolfe step
    toward the top eigenvector of R when rho lacks that direction or no
    length of the factor step meets the Armijo condition."""
    b = len(counts)
    eigenvalues, eigenvectors = np.linalg.eigh(np.concatenate([rho, r_op]))
    top = eigenvectors[b:, :, -1]
    new, ok = _factor_step(counts, eigenvalues[:b], eigenvectors[:b])
    mix = ~ok | (np.einsum("bi,bij,bj->b", top.conj(), rho, top).real < _ABSENT)
    if mix.any():
        new[mix] = _mix_step(counts[mix], rho[mix], top[mix])
    return new


def gap_tolerance(total):
    """min(GAP_TOL * N, 1): one huge cell cannot excuse a fit from the rest."""
    return np.minimum(GAP_TOL * total, 1.0)


def _fit(counts: np.ndarray, anchor=None):
    """Batched maximum-likelihood fit of every row of a (B, 36) count table.

    The columns are those of PROJECTORS, as ``_checked`` lays them out.

    Starts each row from the PSD projection of its linear-inversion
    estimate, lightly mixed with the identity so that every probability is
    positive.  Every step of a row is a Newton step in rho or a boundary
    step; MAX_ITER, read at call time, caps both kinds together.

    An ``anchor`` (observed, estimate), a (36,) count row and a 4x4 state,
    fits the bootstrap resamples of ``observed``: every row starts at
    ``estimate`` mixed with the identity in the same way, and the Newton
    steps of the first _CHORD_PASSES passes use one fixed Hessian, the
    Fisher information of ``observed`` at that start (``_chord``).  A chord
    step converges linearly rather than quadratically but costs one matrix
    product for all rows; the rest of the fit, the certificate included, is
    the same.

    Newton works in the 15 Pauli coordinates c of rho, where
    p = a_0 + A c with A = _DESIGN.  It solves
    (A^T diag(n/p^2) A) delta = A^T (n/p), minus the Hessian and the
    gradient of L = sum_k n_k log p_k, and steps rho <- rho + alpha
    Delta_rho.  With rho = C C^dag (Cholesky) and mu the smallest eigenvalue
    of C^-1 Delta_rho C^-dag, alpha = min(1, _TO_BOUNDARY / -mu) keeps rho
    positive definite.  A row leaves Newton for good when a step is cut
    shorter than its previous one, because it is heading for the PSD
    boundary; a start on the boundary with an interior optimum takes a few
    lengthening damped steps first.  A row with a zero-count cell never
    takes a Newton step: the cell drops out of the Hessian, which can then
    be singular.

    The other rows take boundary steps (``_boundary_step``): a Newton step
    on a factor of rho (``_factor_step``), whose iterates stay positive
    semidefinite and trace-one and whose eigenvalues can reach zero, or a
    Frank-Wolfe step toward the top eigenvector of
    R = sum_k (n_k / p_k) Pi_k (cells with n_k = 0 add nothing) when the
    factor lacks that direction or no length of its step meets the Armijo
    condition; no boundary step lowers the log-likelihood.  The
    log-likelihood is concave, so gap = lambda_max(R) - N bounds how far a
    row's log-likelihood is below the maximum; a row stops once
    gap <= gap_tolerance(N), or after MAX_ITER steps.  Each pass computes R and
    the gap of the active rows first and drops the rows that certify, so
    steps are built only for rows that still take one.  Only rows where
    (N + gap_tolerance(N)) I - R is positive definite (``_positive_definite``)
    can certify, so on a pass of at least _SCREEN_ROWS rows only they pay
    for ``eigvalsh``; the other rows' gap stays inf until they do, or until
    the last pass.  A row whose R is not finite (a probability reached zero
    under a positive count) stops there, unconverged with gap inf.  Returns
    rho (B, 4, 4), the steps taken and the final gap of each row.
    """
    if anchor is None:
        rho = project_psd(_linear_states(counts))
    else:
        observed, estimate = anchor
        rho = np.repeat(estimate[None], len(counts), axis=0)
    rho = 0.999999 * rho + 1e-6 * np.eye(4) / 4.0
    # A cell empty in ``observed`` is empty in every resample, so no row
    # takes a Newton step; the Fisher information may then be singular.
    chord = _chord(observed, rho[0]) if anchor is not None and (observed > 0).all() else None
    tol = gap_tolerance(counts.sum(axis=1))
    iterations = np.zeros(len(counts), dtype=int)
    gap = np.empty(len(counts))
    active = np.arange(len(counts))
    newton = (counts > 0).all(axis=1)
    last_alpha = np.zeros(len(counts))
    for step in range(MAX_ITER + 1):
        n = counts[active]
        total = n.sum(axis=1)
        probs = born_probabilities(PROJECTORS, rho[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            weights = np.divide(n, probs, out=np.zeros_like(n), where=n > 0)
            r_op = (weights @ _FLAT_PROJECTORS).view(complex).reshape(-1, 4, 4)
        finite = near = np.isfinite(r_op).all(axis=(1, 2))
        if step < MAX_ITER and len(active) >= _SCREEN_ROWS:
            near = _positive_definite((total + tol[active])[:, None, None] * np.eye(4) - r_op)
        gap[active] = np.inf
        gap[active[near]] = np.linalg.eigvalsh(r_op[near])[:, -1] - total[near]
        iterations[active] = step
        keep = finite & (gap[active] > tol[active])
        if step == MAX_ITER or not keep.any():
            break
        active, probs, weights, r_op = active[keep], probs[keep], weights[keep], r_op[keep]
        in_newton = newton[active]
        if in_newton.any():
            rows = active[in_newton]
            shared = chord if step < _CHORD_PASSES else None
            d_rho, alpha = _newton_step(weights[in_newton], probs[in_newton], rho[rows], shared)
            rho[rows] += alpha[:, None, None] * d_rho
            newton[rows] = (alpha == 1.0) | (alpha > last_alpha[rows])
            last_alpha[rows] = alpha
        if not in_newton.all():
            rows = active[~in_newton]
            rho[rows] = _boundary_step(counts[rows], rho[rows], r_op[~in_newton])
    return rho, iterations, gap


def mle_reconstruct_batch(tables) -> list[ReconstructionResult]:
    """Maximum-likelihood reconstruction over physical density matrices.

    ``tables`` holds (9, 4) count tables, each with coincidences in every
    basis pair.  Flattened to the column order of PROJECTORS, they are the
    rows of one table that a single ``_fit`` call reconstructs, in at most
    MAX_ITER steps per row.  ``certificate_gap`` is the bound
    lambda_max(R) - N on the log-likelihood still missing, and
    ``converged`` means it is at most ``gap_tolerance(N)``.
    """
    if not len(tables):
        raise DataError("no datasets to reconstruct")
    counts = _checked(tables)
    return _results(counts, *_fit(counts))


def mle_reconstruct(counts) -> ReconstructionResult:
    """The one-table case of ``mle_reconstruct_batch``."""
    return mle_reconstruct_batch([counts])[0]


@dataclass(frozen=True)
class BootstrapErrors:
    """Bootstrap standard deviations of the figures of ``measures.report``."""

    sigma_fidelity: float
    sigma_concurrence: float
    sigma_eof: float
    sigma_negativity: float
    sigma_log_negativity: float
    sigma_s_max: float
    n_resamples: int
    n_failed: int


def bootstrap_errors(counts, estimate, n_resamples: int, seed: int) -> BootstrapErrors:
    """Multinomial bootstrap of a (9, 4) count table, re-fitting with MLE.

    ``estimate`` is the table's own maximum-likelihood state.  Each basis
    pair of every resample is drawn from its observed frequencies, all in
    one sized multinomial call on ``make_stream(seed)``; numpy fills the
    (n_resamples, 9, 4) draw one resample after another, so resample r is
    the same for every n_resamples above r.  A single batched
    ``_fit`` anchored at the estimate and the observed table reconstructs
    the resamples: each starts at the estimate and takes its first Newton
    steps with the estimate's fixed Hessian, under the same certificate and
    MAX_ITER as every fit.
    The resamples whose fit meets the certificate tolerance and is a valid
    density matrix are kept, and the figures are evaluated once on all of
    them; every other resample is counted in ``n_failed``.
    """
    if not MIN_RESAMPLES <= n_resamples <= MAX_RESAMPLES:
        raise DataError(f"need {MIN_RESAMPLES} to {MAX_RESAMPLES} resamples, got {n_resamples}")
    observed = _checked([counts])[0]
    cells = observed.reshape(9, 4)
    totals = cells.sum(axis=1)
    draws = make_stream(seed).multinomial(
        np.rint(totals).astype(np.int64), cells / totals[:, None], size=(n_resamples, 9)
    )
    table = draws.reshape(n_resamples, 36).astype(float)
    rho, _, gap = _fit(table, (observed, require_two_qubit_density(estimate, one=True)))
    kept = rho[(gap <= gap_tolerance(table.sum(axis=1))) & validate_density(rho).passed]
    if len(kept) < 2:
        raise DataError("too few successful bootstrap resamples to estimate errors")
    figures = asdict(report_of_valid(kept))
    figures["fidelity"] = figures.pop("fidelity_singlet")
    return BootstrapErrors(
        **{f"sigma_{name}": float(np.std(v, ddof=1)) for name, v in figures.items()},
        n_resamples=n_resamples,
        n_failed=n_resamples - len(kept),
    )
