"""Two-photon state reconstruction from nine-basis coincidence counts.

Two estimators are provided.  Linear inversion solves the measurement
equations tr(rho Pi_k) = f_k for the 16 real parameters of a Hermitian,
trace-one matrix; it recovers the state exactly from exact frequencies but
can leave the physical set on noisy data (flagged, never hidden).  The
maximum-likelihood estimator takes damped Newton steps in the Pauli
coordinates of rho, which reach an interior optimum in a few steps, and
hands the rows whose optimum lies on the boundary of the positive
semidefinite set to the RrhoR fixed-point iteration (Rehacek et al., PRA
75, 042108 (2007)), whose iterates are positive semidefinite and trace-one
by construction.  Because the multinomial log-likelihood is concave,
lambda_max(R) - N bounds how far an iterate is below the maximum (Glancy,
Knill, Girard, NJP 14, 095017 (2012)); the fit stops on that certificate.
Many count tables (the bootstrap resamples) are fitted as one batch.

Both ports of each analyzer are used, so every basis pair contributes four
projectors (36 total).  Error bars on derived quantities come from
multinomial bootstrap resampling of the per-basis counts: the resamples
are fitted as one batch, and one ``measures.report`` call evaluates the
figures on the stack of kept states.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .detection import (
    BASIS_LABELS,
    CountRecord,
    MeasurementSetting,
    TomographyDataset,
    basis_projectors,
    pair_projectors,
)
from .errors import DataError
from .measures import report
from .qcore import (
    MIN_EIGENVALUE_TOL,
    PAULI_PRODUCTS,
    DensityMatrix,
    born_probabilities,
    flatten_real,
    require_valid_density,
    validate_density,
)
from .rng import make_stream

_PROB_FLOOR = 1e-12
#: An MLE fit has converged when its certificate gap is at most GAP_TOL * N,
#: N being its total count: a log-likelihood within that of the maximum.
GAP_TOL = 1e-8
#: Default cap on Newton and RrhoR steps together per MLE fit.
MAX_ITER = 10_000
#: A cut Newton step stops at this fraction of its way to the PSD boundary.
_TO_BOUNDARY = 0.99
_CANONICAL_PAIRS = tuple(product(BASIS_LABELS, BASIS_LABELS))


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


# (4, 4, 4) port-projector block of each of the nine basis pairs, built once.
_PAIR_PROJECTORS = {p: pair_projectors(*map(basis_projectors, p)) for p in _CANONICAL_PAIRS}
# Row m is sigma_m / 4, flattened: a step delta in the 15 Pauli coordinates
# changes rho by delta @ _PAULI_STEPS.
_PAULI_STEPS = PAULI_PRODUCTS[1:].reshape(15, 16) / 4.0


def _design(dataset: TomographyDataset, require_counts: bool):
    """Flatten a dataset into its (K, 4, 4) projectors and (K,) counts.

    Bases with zero total counts are skipped (the caller decides whether
    that is acceptable).
    """
    projectors: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for basis_a, basis_b, rec in dataset.records:
        if rec.total <= 0:
            if require_counts:
                raise DataError(f"basis pair ({basis_a}, {basis_b}) has zero coincidences")
            continue
        try:
            projectors.append(_PAIR_PROJECTORS[(basis_a, basis_b)])
        except KeyError:
            raise DataError(
                f"unknown basis pair ({basis_a!r}, {basis_b!r}), "
                f"expected labels from {BASIS_LABELS}"
            ) from None
        counts.append(rec.counts().astype(float))
    if not projectors:
        raise DataError("dataset contains no coincidences")
    return np.concatenate(projectors), np.concatenate(counts)


def _log_likelihood(projectors: np.ndarray, counts: np.ndarray, rho: np.ndarray) -> float:
    probs = np.clip(born_probabilities(projectors, rho), _PROB_FLOOR, None)
    return float(np.sum(counts * np.log(probs)))


def _pauli_design(projectors: np.ndarray) -> np.ndarray:
    """(K, 16) coefficients a_km = tr(Pi_k sigma_m) / 4 of the Pauli products.

    rho = (1/4) sum_m c_m sigma_m with c_0 = 1 fixed by the trace, so
    p = a[:, 0] + a[:, 1:] @ c[1:]; the (K, 15) design a[:, 1:] must have
    full rank for the bases to determine the state.
    """
    coeffs = np.real(np.einsum("kij,mji->km", projectors, PAULI_PRODUCTS)) / 4.0
    if np.linalg.matrix_rank(coeffs[:, 1:]) < 15:
        raise DataError(
            "tomography design matrix is rank-deficient; the basis set does "
            "not determine the state"
        )
    return coeffs


def _linear_states(projectors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Least-squares Hermitian, trace-one matrices, one per row of a (B, K) table.

    Each row's counts become per-basis frequencies (bases are consecutive
    blocks of four cells); all rows are solved by one ``lstsq`` call.
    """
    totals = counts.reshape(len(counts), -1, 4).sum(axis=2)
    freqs = counts / np.repeat(totals, 4, axis=1)
    coeffs = _pauli_design(projectors)
    c, *_ = np.linalg.lstsq(coeffs[:, 1:], (freqs - coeffs[:, 0]).T, rcond=None)
    c = np.vstack([np.ones(len(counts)), c])
    return np.einsum("mb,mij->bij", c, PAULI_PRODUCTS) / 4.0


def linear_inversion(dataset: TomographyDataset) -> ReconstructionResult:
    """Direct least-squares solution of the tomography equations.

    Exact frequencies reproduce the state to numerical precision; finite
    counts may give a non-positive matrix, reported via min_eigenvalue and
    psd_ok rather than corrected.
    """
    projectors, counts = _design(dataset, require_counts=False)
    mat = _linear_states(projectors, counts[None])[0]
    return ReconstructionResult(
        rho=DensityMatrix(mat),
        log_likelihood=_log_likelihood(projectors, counts, mat),
        iterations=0,
        converged=True,
        method="linear",
        min_eigenvalue=float(np.min(np.linalg.eigvalsh(mat))),
        certificate_gap=None,
    )


def project_psd(mat: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Clip negative eigenvalues and renormalize to unit trace.

    Works on one matrix or on a stack of them (last two axes).
    """
    sym = 0.5 * (mat + np.swapaxes(mat.conj(), -1, -2))
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, floor, None)
    out = (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    return out / np.trace(out, axis1=-2, axis2=-1)[..., None, None]


def _newton_step(design, outer, weights, probs, rho):
    """Newton step Delta_rho of each row, and C^-1 Delta_rho C^-dag with rho = C C^dag.

    weights = n/p; ``outer`` holds a_k a_k^T for the rows a_k of ``design``,
    so the Hessian A^T diag(n/p^2) A is one matrix product.
    """
    hessian = ((weights / probs)[:, None, :] @ outer).reshape(-1, 15, 15)
    delta = np.linalg.solve(hessian, (weights @ design)[..., None])[..., 0]
    d_rho = (delta @ _PAULI_STEPS).reshape(-1, 4, 4)
    whiten = np.linalg.inv(np.linalg.cholesky(rho))
    return d_rho, whiten @ d_rho @ np.swapaxes(whiten.conj(), -1, -2)


def _fit(projectors: np.ndarray, counts: np.ndarray, max_iter: int):
    """Batched maximum-likelihood fit of every row of a (B, K) count table.

    Starts each row from the PSD projection of its linear-inversion
    estimate, lightly mixed with the identity so that every probability is
    positive.  Every step of a row is a Newton step or an RrhoR step;
    max_iter caps both kinds together.

    Newton works in the 15 Pauli coordinates c of rho, where
    p = a_0 + A c with A from ``_pauli_design``.  It solves
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

    The other rows step rho <- R rho R / tr(R rho R) with
    R = sum_k (n_k / p_k) Pi_k (cells with n_k = 0 add nothing), which
    keeps rho positive and trace-one (Rehacek et al., PRA 75, 042108
    (2007)).  The log-likelihood is concave, so gap = lambda_max(R) - N
    bounds how far a row's log-likelihood is below the maximum; a row stops
    once gap <= GAP_TOL * N, or after max_iter steps.  Returns rho
    (B, 4, 4), the steps taken and the final gap of each row.
    """
    design = _pauli_design(projectors)[:, 1:]
    outer = (design[:, :, None] * design[:, None, :]).reshape(len(design), -1)
    rho = 0.999999 * project_psd(_linear_states(projectors, counts)) + 1e-6 * np.eye(4) / 4.0
    flat = flatten_real(projectors)
    tol = GAP_TOL * counts.sum(axis=1)
    iterations = np.zeros(len(counts), dtype=int)
    gap = np.empty(len(counts))
    active = np.arange(len(counts))
    newton = (counts > 0).all(axis=1)
    last_alpha = np.zeros(len(counts))
    for step in range(max_iter + 1):
        n = counts[active]
        probs = born_probabilities(projectors, rho[active])
        weights = np.divide(n, probs, out=np.zeros_like(n), where=n > 0)
        r_op = (weights @ flat).view(complex).reshape(-1, 4, 4)
        in_newton = newton[active]
        newton_step = in_newton.any()
        if newton_step:
            d_rho, whitened = _newton_step(
                design, outer, weights[in_newton], probs[in_newton], rho[active[in_newton]]
            )
            eigs = np.linalg.eigvalsh(np.concatenate([r_op, whitened]))
        else:
            eigs = np.linalg.eigvalsh(r_op)
        gap[active] = eigs[: len(active), -1] - n.sum(axis=1)
        iterations[active] = step
        keep = gap[active] > tol[active]
        if step == max_iter or not keep.any():
            break
        by_rrr = keep
        if newton_step:
            stepping = keep[in_newton]
            rows = active[in_newton][stepping]
            alpha = _TO_BOUNDARY / np.maximum(-eigs[len(active):, 0][stepping], _TO_BOUNDARY)
            rho[rows] += alpha[:, None, None] * d_rho[stepping]
            newton[rows] = (alpha == 1.0) | (alpha > last_alpha[rows])
            last_alpha[rows] = alpha
            by_rrr = keep & ~in_newton
        rows, r_op = active[by_rrr], r_op[by_rrr]
        new = r_op @ rho[rows] @ r_op
        rho[rows] = new / np.einsum("bii->b", new).real[:, None, None]
        active = active[keep]
    return rho, iterations, gap


def _require_full_coverage(dataset: TomographyDataset) -> None:
    pairs = dataset.basis_pairs()
    missing = [p for p in _CANONICAL_PAIRS if p not in pairs]
    if missing:
        raise DataError(
            f"dataset does not cover all nine basis pairs; missing {missing}"
        )


def mle_reconstruct(
    dataset: TomographyDataset, max_iter: int = MAX_ITER
) -> ReconstructionResult:
    """Maximum-likelihood reconstruction over physical density matrices.

    Requires all nine basis pairs with nonzero coincidences.  Runs the
    Newton and RrhoR fit of ``_fit`` for at most ``max_iter`` steps in all;
    ``certificate_gap`` is the bound lambda_max(R) - N on the
    log-likelihood still missing, and ``converged`` means it is at most
    GAP_TOL * N.
    """
    _require_full_coverage(dataset)
    projectors, counts = _design(dataset, require_counts=True)
    rho, iterations, gap = _fit(projectors, counts[None], max_iter)
    mat = rho[0]
    return ReconstructionResult(
        rho=DensityMatrix(mat),
        log_likelihood=_log_likelihood(projectors, counts, mat),
        iterations=int(iterations[0]),
        converged=bool(gap[0] <= GAP_TOL * counts.sum()),
        method="mle",
        min_eigenvalue=float(np.min(np.linalg.eigvalsh(mat))),
        certificate_gap=float(gap[0]),
    )


def exact_dataset(rho, total_per_basis: float = 1.0) -> TomographyDataset:
    """Dataset whose cells are exact Born probabilities times a scale.

    Serves as the noiseless oracle input for estimator round-trip checks.
    """
    mat = require_valid_density(rho)
    records = []
    for pair, projectors in _PAIR_PROJECTORS.items():
        cells = [max(0.0, total_per_basis * float(p)) for p in born_probabilities(projectors, mat)]
        records.append((*pair, CountRecord(MeasurementSetting(0.0, 0.0), *cells)))
    return TomographyDataset(records=tuple(records))


@dataclass(frozen=True)
class BootstrapErrors:
    """Bootstrap standard deviations of the derived entanglement figures."""

    sigma_fidelity: float
    sigma_concurrence: float
    sigma_eof: float
    sigma_log_negativity: float
    sigma_s_max: float
    n_resamples: int
    n_failed: int


def bootstrap_errors(dataset: TomographyDataset, n_resamples: int, seed: int) -> BootstrapErrors:
    """Multinomial bootstrap over per-basis counts, re-fitting with MLE.

    Resample r redraws every basis's counts from its observed frequencies
    on its own random substream keyed by r, so results do not depend on
    evaluation order.  All resamples form one count table that a single
    batched ``_fit`` reconstructs.  The resamples whose fit meets the
    certificate tolerance and is a valid density matrix are kept, and one
    ``report`` call evaluates the figures on all of them; every other
    resample is counted in ``n_failed``.
    """
    if n_resamples < 100:
        raise DataError(f"need at least 100 resamples, got {n_resamples}")
    _require_full_coverage(dataset)
    projectors, counts = _design(dataset, require_counts=True)
    cells = counts.reshape(-1, 4)
    probs = cells / cells.sum(axis=1, keepdims=True)
    totals = np.rint(cells.sum(axis=1)).astype(np.int64)
    table = np.array(
        [make_stream(seed, (r,)).multinomial(totals, probs) for r in range(n_resamples)],
        dtype=float,
    ).reshape(n_resamples, -1)
    rho, _, gap = _fit(projectors, table, MAX_ITER)
    kept = rho[(gap <= GAP_TOL * table.sum(axis=1)) & validate_density(rho).passed]
    if len(kept) < 2:
        raise DataError("too few successful bootstrap resamples to estimate errors")
    sigma = {name: float(np.std(v, ddof=1)) for name, v in asdict(report(kept)).items()}
    return BootstrapErrors(
        sigma_fidelity=sigma["fidelity_singlet"],
        sigma_concurrence=sigma["concurrence"],
        sigma_eof=sigma["eof"],
        sigma_log_negativity=sigma["log_negativity"],
        sigma_s_max=sigma["s_max"],
        n_resamples=n_resamples,
        n_failed=n_resamples - len(kept),
    )
