"""Two-photon state reconstruction from nine-basis coincidence counts.

Two estimators are provided.  Linear inversion solves the measurement
equations tr(rho Pi_k) = f_k for the 16 real parameters of a Hermitian,
trace-one matrix; it recovers the state exactly from exact frequencies but
can leave the physical set on noisy data (flagged, never hidden).  The
maximum-likelihood estimator parameterizes rho = T^dag T / tr(T^dag T) with
a lower-triangular T (4 real diagonal + 6 complex off-diagonal entries), so
every iterate is Hermitian, positive semidefinite and trace-one by
construction, and maximizes the multinomial log-likelihood with an analytic
gradient.

Both ports of each analyzer are used, so every basis pair contributes four
projectors (36 total).  Error bars on derived quantities come from
multinomial bootstrap resampling of the per-basis counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .bell import max_chsh_from_state
from .detection import (
    BASIS_LABELS,
    CountRecord,
    MeasurementSetting,
    TomographyDataset,
    basis_projectors,
)
from .errors import DataError, ValidationError
from .measures import (
    concurrence,
    entanglement_of_formation,
    fidelity_singlet,
    log_negativity,
)
from .qcore import PAULI_PRODUCTS, DensityMatrix, require_valid_density, tensor
from .rng import make_stream

_PROB_FLOOR = 1e-12
_CANONICAL_PAIRS = tuple(product(BASIS_LABELS, BASIS_LABELS))

# Outcome order within a basis pair matches CountRecord cells.
_OUTCOME_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed state plus estimator diagnostics."""

    rho: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    method: str
    min_eigenvalue: float

    @property
    def psd_ok(self) -> bool:
        return self.min_eigenvalue >= -1e-9


def _pair_projectors(basis_a: str, basis_b: str) -> np.ndarray:
    pa = basis_projectors(basis_a)
    pb = basis_projectors(basis_b)
    block = np.array([tensor(pa[i], pb[j]) for i, j in _OUTCOME_ORDER])
    block.setflags(write=False)
    return block


# (4, 4, 4) port-projector block of each of the nine basis pairs, built once.
_PAIR_PROJECTORS = {pair: _pair_projectors(*pair) for pair in _CANONICAL_PAIRS}


def _design(dataset: TomographyDataset, require_counts: bool):
    """Flatten a dataset into projectors, counts, and per-basis frequencies.

    Bases with zero total counts are skipped (the caller decides whether
    that is acceptable).
    """
    projectors: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    freqs: list[np.ndarray] = []
    for basis_a, basis_b, rec in dataset.records:
        total = rec.total
        if total <= 0:
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
        cells = rec.counts().astype(float)
        counts.append(cells)
        freqs.append(cells / float(total))
    if not projectors:
        raise DataError("dataset contains no coincidences")
    return np.concatenate(projectors), np.concatenate(counts), np.concatenate(freqs)


def linear_inversion(dataset: TomographyDataset) -> ReconstructionResult:
    """Direct least-squares solution of the tomography equations.

    Exact frequencies reproduce the state to numerical precision; finite
    counts may give a non-positive matrix, reported via min_eigenvalue and
    psd_ok rather than corrected.
    """
    projectors, counts, freqs = _design(dataset, require_counts=False)
    # rho = (1/4) sum_mn c_mn sigma_m x sigma_n with c_00 = 1 fixed by trace.
    coeffs = np.real(np.einsum("kij,mji->km", projectors, PAULI_PRODUCTS)) / 4.0
    rhs = freqs - coeffs[:, 0]
    design = coeffs[:, 1:]
    if np.linalg.matrix_rank(design) < 15:
        raise DataError(
            "tomography design matrix is rank-deficient; the basis set does "
            "not determine the state"
        )
    c, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    mat = np.einsum("m,mij->ij", np.append(1.0, c), PAULI_PRODUCTS) / 4.0
    min_eig = float(np.min(np.linalg.eigvalsh(mat)))
    probs = np.clip(np.real(np.einsum("kij,ji->k", projectors, mat)), _PROB_FLOOR, None)
    log_like = float(np.sum(counts * np.log(probs)))
    return ReconstructionResult(
        rho=DensityMatrix(mat),
        log_likelihood=log_like,
        iterations=0,
        converged=True,
        method="linear",
        min_eigenvalue=min_eig,
    )


def project_psd(mat: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Clip negative eigenvalues and renormalize to unit trace."""
    sym = 0.5 * (mat + mat.conj().T)
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, floor, None)
    out = (v * w) @ v.conj().T
    return out / np.trace(out)


# Lower-triangular parameter layout: 4 real diagonal entries followed by
# (re, im) pairs for the strictly-lower entries in row-major order.
_LOWER_INDICES = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))


def _t_from_params(t: np.ndarray) -> np.ndarray:
    mat = np.zeros((4, 4), dtype=complex)
    mat[np.diag_indices(4)] = t[:4]
    for k, (r, c) in enumerate(_LOWER_INDICES):
        mat[r, c] = t[4 + 2 * k] + 1j * t[5 + 2 * k]
    return mat


def _params_from_t(mat: np.ndarray) -> np.ndarray:
    t = np.zeros(16)
    t[:4] = np.real(np.diag(mat))
    for k, (r, c) in enumerate(_LOWER_INDICES):
        t[4 + 2 * k] = mat[r, c].real
        t[5 + 2 * k] = mat[r, c].imag
    return t


def _lower_factor(rho: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dag T = rho (for positive-definite rho)."""
    flip = np.eye(4)[::-1]
    chol = np.linalg.cholesky(flip @ rho @ flip)
    upper = flip @ chol @ flip
    return upper.conj().T


def _neg_log_likelihood_and_grad(t: np.ndarray, projectors: np.ndarray, counts: np.ndarray):
    tmat = _t_from_params(t)
    gram = tmat.conj().T @ tmat
    norm = float(np.real(np.trace(gram)))
    rho = gram / norm
    probs = np.real(np.einsum("kij,ji->k", projectors, rho))
    clipped = probs < _PROB_FLOOR
    safe = np.where(clipped, _PROB_FLOOR, probs)
    value = -float(np.sum(counts * np.log(safe)))

    weights = np.where(clipped, 0.0, counts / safe)
    g_op = np.einsum("k,kij->ij", weights, projectors)
    scale = float(np.real(np.trace(rho @ g_op)))
    w_mat = ((g_op - scale * np.eye(4)) @ tmat.conj().T) / norm
    grad = np.zeros(16)
    grad[:4] = 2.0 * np.real(np.diag(w_mat))
    for k, (r, c) in enumerate(_LOWER_INDICES):
        grad[4 + 2 * k] = 2.0 * w_mat[c, r].real
        grad[5 + 2 * k] = -2.0 * w_mat[c, r].imag
    return value, -grad


def _require_full_coverage(dataset: TomographyDataset) -> None:
    pairs = dataset.basis_pairs()
    missing = [p for p in _CANONICAL_PAIRS if p not in pairs]
    if missing:
        raise DataError(
            f"dataset does not cover all nine basis pairs; missing {missing}"
        )


def mle_reconstruct(
    dataset: TomographyDataset,
    max_iter: int = 10_000,
    gtol: float = 1e-8,
    ftol: float = 1e-12,
) -> ReconstructionResult:
    """Maximum-likelihood reconstruction over physical density matrices.

    Requires all nine basis pairs with nonzero coincidences.  Starts from
    the PSD projection of the linear-inversion estimate and ascends the
    multinomial log-likelihood until the gradient norm or the relative
    likelihood change drops below tolerance; if the iteration cap is hit
    the best iterate is returned with converged=False.
    """
    _require_full_coverage(dataset)
    projectors, counts, _ = _design(dataset, require_counts=True)

    start = project_psd(linear_inversion(dataset).rho.matrix)
    start = 0.999999 * start + 1e-6 * np.eye(4) / 4.0  # keep the factor full-rank
    t0 = _params_from_t(_lower_factor(start))

    from scipy.optimize import minimize  # lazy: importing it costs ~0.5 s

    res = minimize(
        _neg_log_likelihood_and_grad,
        t0,
        args=(projectors, counts),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "maxfun": 10 * max_iter, "gtol": gtol, "ftol": ftol},
    )
    tmat = _t_from_params(res.x)
    gram = tmat.conj().T @ tmat
    rho = gram / np.real(np.trace(gram))
    return ReconstructionResult(
        rho=DensityMatrix(rho),
        log_likelihood=-float(res.fun),
        iterations=int(res.nit),
        converged=bool(res.success),
        method="mle",
        min_eigenvalue=float(np.min(np.linalg.eigvalsh(rho))),
    )


def exact_dataset(rho, total_per_basis: float = 1.0) -> TomographyDataset:
    """Dataset whose cells are exact Born probabilities times a scale.

    Serves as the noiseless oracle input for estimator round-trip checks.
    """
    mat = require_valid_density(rho)
    records = []
    for pair, projectors in _PAIR_PROJECTORS.items():
        probs = np.real(np.einsum("kij,ji->k", projectors, mat))
        cells = [max(0.0, total_per_basis * float(p)) for p in probs]
        rec = CountRecord(
            setting=MeasurementSetting(0.0, 0.0),
            n_uu=cells[0],
            n_ud=cells[1],
            n_du=cells[2],
            n_dd=cells[3],
        )
        records.append((*pair, rec))
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

    Each resample runs on its own random substream keyed by the resample
    index, so results do not depend on evaluation order.  Resamples whose
    reconstruction fails or does not converge, or whose S_max certificate
    fails, are skipped and counted in ``n_failed``.
    """
    if n_resamples < 100:
        raise DataError(f"need at least 100 resamples, got {n_resamples}")
    _require_full_coverage(dataset)

    totals = []
    prob_rows = []
    for _, _, rec in dataset.records:
        total = int(round(rec.total))
        if total <= 0:
            raise DataError("cannot bootstrap a basis with zero coincidences")
        totals.append(total)
        prob_rows.append(rec.counts().astype(float) / float(rec.total))

    samples: list[tuple[float, float, float, float, float]] = []
    n_failed = 0
    for r in range(n_resamples):
        rng = make_stream(seed, (r,))
        records = []
        for (basis_a, basis_b, rec), total, probs in zip(dataset.records, totals, prob_rows):
            cells = rng.multinomial(total, probs)
            records.append(
                (
                    basis_a,
                    basis_b,
                    CountRecord(
                        setting=rec.setting,
                        n_uu=int(cells[0]),
                        n_ud=int(cells[1]),
                        n_du=int(cells[2]),
                        n_dd=int(cells[3]),
                        n_discarded=rec.n_discarded,
                    ),
                )
            )
        try:
            fit = mle_reconstruct(TomographyDataset(records=tuple(records)))
            if not fit.converged:
                n_failed += 1
                continue
            rho = fit.rho
            _, e_n = log_negativity(rho)
            samples.append(
                (
                    fidelity_singlet(rho),
                    concurrence(rho),
                    entanglement_of_formation(rho),
                    e_n,
                    max_chsh_from_state(rho).s_value,
                )
            )
        except (DataError, ValidationError):
            n_failed += 1
    if len(samples) < 2:
        raise DataError("too few successful bootstrap resamples to estimate errors")
    arr = np.array(samples)
    sig = arr.std(axis=0, ddof=1)
    return BootstrapErrors(
        sigma_fidelity=float(sig[0]),
        sigma_concurrence=float(sig[1]),
        sigma_eof=float(sig[2]),
        sigma_log_negativity=float(sig[3]),
        sigma_s_max=float(sig[4]),
        n_resamples=n_resamples,
        n_failed=n_failed,
    )
