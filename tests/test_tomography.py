"""State reconstruction: linear inversion, MLE, and bootstrap errors."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ces import tomography
from ces.config import load_config
from ces.detection import (
    BASIS_PAIRS,
    DetectorParams,
    simulate_tomography_dataset,
)
from ces.errors import DataError
from ces.fileio import read_series_csv
from ces.measures import fidelity_singlet, log_negativity
from ces.pipeline import run_sweep
from ces.protocol import final_state
from ces.qcore import PAULI_PRODUCTS, born_probabilities, validate_density
from ces.rng import derive_seed, make_stream
from ces.tomography import (
    GAP_TOL,
    PROJECTORS,
    _linear_states,
    bootstrap_errors,
    linear_inversion,
    mle_reconstruct,
    mle_reconstruct_batch,
    project_psd,
)
from conftest import (
    CONFIGS,
    HUGE_CELL_TABLE,
    KET_H,
    KET_V,
    basis_projectors,
    dephased_singlet,
    exact_table,
    keyed_stream,
    pair_projectors,
    random_density,
    random_unitary,
    singlet_dm,
    trace_distance,
    werner,
    zero_cell_table,
)

IDEAL = DetectorParams()
SWEEP_GRID_US = (0.8, 2.0, 4.0, 6.0, 8.0, 10.0)


# The former maximum-likelihood fit, kept as the oracle for the numpy fit:
# rho = T^dag T / tr(T^dag T) with a lower-triangular T, maximized by scipy
# L-BFGS with an analytic gradient from the same start.

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
    clipped = probs < 1e-12
    safe = np.where(clipped, 1e-12, probs)
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


def lbfgs_fit(projectors, counts, max_iter=10_000, gtol=1e-8, ftol=1e-12):
    """Oracle MLE: returns (rho, log_likelihood, converged)."""
    from scipy.optimize import minimize

    start = project_psd(_linear_states(counts[None])[0])
    start = 0.999999 * start + 1e-6 * np.eye(4) / 4.0  # keep the factor full-rank
    res = minimize(
        _neg_log_likelihood_and_grad,
        _params_from_t(_lower_factor(start)),
        args=(projectors, counts),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "maxfun": 10 * max_iter, "gtol": gtol, "ftol": ftol},
    )
    tmat = _t_from_params(res.x)
    gram = tmat.conj().T @ tmat
    return gram / np.real(np.trace(gram)), -float(res.fun), bool(res.success)


def log_likelihood(projectors, counts, rho) -> float:
    probs = np.real(np.einsum("kij,ji->k", projectors, rho))
    return float(np.sum(counts[counts > 0] * np.log(probs[counts > 0])))


def recomputed_gap(projectors, counts, rho) -> float:
    """lambda_max(sum_k n_k Pi_k / p_k) - N, from the fitted state alone."""
    probs = np.real(np.einsum("kij,ji->k", projectors, rho))
    used = counts > 0
    r_op = np.einsum("k,kij->ij", counts[used] / probs[used], projectors[used])
    return float(np.linalg.eigvalsh(r_op)[-1] - counts.sum())


def columns(counts) -> np.ndarray:
    """A (9, 4) count table as the (36,) float row of the columns of PROJECTORS."""
    return np.asarray(counts, dtype=float).ravel()


def per_resample_keyed_row(counts: np.ndarray, seed: int, r: int) -> np.ndarray:
    """Resample r of a (9, 4) count table drawn on its own stream
    ``keyed_stream(seed, (r,))``, nine basis draws in pair order: fixed
    regression data from the bootstrap's former keying, not what
    ``bootstrap_errors`` draws now."""
    rng = keyed_stream(seed, (r,))
    draws = [rng.multinomial(int(row.sum()), row / row.sum()) for row in counts]
    return np.concatenate(draws).astype(float)


@pytest.fixture(scope="module")
def calibrated_bootstrap():
    """A bootstrap of the calibrated tomography run's count table, with the
    batched fit's resample table and result captured on the way."""
    cfg = load_config(CONFIGS / "calibrated.json")
    counts = simulate_tomography_dataset(
        final_state(cfg.noise, cfg.dt_us), cfg.n_sequences, cfg.detector,
        derive_seed(cfg.seed, 1000),
    ).counts
    captured = {}
    real_fit = tomography._fit

    def spy(counts, anchor=None):
        result = real_fit(counts, anchor)
        captured.update(table=counts, anchor=anchor, result=result)
        return result

    seed = derive_seed(cfg.seed, 2000)
    tomography._fit = spy
    try:
        errs = bootstrap_errors(counts, mle_reconstruct(counts).rho, 100, seed)
    finally:
        tomography._fit = real_fit
    return counts, seed, errs, captured


@pytest.fixture(scope="module")
def boundary_table():
    """Count tables of 12 random rank-1 and 12 random rank-2 states, one
    multinomial draw per basis pair at 200 to 200 000 counts per basis
    (log-uniform): maximum-likelihood optima on the PSD boundary."""
    rng = np.random.default_rng(20261019)
    rows = []
    for rank in (1, 2):
        for _ in range(12):
            probs = born_probabilities(PROJECTORS, random_density(rng, 4, rank=rank))
            total = int(np.exp(rng.uniform(np.log(200), np.log(200_000))))
            cells = np.clip(probs, 0.0, None).reshape(9, 4)
            rows.append(np.concatenate([rng.multinomial(total, p / p.sum()) for p in cells]))
    return np.array(rows, dtype=float)


@pytest.fixture(scope="module")
def near_pure_werner():
    """The Werner state with p_white 0.01 (F = 0.9925) at 500 000 sequences
    per basis pair and eta_det 0.2: its optimum is on the boundary."""
    dataset = simulate_tomography_dataset(werner(0.99), 500_000, DetectorParams(eta_det=0.2), 1)
    return columns(dataset.counts)


@pytest.fixture(scope="module")
def sweep_tables():
    cfg = load_config(CONFIGS / "sweep.json")
    return [
        simulate_tomography_dataset(
            final_state(cfg.noise, dt), cfg.n_sequences, cfg.detector,
            derive_seed(cfg.seed, 3000 + i),
        ).counts
        for i, dt in enumerate(SWEEP_GRID_US)
    ]


class TestTableLayout:
    def test_projectors_are_the_nine_pairs_in_order(self):
        # Against P_i x Q_j of the basis kets, cells (uu, ud, du, dd) of each
        # of the BASIS_PAIRS in order; the kets carry their own rounding.
        oracle = [pair_projectors(*map(basis_projectors, pair)) for pair in BASIS_PAIRS]
        assert not PROJECTORS.flags.writeable
        np.testing.assert_allclose(PROJECTORS, np.concatenate(oracle), rtol=0, atol=1e-15)

    def test_design_coefficients_are_exactly_0_or_a_quarter(self):
        assert set(tomography._PAULI_COEFFS.ravel()) == {-0.25, 0.0, 0.25}

    def test_projector_entries_are_multiples_of_a_quarter(self):
        for part in (PROJECTORS.real, PROJECTORS.imag):
            np.testing.assert_array_equal(4.0 * part, np.rint(4.0 * part))

    def test_each_pair_sums_exactly_to_the_identity(self):
        for block in PROJECTORS.reshape(9, 4, 4, 4):
            np.testing.assert_array_equal(block.sum(axis=0), np.eye(4))

    def test_design_determines_the_state(self):
        # The nine pairs determine every two-qubit state.
        assert tomography._DESIGN.shape == (36, 15)
        assert np.linalg.matrix_rank(tomography._DESIGN) == 15
        # Linear inversion is a fixed map because the Gram matrix of the
        # Pauli design, identity column included, is exactly diagonal.
        gram = tomography._PAULI_COEFFS.T @ tomography._PAULI_COEFFS
        np.testing.assert_array_equal(gram, np.diag(np.diag(gram)))
        assert set(np.diag(gram)) == {0.25, 0.75, 2.25}


class TestTableCheck:
    ESTIMATORS = {
        "linear": linear_inversion,
        "mle": mle_reconstruct,
        "batch": lambda counts: mle_reconstruct_batch([exact_table(singlet_dm()), counts]),
        "bootstrap": lambda counts: bootstrap_errors(counts, dephased_singlet(0.8), 100, seed=1),
    }

    @pytest.mark.parametrize("estimator", ESTIMATORS.values(), ids=ESTIMATORS.keys())
    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda t: t[:8], r"expected \(9, 4\) count tables"),
            (lambda t: t.T, r"expected \(9, 4\) count tables"),
            (lambda t: np.where(t == t.max(), np.nan, t), "finite and >= 0"),
            (lambda t: np.where(t == t.max(), np.inf, t), "finite and >= 0"),
            (lambda t: np.where(t == t.max(), -1.0, t), "finite and >= 0"),
            (lambda t: np.where(np.arange(9)[:, None] == 7, 0.0, t),
             r"basis pair \('RL', 'DA'\) has zero coincidences"),
            # A table's total is at most 2**48: the certificate
            # lambda_max(R) - N is quantised to ulp(N), and near 2**53 the MLE
            # certified with negative gaps (-1e17 at a 1e20 cell) or raised
            # LinAlgError (at a 1e300 cell).
            (lambda t: t * 2.0**36, r"above a total of 2\*\*48"),
            (lambda t: t * 1e17, r"above a total of 2\*\*48"),
            (lambda t: t * 1e296, r"above a total of 2\*\*48"),
        ],
        ids=[
            "eight-pairs", "transposed", "nan", "inf", "negative", "zero-pair",
            "above-2**48", "1e20", "1e300",
        ],
    )
    def test_every_estimator_checks_its_table(self, estimator, edit, message):
        table = edit(exact_table(dephased_singlet(0.8), total_per_basis=1000.0))
        with pytest.raises(DataError, match=message):
            estimator(table)

    @pytest.mark.parametrize("estimator", ESTIMATORS.values(), ids=ESTIMATORS.keys())
    def test_a_count_of_2_53_among_2_33_is_rejected(self, estimator):
        # The pair totals stay within MAX_PAIR_RATIO, but the total is about
        # 2**53: mle_reconstruct certified this table with a gap of -2.0, a
        # negative bound only rounding can give.
        table = np.full((9, 4), 2.0**33)
        table[0, 1] = 2**53
        with pytest.raises(DataError, match=r"above a total of 2\*\*48"):
            estimator(table)

    def test_a_total_of_2_48_is_accepted(self):
        table = np.rint(exact_table(dephased_singlet(0.8), total_per_basis=2.0**48 / 9))
        table[0, 1] += 2.0**48 - table.sum()
        assert table.sum() == tomography.MAX_TOTAL
        assert linear_inversion(table).psd_ok
        fit = mle_reconstruct(table)
        assert fit.converged
        assert fit.certificate_gap <= tomography.gap_tolerance(table.sum())

    HUGE_CELLS = {"HV-HV-n_uu": (0, 0), "HV-HV-n_ud": (0, 1), "DA-DA-n_uu": (4, 0),
                  "RL-RL-n_dd": (8, 3)}

    @pytest.mark.parametrize("estimator", ["linear", "mle", "bootstrap"])
    @pytest.mark.parametrize("cell", HUGE_CELLS.values(), ids=HUGE_CELLS.keys())
    def test_pair_totals_beyond_the_ratio_are_rejected(self, estimator, cell):
        # One cell at 2**53 among 100s.  The fits of these tables stopped
        # with an infinite gap or certified with a rounding-level gap of 0,
        # and their bootstraps ran for 0.3 to 27 s.
        table = np.full((9, 4), 100.0)
        table[cell] = 2**53
        with pytest.raises(DataError, match=r"differ by more than a factor 2\*\*20"):
            self.ESTIMATORS[estimator](table)

    def test_pair_totals_at_the_ratio_are_accepted(self):
        # RL/RL holds exactly 2**20 times the 400 coincidences of each other pair.
        table = np.full((9, 4), 100.0)
        table[8, 3] = 400 * tomography.MAX_PAIR_RATIO - 300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = mle_reconstruct(table)
            errors = bootstrap_errors(table, fit.rho, 100, seed=1)
        assert fit.converged and fit.iterations <= 60
        assert errors.n_failed == 0

    def test_exact_table_is_the_born_table(self):
        rho = dephased_singlet(0.8)
        table = exact_table(rho, total_per_basis=10.0)
        assert table.shape == (9, 4) and table.dtype == float
        np.testing.assert_allclose(table.ravel(), 10.0 * born_probabilities(PROJECTORS, rho))


class TestLinearInversion:
    def test_exact_singlet(self):
        result = linear_inversion(exact_table(singlet_dm()))
        assert trace_distance(result.rho, singlet_dm()) < 1e-10
        assert result.psd_ok

    def test_exact_random_states_round_trip(self, rng):
        for _ in range(30):
            rho = random_density(rng, 4)
            result = linear_inversion(exact_table(rho))
            assert trace_distance(result.rho, rho) < 1e-10

    def test_matches_least_squares_on_unequal_pair_totals(self, rng):
        # The oracle solves the measurement equations by lstsq: the Hermitian,
        # trace-one rho whose Born probabilities are nearest the frequencies.
        for _ in range(50):
            cells = rng.integers(0, 1000, size=(9, 4)) + 1
            table = cells * rng.integers(1, 10_000, size=(9, 1))
            freqs = (table / table.sum(axis=1, keepdims=True)).ravel()
            design = tomography._PAULI_COEFFS
            c, *_ = np.linalg.lstsq(design[:, 1:], freqs - design[:, 0], rcond=None)
            oracle = np.einsum("m,mab->ab", np.concatenate([[1.0], c]), PAULI_PRODUCTS) / 4.0
            rho = linear_inversion(table).rho.matrix
            np.testing.assert_allclose(rho, oracle, rtol=0, atol=1e-12)
            assert abs(np.trace(rho) - 1.0) <= 1e-15

    def test_low_count_data_flags_psd(self):
        ds = simulate_tomography_dataset(singlet_dm(), 100, IDEAL, seed=5)
        result = linear_inversion(ds.counts)
        assert result.min_eigenvalue < 0.0
        assert not result.psd_ok

    def test_single_basis_is_rank_deficient(self):
        only_hv = exact_table(singlet_dm(), total_per_basis=1000.0)[:1]
        with pytest.raises(DataError):
            linear_inversion(only_hv)


class TestMleReconstruct:
    def test_ideal_singlet_high_counts(self):
        ds = simulate_tomography_dataset(singlet_dm(), 200_000, IDEAL, seed=17)
        fit = mle_reconstruct(ds.counts)
        assert fit.converged
        assert fidelity_singlet(fit.rho) > 0.995

    def test_output_always_physical_with_adversarial_counts(self):
        # Every basis piles all counts into one cell.
        fit = mle_reconstruct(np.tile([500, 0, 0, 0], (9, 1)))
        assert validate_density(fit.rho).passed

    def test_single_basis_rejected(self):
        only_hv = exact_table(singlet_dm(), total_per_basis=1000.0)[:1]
        with pytest.raises(DataError):
            mle_reconstruct(only_hv)

    def test_zero_count_basis_rejected(self):
        table = exact_table(singlet_dm(), total_per_basis=100.0)
        table[3] = 0.0
        with pytest.raises(DataError, match=r"basis pair \('DA', 'HV'\) has zero coincidences"):
            mle_reconstruct(table)

    def test_deterministic(self):
        ds = simulate_tomography_dataset(dephased_singlet(0.8), 20_000, IDEAL, seed=23)
        a = mle_reconstruct(ds.counts)
        b = mle_reconstruct(ds.counts)
        assert trace_distance(a.rho, b.rho) == 0.0
        assert a.log_likelihood == b.log_likelihood
        assert a.iterations == b.iterations

    def test_gradient_matches_finite_differences(self, rng):
        # Oracle for the optimizer plumbing: central finite differences.
        ds = simulate_tomography_dataset(dephased_singlet(0.7), 5_000, IDEAL, seed=29)
        projectors, counts = PROJECTORS, columns(ds.counts)
        t0 = _params_from_t(_lower_factor(project_psd(random_density(rng, 4)) + 1e-3 * np.eye(4)))
        _, grad = _neg_log_likelihood_and_grad(t0, projectors, counts)
        eps = 1e-6
        for k in range(16):
            plus = t0.copy()
            plus[k] += eps
            minus = t0.copy()
            minus[k] -= eps
            f_plus, _ = _neg_log_likelihood_and_grad(plus, projectors, counts)
            f_minus, _ = _neg_log_likelihood_and_grad(minus, projectors, counts)
            numeric = (f_plus - f_minus) / (2 * eps)
            assert grad[k] == pytest.approx(numeric, rel=1e-5, abs=1e-4)


class TestOracleEquivalence:
    def test_exact_probabilities_agree(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            ds = exact_table(rho)
            li = linear_inversion(ds)
            ml = mle_reconstruct(ds)
            assert trace_distance(ml.rho, li.rho) < 1e-6

    def test_likelihood_at_optimum_dominates_projected_linear(self):
        for seed in (31, 37, 41):
            ds = simulate_tomography_dataset(dephased_singlet(0.85), 3_000, IDEAL, seed=seed)
            projectors, counts = PROJECTORS, columns(ds.counts)

            def log_like(mat):
                probs = np.clip(np.real(np.einsum("kij,ji->k", projectors, mat)), 1e-12, None)
                return float(np.sum(counts * np.log(probs)))

            li_projected = project_psd(linear_inversion(ds.counts).rho.matrix)
            ml = mle_reconstruct(ds.counts)
            assert ml.log_likelihood >= log_like(li_projected) - 1e-9


    def test_matches_lbfgs_on_calibrated_resamples(self, calibrated_bootstrap):
        *_, captured = calibrated_bootstrap
        projectors, table = PROJECTORS, captured["table"]
        rho, _, gap = captured["result"]
        for r in range(25):
            counts = table[r]
            oracle_rho, oracle_ll, oracle_ok = lbfgs_fit(projectors, counts)
            assert oracle_ok
            assert gap[r] <= GAP_TOL * counts.sum()
            assert log_likelihood(projectors, counts, rho[r]) >= oracle_ll - GAP_TOL * counts.sum()
            assert abs(fidelity_singlet(rho[r]) - fidelity_singlet(oracle_rho)) <= 1e-5
            assert abs(log_negativity(rho[r])[0] - log_negativity(oracle_rho)[0]) <= 1e-5

    def test_matches_lbfgs_at_every_sweep_time(self, sweep_tables):
        for table in sweep_tables:
            projectors, counts = PROJECTORS, columns(table)
            fit = mle_reconstruct(table)
            oracle_rho, oracle_ll, oracle_ok = lbfgs_fit(projectors, counts)
            assert fit.converged and oracle_ok
            assert fit.log_likelihood >= oracle_ll - GAP_TOL * counts.sum()
            assert abs(fidelity_singlet(fit.rho) - fidelity_singlet(oracle_rho)) <= 1e-5
            assert abs(log_negativity(fit.rho)[0] - log_negativity(oracle_rho)[0]) <= 1e-5

    def test_matches_lbfgs_on_boundary_rows(self, boundary_table, near_pure_werner):
        table = np.vstack([boundary_table, near_pure_werner])
        rho, _, gap = tomography._fit(table)
        for counts, mat, row_gap in zip(table, rho, gap):
            oracle_rho, oracle_ll, oracle_ok = lbfgs_fit(PROJECTORS, counts)
            assert oracle_ok
            assert row_gap <= GAP_TOL * counts.sum()
            assert log_likelihood(PROJECTORS, counts, mat) >= oracle_ll - GAP_TOL * counts.sum()
            assert abs(fidelity_singlet(mat) - fidelity_singlet(oracle_rho)) <= 1e-5
            assert abs(log_negativity(mat)[0] - log_negativity(oracle_rho)[0]) <= 1e-5

    def test_certificate_holds_for_returned_states(self, calibrated_bootstrap, sweep_tables):
        *_, captured = calibrated_bootstrap
        projectors, table = PROJECTORS, captured["table"]
        rho, _, gap = captured["result"]
        assert np.all(gap <= GAP_TOL * table.sum(axis=1))
        for counts, mat in zip(table, rho):
            assert recomputed_gap(projectors, counts, mat) <= GAP_TOL * counts.sum()
        for sweep_table in sweep_tables:
            projectors, counts = PROJECTORS, columns(sweep_table)
            fit = mle_reconstruct(sweep_table)
            assert fit.converged
            gap = recomputed_gap(projectors, counts, fit.rho.matrix)
            assert gap <= GAP_TOL * counts.sum()
            assert gap == pytest.approx(fit.certificate_gap, rel=1e-6, abs=1e-9 * counts.sum())

    def test_rank_three_state_on_the_boundary(self, rng):
        for _ in range(5):
            rho = random_density(rng, 4, rank=3)
            fit = mle_reconstruct(exact_table(rho))
            assert fit.converged
            assert fit.min_eigenvalue >= -1e-9
            assert trace_distance(fit.rho, rho) < 1e-6


class TestFitPaths:
    def test_calibrated_resamples_certify_within_ten_steps(self, calibrated_bootstrap):
        # Interior optima: damped Newton finishes in a few steps.
        *_, captured = calibrated_bootstrap
        table = captured["table"]
        _, iterations, gap = captured["result"]
        assert np.all(gap <= GAP_TOL * table.sum(axis=1))
        assert iterations.max() <= 10

    def test_mixed_table_rows_match_single_fits(self, calibrated_bootstrap, sweep_tables):
        # One table through every path: calibrated resamples (Newton), low-count
        # resamples whose optimum is on the boundary (Newton cut short, then
        # boundary steps) or interior behind a boundary start (resample 84:
        # damped Newton), rank-2 sweep points with zero-count cells and an
        # adversarial row with three zero cells per basis (boundary steps from
        # the start).
        *_, captured = calibrated_bootstrap
        cfg = load_config(CONFIGS / "calibrated.json")
        low = simulate_tomography_dataset(
            final_state(cfg.noise, cfg.dt_us), 20_000, cfg.detector, derive_seed(4242, 1000)
        ).counts
        adversarial = np.tile([500.0, 0.0, 0.0, 0.0], 9)
        seed = derive_seed(4242, 2000)
        rows = [
            captured["table"][:4],
            np.array([per_resample_keyed_row(low, seed, r) for r in (0, 1, 84)]),
        ]
        for sweep_table in sweep_tables:
            rows.append(columns(sweep_table)[None])
        table = np.concatenate([*rows, adversarial[None]])
        assert np.all((table[7:] == 0).any(axis=1))

        rho, iterations, gap = tomography._fit(table)
        assert np.all(gap <= GAP_TOL * table.sum(axis=1))
        assert iterations[6] <= 10  # resample 84, whose start is on the boundary
        for r, counts in enumerate(table):
            single = tomography._fit(counts[None])
            np.testing.assert_allclose(single[0][0], rho[r], rtol=0, atol=1e-12)
            assert single[1][0] == iterations[r]

    def test_boundary_rows_certify_within_a_hundred_steps(self, boundary_table, near_pure_werner):
        for table in (boundary_table, near_pure_werner[None]):
            rho, iterations, gap = tomography._fit(table)
            assert np.all(gap <= GAP_TOL * table.sum(axis=1))
            assert iterations.max() <= 100
            assert np.all(validate_density(rho).passed)

    def test_near_pure_bootstrap_certifies_every_resample(self, near_pure_werner, monkeypatch):
        # Resample optima sit on or just inside the boundary: rows cut from
        # Newton continue with boundary steps toward interior optima too.
        captured = {}
        real_fit = tomography._fit

        def spy(counts, anchor=None):
            captured["result"] = real_fit(counts, anchor)
            return captured["result"]

        monkeypatch.setattr(tomography, "_fit", spy)
        table = near_pure_werner.reshape(9, 4)
        errs = bootstrap_errors(table, mle_reconstruct(table).rho, 100, seed=2)
        _, iterations, _ = captured["result"]
        assert errs.n_failed == 0
        assert iterations.max() <= 100

    def test_newton_steps_are_built_only_for_uncertified_rows(
        self, calibrated_bootstrap, monkeypatch
    ):
        # Every calibrated resample has an interior optimum and no zero cell,
        # so each of its steps is a Newton step: the rows handed to
        # _newton_step on pass s are exactly those not yet certified there.
        *_, captured = calibrated_bootstrap
        table = captured["table"]
        assert np.all(table > 0)
        real_step = tomography._newton_step
        sizes = []

        def counting_step(weights, probs, rho, chord=None):
            sizes.append(len(weights))
            return real_step(weights, probs, rho, chord)

        monkeypatch.setattr(tomography, "_newton_step", counting_step)
        _, iterations, gap = tomography._fit(table)
        assert np.all(gap <= GAP_TOL * table.sum(axis=1))
        assert sizes == [int((iterations > s).sum()) for s in range(iterations.max())]
        assert sum(sizes) == iterations.sum()


    @pytest.fixture(scope="class")
    def low_count_table(self):
        """Twenty tables of werner(0.9) at 150 sequences per basis pair:
        cut Newton steps, and rows with zero cells that take none."""
        datasets = [simulate_tomography_dataset(werner(0.9), 150, IDEAL, seed) for seed in range(20)]
        return np.array([columns(dataset.counts) for dataset in datasets])

    @pytest.mark.parametrize(
        "table", ["calibrated", "boundary", "near_pure", "low_count"]
    )
    def test_step_length_shortcut_matches_whitening_every_row(
        self, table, calibrated_bootstrap, boundary_table, near_pure_werner, low_count_table,
        monkeypatch,
    ):
        # _newton_step takes alpha = 1 wherever rho + Delta_rho / _TO_BOUNDARY
        # is PSD and whitens only the other rows.  The reference computes
        # alpha = min(1, _TO_BOUNDARY / -mu) from the whitened step of every
        # row; the fits must agree bit for bit.
        table = {
            "calibrated": calibrated_bootstrap[3]["table"],
            "boundary": boundary_table,
            "near_pure": near_pure_werner[None],
            "low_count": low_count_table,
        }[table]
        real_step = tomography._newton_step
        cut = []

        def whiten_every_row(weights, probs, rho, chord=None):
            d_rho, _ = real_step(weights, probs, rho, chord)
            whiten = np.linalg.inv(np.linalg.cholesky(rho))
            whitened = whiten @ d_rho @ np.swapaxes(whiten.conj(), -1, -2)
            mu = np.linalg.eigvalsh(whitened)[:, 0]
            alpha = tomography._TO_BOUNDARY / np.maximum(-mu, tomography._TO_BOUNDARY)
            cut.append(int((alpha < 1.0).sum()))
            return d_rho, alpha

        expected = tomography._fit(table)
        monkeypatch.setattr(tomography, "_newton_step", whiten_every_row)
        reference = tomography._fit(table)
        for actual, wanted in zip(expected, reference, strict=True):
            assert actual.dtype == wanted.dtype
            assert actual.tobytes() == wanted.tobytes()
        if table is low_count_table:
            assert sum(cut) > 0  # the whitening branch ran


class TestPositiveDefinite:
    def test_agrees_with_eigvalsh_on_random_hermitian_stacks(self, rng):
        g = rng.normal(size=(4000, 4, 4)) + 1j * rng.normal(size=(4000, 4, 4))
        shift = rng.uniform(0.0, 1.0, size=(4000, 1, 1)) * np.eye(4)
        stack = g @ np.swapaxes(g.conj(), 1, 2) - shift
        expected = np.linalg.eigvalsh(stack)[:, 0] > 0.0
        assert 500 < expected.sum() < 3500
        np.testing.assert_array_equal(tomography._positive_definite(stack), expected)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_agrees_where_the_smallest_eigenvalue_is_1e_12_of_the_norm(self, rng, sign):
        g = rng.normal(size=(2000, 4, 4)) + 1j * rng.normal(size=(2000, 4, 4))
        hermitian = g + np.swapaxes(g.conj(), 1, 2)
        eig = np.linalg.eigvalsh(hermitian)
        lowest = eig[:, 0] - sign * 1e-12 * (eig[:, -1] - eig[:, 0])
        stack = hermitian - lowest[:, None, None] * np.eye(4)
        smallest = np.linalg.eigvalsh(stack)[:, 0]
        assert np.all(np.sign(smallest) == sign)
        np.testing.assert_array_equal(tomography._positive_definite(stack), smallest > 0.0)

    def test_rows_holding_nan_or_inf_are_not_positive_definite(self):
        stack = np.tile(np.eye(4, dtype=complex), (6, 1, 1))
        stack[0, 0, 0] = np.nan
        stack[1, 3, 3] = np.inf
        stack[2, 0, 3] = np.inf  # upper triangle, which the pivots never read
        stack[3, 2, 1] = complex(0.0, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = tomography._positive_definite(stack)
        assert result.tolist() == [False, False, False, False, True, True]


def _config_table(name: str) -> np.ndarray:
    cfg = load_config(CONFIGS / f"{name}.json")
    return simulate_tomography_dataset(
        final_state(cfg.noise, cfg.dt_us), cfg.n_sequences, cfg.detector,
        derive_seed(cfg.seed, 1000),
    ).counts


class TestAnchoredBootstrap:
    """Resamples start at the estimate and take chord steps; the cold-start
    fit of the same resample table is the reference."""

    CASES = {
        "calibrated": lambda: _config_table("calibrated"),
        "window_study": lambda: _config_table("window_study"),
        "sweep": lambda: _config_table("sweep"),
        # Resample 74 of seed 7 oscillates under the chord, contracting by
        # about 0.99 a step: 194 steps without _CHORD_PASSES.
        "near_pure": lambda: simulate_tomography_dataset(
            werner(0.99), 500_000, DetectorParams(eta_det=0.2), 1
        ).counts,
        "low_count": lambda: simulate_tomography_dataset(werner(0.9), 150, IDEAL, 1).counts,
    }

    @pytest.fixture(scope="class", params=list(CASES))
    def both_ways(self, request):
        """(errors, resample table, (rho, iterations, gap)) of the anchored
        bootstrap at seed 7 and of the same bootstrap with cold-start fits."""
        counts = self.CASES[request.param]()
        estimate = mle_reconstruct(counts).rho
        real_fit = tomography._fit
        runs = {}
        for way in ("anchored", "cold"):
            fits = []

            def spy(table, anchor=None):
                fits.append((table, real_fit(table, anchor if way == "anchored" else None)))
                return fits[-1][1]

            tomography._fit = spy
            try:
                errs = bootstrap_errors(counts, estimate, 100, seed=7)
            finally:
                tomography._fit = real_fit
            runs[way] = (errs, *fits[0])
        return request.param, runs

    def test_every_resample_certifies_near_its_cold_fit(self, both_ways):
        _, runs = both_ways
        (errs, table, (rho, iterations, gap)), (cold_errs, _, cold) = runs["anchored"], runs["cold"]
        tol = GAP_TOL * table.sum(axis=1)
        assert np.all(gap <= tol) and np.all(cold[2] <= tol)
        assert iterations.max() <= 20
        difference = tomography._log_likelihood(table, rho) - tomography._log_likelihood(table, cold[0])
        assert np.all(np.abs(difference) <= tol)
        assert errs.n_failed == cold_errs.n_failed == 0

    def test_sigmas_match_the_cold_start_bootstrap(self, both_ways):
        # Fits on the PSD boundary stop anywhere below the tolerance, which
        # moves the near-pure figures of a resample by up to about 5e-7.
        case, runs = both_ways
        errs, cold_errs = runs["anchored"][0], runs["cold"][0]
        bound = 2e-5 if case == "near_pure" else 1e-6
        for name, value in dataclasses.asdict(errs).items():
            if name.startswith("sigma_"):
                assert value == pytest.approx(getattr(cold_errs, name), rel=bound, abs=0.0), name

    def test_resample_fits_do_not_depend_on_the_resample_count(
        self, calibrated_bootstrap, monkeypatch
    ):
        # The shared Hessian comes from the observed table, so the first 100
        # of 150 resamples are fitted as in the 100-resample bootstrap.
        counts, seed, _, captured = calibrated_bootstrap
        real_fit = tomography._fit
        results = []

        def capturing_fit(table, anchor=None):
            results.append(real_fit(table, anchor))
            return results[-1]

        monkeypatch.setattr(tomography, "_fit", capturing_fit)
        bootstrap_errors(counts, captured["anchor"][1], 150, seed)
        assert len(results) == 1
        rho, iterations, _ = results[0]
        np.testing.assert_allclose(rho[:100], captured["result"][0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(iterations[:100], captured["result"][1])


class TestNonFiniteR:
    def test_a_row_whose_probability_reaches_zero_stops_unconverged(self, monkeypatch):
        # A boundary step that lands on |HH><HH| = ones(4, 4) / 4, whose HV/HV
        # ud probability is exactly 0 under a positive count: R is not
        # finite, and the fit stops the row there, unconverged with gap inf.
        assert mle_reconstruct(zero_cell_table()).converged
        onto_hh = np.full((4, 4), 0.25, dtype=complex)
        assert born_probabilities(PROJECTORS, onto_hh)[1] == 0.0

        def step_onto_hh(counts, rho, r_op):
            return np.full(rho.shape, 0.25, dtype=complex)

        monkeypatch.setattr(tomography, "_boundary_step", step_onto_hh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = mle_reconstruct(zero_cell_table())
        assert not fit.converged
        assert fit.certificate_gap == np.inf
        assert fit.iterations == 1
        np.testing.assert_array_equal(fit.rho.matrix, onto_hh)
        assert validate_density(fit.rho).passed

    def test_a_huge_cell_keeps_the_certificate_contract(self, monkeypatch):
        # Whichever way the fit of a 1e14 cell ends, ``converged`` is the
        # certificate test and nothing warns.
        monkeypatch.setattr(tomography, "MAX_PAIR_RATIO", math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = mle_reconstruct(HUGE_CELL_TABLE)
        tolerance = tomography.gap_tolerance(HUGE_CELL_TABLE.sum())
        assert fit.converged == (fit.certificate_gap <= tolerance)
        assert validate_density(fit.rho).passed


class TestBatchedSweep:
    @pytest.mark.parametrize("seed", [4242, 7, 99])
    def test_points_match_their_own_fits(self, tmp_path, seed):
        # run_sweep fits every storage time in one batch; each point must
        # match the one-dataset fit of its own counts.
        cfg = dataclasses.replace(load_config(CONFIGS / "sweep.json"), seed=seed)
        out = run_sweep(cfg, tmp_path, dt_grid_us=SWEEP_GRID_US)
        _, values, _, _ = read_series_csv(out["series"])
        tables = [
            simulate_tomography_dataset(
                final_state(cfg.noise, dt), cfg.n_sequences, cfg.detector,
                derive_seed(seed, 3000 + i),
            ).counts
            for i, dt in enumerate(SWEEP_GRID_US)
        ]
        batch = mle_reconstruct_batch(tables)
        for i, table in enumerate(tables):
            single = mle_reconstruct(table)
            assert abs(values[i] - log_negativity(single.rho)[0]) <= 1e-12
            assert batch[i].iterations == single.iterations <= 20
            assert batch[i].converged == single.converged == out["converged"][i]

    def test_batch_takes_a_list_or_a_stack_of_tables(self, sweep_tables):
        # Record order is gone from the estimator: a table is in BASIS_PAIRS
        # order, and the reader places a recorded file's rows (test_config_cli).
        first, second = sweep_tables[:2]
        stacked = mle_reconstruct_batch(np.stack([first, second]))
        assert stacked[1].converged
        for got, want in zip(stacked, mle_reconstruct_batch([first, second]), strict=True):
            np.testing.assert_array_equal(got.rho.matrix, want.rho.matrix)
            assert got.iterations == want.iterations
            assert got.certificate_gap == want.certificate_gap
        with pytest.raises(DataError, match="no datasets"):
            mle_reconstruct_batch([])


class TestBasisCovariance:
    def test_shared_rotation_conjugates_reconstruction(self):
        # A 45-degree polarization rotation on both photons maps the nine
        # measurement bases onto themselves (HV <-> DA up to port labels,
        # RL fixed), i.e. it is a pure relabeling of the measurement set.
        # Reconstruction must then transform covariantly: fitting the
        # rotated state matches the rotated fit within the statistical
        # scatter of the two fits.
        theta = np.radians(45.0)
        ket45 = np.cos(theta) * KET_H + np.sin(theta) * KET_V
        ket135 = -np.sin(theta) * KET_H + np.cos(theta) * KET_V
        u2 = np.outer(ket45, KET_H.conj()) + np.outer(ket135, KET_V.conj())
        u = np.kron(u2, u2)

        rho = dephased_singlet(0.8)
        rotated = u @ rho @ u.conj().T
        fit_plain = mle_reconstruct(
            simulate_tomography_dataset(rho, 300_000, IDEAL, seed=43).counts
        )
        fit_rotated = mle_reconstruct(
            simulate_tomography_dataset(rotated, 300_000, IDEAL, seed=44).counts
        )
        conjugated = u @ fit_plain.rho.matrix @ u.conj().T
        assert trace_distance(fit_rotated.rho, conjugated) < 0.02

    def test_born_probabilities_covariant_under_local_rotation(self, rng):
        # Exact-level covariance: rotated state measured with rotated
        # projectors reproduces the original Born probabilities.
        from ces.qcore import tensor as kron

        rho = dephased_singlet(0.8)
        ua = random_unitary(rng, 2)
        ub = random_unitary(rng, 2)
        u = np.kron(ua, ub)
        rotated = u @ rho @ u.conj().T
        for label_a in ("HV", "DA", "RL"):
            for label_b in ("HV", "DA", "RL"):
                pa = basis_projectors(label_a)
                pb = basis_projectors(label_b)
                for i in range(2):
                    for j in range(2):
                        plain = np.trace(rho @ kron(pa[i], pb[j]))
                        rot = np.trace(
                            rotated
                            @ kron(ua @ pa[i] @ ua.conj().T, ub @ pb[j] @ ub.conj().T)
                        )
                        assert np.real(rot) == pytest.approx(np.real(plain), abs=1e-12)


class TestLowerFactor:
    def test_reconstructs_positive_definite(self, rng):
        for _ in range(10):
            rho = project_psd(random_density(rng, 4)) + 1e-6 * np.eye(4)
            rho = rho / np.trace(rho)
            t = _lower_factor(rho)
            assert np.max(np.abs(np.triu(t, 1))) == 0.0  # lower triangular
            np.testing.assert_allclose(t.conj().T @ t, rho, atol=1e-10)


class TestBootstrap:
    @pytest.fixture
    def dataset(self):
        return simulate_tomography_dataset(dephased_singlet(0.804), 30_000, IDEAL, seed=47).counts

    @pytest.fixture
    def estimate(self, dataset):
        return mle_reconstruct(dataset).rho

    def test_deterministic(self, dataset, estimate):
        a = bootstrap_errors(dataset, estimate, 100, seed=53)
        b = bootstrap_errors(dataset, estimate, 100, seed=53)
        assert a == b

    def test_resamples_above_the_maximum_are_refused_before_drawing(
        self, dataset, estimate, monkeypatch
    ):
        # 10**12 resamples would need about 40 PB; the count is refused
        # before a stream is opened or a draw allocated.
        def no_stream(seed):
            raise AssertionError("a stream was opened")

        monkeypatch.setattr(tomography, "make_stream", no_stream)
        for n in (tomography.MAX_RESAMPLES + 1, 10**12):
            with pytest.raises(DataError, match="need 100 to 10000 resamples"):
                bootstrap_errors(dataset, estimate, n, seed=53)

    def test_uncertainty_shrinks_with_counts(self):
        small = simulate_tomography_dataset(dephased_singlet(0.8), 2_000, IDEAL, seed=59)
        large = simulate_tomography_dataset(dephased_singlet(0.8), 200_000, IDEAL, seed=61)
        errs_small = bootstrap_errors(small.counts, mle_reconstruct(small.counts).rho, 100, seed=67)
        errs_large = bootstrap_errors(large.counts, mle_reconstruct(large.counts).rho, 100, seed=67)
        for name in ("sigma_fidelity", "sigma_negativity"):
            sigma_small, sigma_large = getattr(errs_small, name), getattr(errs_large, name)
            assert 0.0 < sigma_large < sigma_small, name

    def test_unconverged_fits_counted_as_failed(self, dataset, estimate, monkeypatch):
        real_fit = tomography._fit
        calls = []

        def every_fourth_unconverged(counts, anchor=None):
            calls.append(counts)
            rho, iterations, gap = real_fit(counts, anchor)
            gap[3::4] = np.inf
            return rho, iterations, gap

        monkeypatch.setattr(tomography, "_fit", every_fourth_unconverged)
        errs = bootstrap_errors(dataset, estimate, 100, seed=53)
        assert len(calls) == 1 and calls[0].shape == (100, 36)
        assert errs.n_failed == 25

    def test_invalid_fits_fail_the_validity_mask(self, dataset, estimate, monkeypatch):
        real_fit, real_report = tomography._fit, tomography.report_of_valid
        reported = []

        def every_fifth_invalid(counts, anchor=None):
            rho, iterations, gap = real_fit(counts, anchor)
            rho[4::5] *= 1.1  # trace 1.1: not a density matrix
            return rho, iterations, gap

        def recording_report(rho):
            reported.append(rho.shape)
            return real_report(rho)

        monkeypatch.setattr(tomography, "_fit", every_fifth_invalid)
        monkeypatch.setattr(tomography, "report_of_valid", recording_report)
        errs = bootstrap_errors(dataset, estimate, 100, seed=53)
        assert errs.n_failed == 20
        assert reported == [(80, 4, 4)]

    def test_resamples_are_one_sized_draw_on_the_seed_stream(self, calibrated_bootstrap):
        # Every pair of every resample comes from one multinomial call on
        # make_stream(seed), resample after resample, pairs in table order.
        counts, seed, _, captured = calibrated_bootstrap
        table = captured["table"]
        totals = counts.sum(axis=1)
        draws = make_stream(seed).multinomial(
            totals, counts / totals[:, None], size=(len(table), 9)
        )
        np.testing.assert_array_equal(table, draws.reshape(len(table), 36))

    def test_rows_do_not_depend_on_the_resample_count(self, calibrated_bootstrap, monkeypatch):
        counts, seed, _, captured = calibrated_bootstrap
        real_fit = tomography._fit
        tables = []

        def capturing_fit(counts, anchor=None):
            tables.append(counts)
            return real_fit(counts, anchor)

        monkeypatch.setattr(tomography, "_fit", capturing_fit)
        for n_resamples in (100, 150):
            bootstrap_errors(counts, captured["anchor"][1], n_resamples, seed)
        np.testing.assert_array_equal(tables[0], captured["table"])
        np.testing.assert_array_equal(tables[1][:100], tables[0])

    def test_draws_match_exact_multinomial_moments(self, monkeypatch):
        # 4000 resamples of a small dataset, checked against the exact
        # moments of Multinomial(N_i, p_i).  Bands are 5 sigma; the variance
        # band is the chi-square quantile (Wilson-Hilferty) at the degrees
        # of freedom that match the binomial fourth moment.
        n_resamples = 4000
        cells = np.array([[3 + i, 10 + 2 * i, 25 - i, 6 + 3 * i] for i in range(9)], float)
        tables = []

        def mixed_state_fit(counts, anchor=None):
            # The draw is under test, not the fit: every row is I/4, certified.
            tables.append(counts)
            rho = np.tile(np.eye(4, dtype=complex) / 4.0, (len(counts), 1, 1))
            return rho, np.zeros(len(counts), dtype=int), np.zeros(len(counts))

        monkeypatch.setattr(tomography, "_fit", mixed_state_fit)
        bootstrap_errors(cells, np.eye(4) / 4.0, n_resamples, seed=79)
        (table,) = tables
        assert table.shape == (n_resamples, 36)
        totals = cells.sum(axis=1)
        assert np.all(table.reshape(-1, 9, 4).sum(axis=2) == totals)

        n = np.repeat(totals, 4)
        p = (cells / totals[:, None]).ravel()
        var = n * p * (1.0 - p)
        mean_z = (table.mean(axis=0) - n * p) / np.sqrt(var / n_resamples)
        assert np.all(np.abs(mean_z) <= 5.0)

        mu4 = var * (1.0 + 3.0 * (n - 2.0) * p * (1.0 - p))
        r = n_resamples
        var_of_s2 = mu4 / r - var**2 * (r - 3.0) / (r * (r - 1.0))
        dof = 2.0 * var**2 / var_of_s2
        spread = np.sqrt(2.0 / (9.0 * dof))
        low, high = ((1.0 - 2.0 / (9.0 * dof) + z * spread) ** 3 for z in (-5.0, 5.0))
        ratio = table.var(axis=0, ddof=1) / var
        assert np.all((low <= ratio) & (ratio <= high))

        corr = np.corrcoef(table, rowvar=False)
        other_pair = np.repeat(np.arange(9), 4)[:, None] != np.repeat(np.arange(9), 4)[None, :]
        assert np.all(np.abs(corr[other_pair]) <= 5.0 / np.sqrt(n_resamples))

    def test_batch_matches_single_fits(self, calibrated_bootstrap):
        # Resample r's anchored fit is the same alone as in the batch: the
        # shared Hessian comes from the anchor, never from the other rows.
        *_, captured = calibrated_bootstrap
        rho, iterations, _ = captured["result"]
        for r in (0, 1, 57, 99):
            single = tomography._fit(captured["table"][r : r + 1], captured["anchor"])
            np.testing.assert_allclose(single[0][0], rho[r], rtol=0, atol=1e-12)
            assert single[1][0] == iterations[r]

    def test_too_few_resamples_rejected(self, dataset):
        with pytest.raises(DataError):
            bootstrap_errors(dataset, np.eye(4) / 4.0, 99, seed=1)

    def test_sigma_scale_matches_published_error_bar(self):
        # ~550 coincidences per basis reproduces the quoted 0.009 fidelity
        # error within a factor of two.
        ds = simulate_tomography_dataset(
            dephased_singlet(0.804), 1_100, IDEAL, seed=71
        )
        errs = bootstrap_errors(ds.counts, mle_reconstruct(ds.counts).rho, 150, seed=73)
        assert 0.0045 < errs.sigma_fidelity < 0.018
