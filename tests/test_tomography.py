"""State reconstruction: linear inversion, MLE, and bootstrap errors."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from ces import tomography
from ces.config import load_config
from ces.detection import (
    CountRecord,
    DetectorParams,
    MeasurementSetting,
    TomographyDataset,
    simulate_tomography_dataset,
)
from ces.errors import DataError
from ces.measures import fidelity_singlet, log_negativity
from ces.protocol import final_state
from ces.qcore import trace_distance, validate_density
from ces.rng import derive_seed, make_stream
from ces.tomography import (
    GAP_TOL,
    MAX_ITER,
    _design,
    _linear_states,
    bootstrap_errors,
    exact_dataset,
    linear_inversion,
    mle_reconstruct,
    project_psd,
)
from conftest import dephased_singlet, random_density, random_unitary, singlet_dm

IDEAL = DetectorParams()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP_GRID_US = (0.8, 2.0, 4.0, 6.0, 8.0, 10.0)


# The former maximum-likelihood fit, kept as the oracle for the RrhoR fit:
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

    start = project_psd(_linear_states(projectors, counts[None])[0])
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


def dataset_from_row(template: TomographyDataset, row: np.ndarray) -> TomographyDataset:
    cells = row.reshape(-1, 4).astype(int)
    return TomographyDataset(
        records=tuple(
            (a, b, CountRecord(rec.setting, *(int(x) for x in c), n_discarded=rec.n_discarded))
            for (a, b, rec), c in zip(template.records, cells)
        )
    )


def resample(dataset: TomographyDataset, seed: int, r: int) -> np.ndarray:
    """Row r of the count table that ``bootstrap_errors(dataset, _, seed)`` fits."""
    rng = make_stream(seed, (r,))
    draws = [rng.multinomial(int(rec.total), rec.counts() / rec.total)
             for _, _, rec in dataset.records]
    return np.concatenate(draws).astype(float)


@pytest.fixture(scope="module")
def calibrated_bootstrap():
    """A bootstrap of the calibrated tomography run, with the batched fit's
    count table and result captured on the way."""
    cfg = load_config(CONFIGS / "calibrated.json")
    dataset = simulate_tomography_dataset(
        final_state(cfg.noise, cfg.dt_us), cfg.n_sequences, cfg.detector,
        derive_seed(cfg.seed, 1000),
    )
    captured = {}
    real_fit = tomography._fit

    def spy(projectors, counts, max_iter):
        result = real_fit(projectors, counts, max_iter)
        captured.update(projectors=projectors, table=counts, result=result)
        return result

    seed = derive_seed(cfg.seed, 2000)
    tomography._fit = spy
    try:
        errs = bootstrap_errors(dataset, 100, seed)
    finally:
        tomography._fit = real_fit
    return dataset, seed, errs, captured


@pytest.fixture(scope="module")
def sweep_datasets():
    cfg = load_config(CONFIGS / "sweep.json")
    return [
        simulate_tomography_dataset(
            final_state(cfg.noise, dt), cfg.n_sequences, cfg.detector,
            derive_seed(cfg.seed, 3000 + i),
        )
        for i, dt in enumerate(SWEEP_GRID_US)
    ]


class TestLinearInversion:
    def test_exact_singlet(self):
        result = linear_inversion(exact_dataset(singlet_dm()))
        assert trace_distance(result.rho, singlet_dm()) < 1e-10
        assert result.psd_ok

    def test_exact_random_states_round_trip(self, rng):
        for _ in range(30):
            rho = random_density(rng, 4)
            result = linear_inversion(exact_dataset(rho))
            assert trace_distance(result.rho, rho) < 1e-10

    def test_low_count_data_flags_psd(self):
        ds = simulate_tomography_dataset(singlet_dm(), 100, IDEAL, seed=5)
        result = linear_inversion(ds)
        assert result.min_eigenvalue < 0.0
        assert not result.psd_ok

    def test_single_basis_is_rank_deficient(self):
        full = exact_dataset(singlet_dm(), total_per_basis=1000.0)
        only_hv = TomographyDataset(records=full.records[:1])
        with pytest.raises(DataError):
            linear_inversion(only_hv)


class TestMleReconstruct:
    def test_ideal_singlet_high_counts(self):
        ds = simulate_tomography_dataset(singlet_dm(), 200_000, IDEAL, seed=17)
        fit = mle_reconstruct(ds)
        assert fit.converged
        assert fidelity_singlet(fit.rho) > 0.995

    def test_output_always_physical_with_adversarial_counts(self):
        # Every basis piles all counts into one cell.
        records = []
        for basis_a, basis_b, rec in exact_dataset(singlet_dm()).records:
            records.append(
                (
                    basis_a,
                    basis_b,
                    CountRecord(setting=rec.setting, n_uu=500, n_ud=0, n_du=0, n_dd=0),
                )
            )
        fit = mle_reconstruct(TomographyDataset(records=tuple(records)))
        assert validate_density(fit.rho).passed

    def test_single_basis_rejected(self):
        full = exact_dataset(singlet_dm(), total_per_basis=1000.0)
        only_hv = TomographyDataset(records=full.records[:1])
        with pytest.raises(DataError):
            mle_reconstruct(only_hv)

    def test_zero_count_basis_rejected(self):
        records = list(exact_dataset(singlet_dm(), total_per_basis=100.0).records)
        basis_a, basis_b, rec = records[3]
        records[3] = (
            basis_a,
            basis_b,
            CountRecord(setting=rec.setting, n_uu=0, n_ud=0, n_du=0, n_dd=0),
        )
        with pytest.raises(DataError):
            mle_reconstruct(TomographyDataset(records=tuple(records)))

    def test_deterministic(self):
        ds = simulate_tomography_dataset(dephased_singlet(0.8), 20_000, IDEAL, seed=23)
        a = mle_reconstruct(ds)
        b = mle_reconstruct(ds)
        assert trace_distance(a.rho, b.rho) == 0.0
        assert a.log_likelihood == b.log_likelihood
        assert a.iterations == b.iterations

    def test_gradient_matches_finite_differences(self, rng):
        # Oracle for the optimizer plumbing: central finite differences.
        ds = simulate_tomography_dataset(dephased_singlet(0.7), 5_000, IDEAL, seed=29)
        projectors, counts = _design(ds, require_counts=True)
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
            ds = exact_dataset(rho)
            li = linear_inversion(ds)
            ml = mle_reconstruct(ds)
            assert trace_distance(ml.rho, li.rho) < 1e-6

    def test_likelihood_at_optimum_dominates_projected_linear(self):
        for seed in (31, 37, 41):
            ds = simulate_tomography_dataset(dephased_singlet(0.85), 3_000, IDEAL, seed=seed)
            projectors, counts = _design(ds, require_counts=True)

            def log_like(mat):
                probs = np.clip(np.real(np.einsum("kij,ji->k", projectors, mat)), 1e-12, None)
                return float(np.sum(counts * np.log(probs)))

            li_projected = project_psd(linear_inversion(ds).rho.matrix)
            ml = mle_reconstruct(ds)
            assert ml.log_likelihood >= log_like(li_projected) - 1e-9


    def test_matches_lbfgs_on_calibrated_resamples(self, calibrated_bootstrap):
        *_, captured = calibrated_bootstrap
        projectors, table = captured["projectors"], captured["table"]
        rho, _, gap = captured["result"]
        for r in range(25):
            counts = table[r]
            oracle_rho, oracle_ll, oracle_ok = lbfgs_fit(projectors, counts)
            assert oracle_ok
            assert gap[r] <= GAP_TOL * counts.sum()
            assert log_likelihood(projectors, counts, rho[r]) >= oracle_ll - GAP_TOL * counts.sum()
            assert abs(fidelity_singlet(rho[r]) - fidelity_singlet(oracle_rho)) <= 1e-5
            assert abs(log_negativity(rho[r])[0] - log_negativity(oracle_rho)[0]) <= 1e-5

    def test_matches_lbfgs_at_every_sweep_time(self, sweep_datasets):
        for ds in sweep_datasets:
            projectors, counts = _design(ds, require_counts=True)
            fit = mle_reconstruct(ds)
            oracle_rho, oracle_ll, oracle_ok = lbfgs_fit(projectors, counts)
            assert fit.converged and oracle_ok
            assert fit.log_likelihood >= oracle_ll - GAP_TOL * counts.sum()
            assert abs(fidelity_singlet(fit.rho) - fidelity_singlet(oracle_rho)) <= 1e-5
            assert abs(log_negativity(fit.rho)[0] - log_negativity(oracle_rho)[0]) <= 1e-5

    def test_certificate_holds_for_returned_states(self, calibrated_bootstrap, sweep_datasets):
        *_, captured = calibrated_bootstrap
        projectors, table = captured["projectors"], captured["table"]
        rho, _, gap = captured["result"]
        assert np.all(gap <= GAP_TOL * table.sum(axis=1))
        for counts, mat in zip(table, rho):
            assert recomputed_gap(projectors, counts, mat) <= GAP_TOL * counts.sum()
        for ds in sweep_datasets:
            projectors, counts = _design(ds, require_counts=True)
            fit = mle_reconstruct(ds)
            assert fit.converged
            gap = recomputed_gap(projectors, counts, fit.rho.matrix)
            assert gap <= GAP_TOL * counts.sum()
            assert gap == pytest.approx(fit.certificate_gap, rel=1e-6, abs=1e-9 * counts.sum())

    def test_rank_three_state_on_the_boundary(self, rng):
        for _ in range(5):
            rho = random_density(rng, 4, rank=3)
            fit = mle_reconstruct(exact_dataset(rho))
            assert fit.converged
            assert fit.min_eigenvalue >= -1e-9
            assert trace_distance(fit.rho, rho) < 1e-6


class TestFitPaths:
    def test_calibrated_resamples_certify_within_ten_steps(self, calibrated_bootstrap):
        # Interior optima: damped Newton finishes, where RrhoR alone needs
        # hundreds of steps.
        *_, captured = calibrated_bootstrap
        table = captured["table"]
        _, iterations, gap = captured["result"]
        assert np.all(gap <= GAP_TOL * table.sum(axis=1))
        assert iterations.max() <= 10

    def test_mixed_table_rows_match_single_fits(self, calibrated_bootstrap, sweep_datasets):
        # One table through every path: calibrated resamples (Newton), low-count
        # resamples whose optimum is on the boundary (Newton cut short, then
        # RrhoR) or interior behind a boundary start (resample 84: damped
        # Newton), rank-2 sweep points with zero-count cells and an adversarial
        # row with three zero cells per basis (RrhoR from the start).
        *_, captured = calibrated_bootstrap
        projectors = captured["projectors"]
        cfg = load_config(CONFIGS / "calibrated.json")
        low = simulate_tomography_dataset(
            final_state(cfg.noise, cfg.dt_us), 20_000, cfg.detector, derive_seed(4242, 1000)
        )
        adversarial = np.tile([500.0, 0.0, 0.0, 0.0], 9)
        seed = derive_seed(4242, 2000)
        rows = [captured["table"][:4], np.array([resample(low, seed, r) for r in (0, 1, 84)])]
        for ds in sweep_datasets:
            sweep_projectors, counts = _design(ds, require_counts=True)
            np.testing.assert_array_equal(sweep_projectors, projectors)
            rows.append(counts[None])
        table = np.concatenate([*rows, adversarial[None]])
        assert np.all((table[7:] == 0).any(axis=1))

        rho, iterations, gap = tomography._fit(projectors, table, MAX_ITER)
        assert np.all(gap <= GAP_TOL * table.sum(axis=1))
        assert iterations[6] <= 10  # resample 84 (24 007 steps with RrhoR alone)
        for r, counts in enumerate(table):
            single = tomography._fit(projectors, counts[None], MAX_ITER)
            np.testing.assert_allclose(single[0][0], rho[r], rtol=0, atol=1e-12)
            assert single[1][0] == iterations[r]


class TestBasisCovariance:
    def test_shared_rotation_conjugates_reconstruction(self):
        # A 45-degree polarization rotation on both photons maps the nine
        # measurement bases onto themselves (HV <-> DA up to port labels,
        # RL fixed), i.e. it is a pure relabeling of the measurement set.
        # Reconstruction must then transform covariantly: fitting the
        # rotated state matches the rotated fit within the statistical
        # scatter of the two fits.
        from ces.qcore import KET_H, KET_V

        theta = np.radians(45.0)
        ket45 = np.cos(theta) * KET_H + np.sin(theta) * KET_V
        ket135 = -np.sin(theta) * KET_H + np.cos(theta) * KET_V
        u2 = np.outer(ket45, KET_H.conj()) + np.outer(ket135, KET_V.conj())
        u = np.kron(u2, u2)

        rho = dephased_singlet(0.8)
        rotated = u @ rho @ u.conj().T
        fit_plain = mle_reconstruct(
            simulate_tomography_dataset(rho, 300_000, IDEAL, seed=43)
        )
        fit_rotated = mle_reconstruct(
            simulate_tomography_dataset(rotated, 300_000, IDEAL, seed=44)
        )
        conjugated = u @ fit_plain.rho.matrix @ u.conj().T
        assert trace_distance(fit_rotated.rho, conjugated) < 0.02

    def test_born_probabilities_covariant_under_local_rotation(self, rng):
        # Exact-level covariance: rotated state measured with rotated
        # projectors reproduces the original Born probabilities.
        from ces.detection import basis_projectors
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
        return simulate_tomography_dataset(dephased_singlet(0.804), 30_000, IDEAL, seed=47)

    def test_deterministic(self, dataset):
        a = bootstrap_errors(dataset, 100, seed=53)
        b = bootstrap_errors(dataset, 100, seed=53)
        assert a == b

    def test_uncertainty_shrinks_with_counts(self):
        small = simulate_tomography_dataset(dephased_singlet(0.8), 2_000, IDEAL, seed=59)
        large = simulate_tomography_dataset(dephased_singlet(0.8), 200_000, IDEAL, seed=61)
        sigma_small = bootstrap_errors(small, 100, seed=67).sigma_fidelity
        sigma_large = bootstrap_errors(large, 100, seed=67).sigma_fidelity
        assert sigma_large < sigma_small

    def test_unconverged_fits_counted_as_failed(self, dataset, monkeypatch):
        real_fit = tomography._fit
        calls = []

        def every_fourth_unconverged(projectors, counts, max_iter):
            calls.append(counts)
            rho, iterations, gap = real_fit(projectors, counts, max_iter)
            gap[3::4] = np.inf
            return rho, iterations, gap

        monkeypatch.setattr(tomography, "_fit", every_fourth_unconverged)
        errs = bootstrap_errors(dataset, 100, seed=53)
        assert len(calls) == 1 and calls[0].shape == (100, 36)
        assert errs.n_failed == 25

    def test_invalid_fits_fail_the_validity_mask(self, dataset, monkeypatch):
        real_fit, real_report = tomography._fit, tomography.report
        reported = []

        def every_fifth_invalid(projectors, counts, max_iter):
            rho, iterations, gap = real_fit(projectors, counts, max_iter)
            rho[4::5] *= 1.1  # trace 1.1: not a density matrix
            return rho, iterations, gap

        def recording_report(rho):
            reported.append(rho.shape)
            return real_report(rho)

        monkeypatch.setattr(tomography, "_fit", every_fifth_invalid)
        monkeypatch.setattr(tomography, "report", recording_report)
        errs = bootstrap_errors(dataset, 100, seed=53)
        assert errs.n_failed == 20
        assert reported == [(80, 4, 4)]

    def test_resamples_are_per_basis_draws_on_keyed_streams(self, calibrated_bootstrap):
        dataset, seed, _, captured = calibrated_bootstrap
        for r in (0, 1, 57, 99):
            rng = make_stream(seed, (r,))
            draws = [rng.multinomial(int(rec.total), rec.counts() / rec.total)
                     for _, _, rec in dataset.records]
            np.testing.assert_array_equal(captured["table"][r], np.concatenate(draws))

    def test_batch_matches_single_fits(self, calibrated_bootstrap):
        dataset, _, _, captured = calibrated_bootstrap
        rho = captured["result"][0]
        for r in (0, 1, 57, 99):
            single = mle_reconstruct(dataset_from_row(dataset, captured["table"][r]))
            np.testing.assert_allclose(single.rho.matrix, rho[r], rtol=0, atol=1e-12)

    def test_too_few_resamples_rejected(self, dataset):
        with pytest.raises(DataError):
            bootstrap_errors(dataset, 99, seed=1)

    def test_sigma_scale_matches_published_error_bar(self):
        # ~550 coincidences per basis reproduces the quoted 0.009 fidelity
        # error within a factor of two.
        ds = simulate_tomography_dataset(
            dephased_singlet(0.804), 1_100, IDEAL, seed=71
        )
        errs = bootstrap_errors(ds, 150, seed=73)
        assert 0.0045 < errs.sigma_fidelity < 0.018
