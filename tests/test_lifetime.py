"""Gaussian lifetime fitting."""

from __future__ import annotations

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ces.config import load_config
from ces.errors import DataError
from ces.fileio import read_series_csv
from ces.lifetime import fit_lifetime
from ces.pipeline import run_sweep

GRID = np.array([0.8, 2.0, 4.0, 6.0, 8.0, 10.0])
SWEEP_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sweep.json"


def decay(n0, tau, dt):
    return n0 * np.exp(-((dt / tau) ** 2))


# The former scipy least-squares fit, kept as the reference: trust-region
# least squares from a half-height initial guess, at tight tolerances.
def oracle_guess(dt, n):
    n0 = float(max(n.max(), 1e-6))
    below = np.nonzero(n <= n0 / 2.0)[0]
    if below.size:
        return n0, float(max(dt[below[0]], 1e-6)) / math.sqrt(math.log(2.0))
    return n0, float(max(dt.max(), 1.0)) * 2.0


def oracle_fit(dt, n, sigma=None):
    """(n0, tau) of scipy least_squares on the Gaussian decay model."""
    from scipy.optimize import least_squares

    w = np.ones_like(dt) if sigma is None else sigma

    def jacobian(params):
        n0, tau = params
        g = np.exp(-((dt / tau) ** 2))
        return np.column_stack([g / w, n0 * g * (2.0 * dt**2 / tau**3) / w])

    res = least_squares(
        lambda params: (decay(*params, dt) - n) / w,
        x0=np.array(oracle_guess(dt, n)),
        jac=jacobian,
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=2000,
    )
    assert res.success
    return float(res.x[0]), abs(float(res.x[1]))


def weighted_rss(n0, tau, dt, n, sigma=None):
    w = np.ones_like(dt) if sigma is None else sigma
    return float(np.sum(((decay(n0, tau, dt) - n) / w) ** 2))


def assert_matches_oracle(dt, n, fit, sigma=None):
    """Bounds fixed in advance: tau and N0 within 1e-6 (relative) of the
    reference, and a weighted RSS no larger than its own, up to rounding.
    Where the reference runs past 1e3 times the longest storage time the
    data show no decay, and the fit must say it did not converge."""
    n0, tau = oracle_fit(dt, n, sigma)
    if tau > 1e3 * dt.max():
        assert not fit.converged
        return
    assert fit.converged
    assert abs(fit.tau_e_us - tau) <= 1e-6 * tau
    assert abs(fit.n0 - n0) <= 1e-6 * abs(n0)
    rss = weighted_rss(fit.n0, fit.tau_e_us, dt, n, sigma)
    assert rss <= weighted_rss(n0, tau, dt, n, sigma) * (1.0 + 1e-9) + 1e-18


class TestNoiselessRecovery:
    def test_exact_round_trip(self):
        values = decay(0.434, 5.7, GRID)
        fit = fit_lifetime(GRID, values, kind="N")
        assert fit.converged
        assert fit.n0 == pytest.approx(0.434, rel=1e-6)
        assert fit.tau_e_us == pytest.approx(5.7, rel=1e-6)
        assert fit.residual_rms < 1e-9
        assert_matches_oracle(GRID, values, fit)

    def test_log_negativity_inputs_converted_exactly(self):
        n_values = decay(0.434, 5.7, GRID)
        en_values = np.log2(2.0 * n_values + 1.0)
        fit = fit_lifetime(GRID, en_values, kind="EN")
        assert fit.n0 == pytest.approx(0.434, rel=1e-6)
        assert fit.tau_e_us == pytest.approx(5.7, rel=1e-6)
        assert_matches_oracle(GRID, n_values, fit)

    def test_mixed_kinds_per_point(self):
        n_values = decay(0.4, 5.0, GRID)
        kinds = np.array(["N", "EN", "N", "EN", "N", "N"], dtype=object)
        values = n_values.copy()
        values[1] = np.log2(2 * n_values[1] + 1)
        values[3] = np.log2(2 * n_values[3] + 1)
        fit = fit_lifetime(GRID, values, kind=kinds)
        assert fit.tau_e_us == pytest.approx(5.0, rel=1e-6)
        assert_matches_oracle(GRID, n_values, fit)


    def test_storage_time_whose_square_overflows(self):
        # At dt = 1e200 the model is exactly 0 for every finite tau, so a
        # zero there leaves the fit of the other points as it is.
        dt = np.array([0.8, 2.0, 4.0, 6.0, 1e200])
        values = np.append(decay(0.434, 5.7, dt[:-1]), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_lifetime(dt, values, kind="N")
        assert fit.converged
        assert fit.n0 == pytest.approx(0.434, rel=1e-6)
        assert fit.tau_e_us == pytest.approx(5.7, rel=1e-6)
        assert np.all(np.isfinite(fit.covariance))

    def test_subnormal_storage_time_warns_nothing(self, tmp_path, capsys):
        # The tau scan starts at a tenth of the shortest nonzero storage
        # time, 1e-321 here, whose cube underflows to 0.
        from ces import cli

        dt = np.array([1e-320, 2.0, 4.0, 6.0, 8.0])
        values = decay(0.434, 5.7, dt)
        series = tmp_path / "series.csv"
        series.write_text(
            "dt_us,value,kind,sigma\n" + "".join(f"{t},{v},N,\n" for t, v in zip(dt, values))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_lifetime(dt, values, kind="N")
            assert cli.main(["fit", str(series)]) == 0
        assert "Warning" not in capsys.readouterr().err
        assert fit.converged
        assert fit.n0 == pytest.approx(0.434, rel=1e-6)
        assert fit.tau_e_us == pytest.approx(5.7, rel=1e-6)


class TestNoisyRecovery:
    def test_tau_unbiased_under_noise(self):
        # 200 repetitions of 5% multiplicative noise: the mean fitted tau
        # stays within 2% of the truth.
        rng = np.random.default_rng(808)
        taus = []
        truth = decay(0.434, 5.7, GRID)
        for _ in range(200):
            noisy = truth * (1.0 + 0.05 * rng.normal(size=GRID.size))
            taus.append(fit_lifetime(GRID, noisy, kind="N").tau_e_us)
        assert np.mean(taus) == pytest.approx(5.7, rel=0.02)

    def test_weighted_fit_uses_sigma(self):
        rng = np.random.default_rng(809)
        truth = decay(0.4, 5.7, GRID)
        sigma = np.full(GRID.size, 0.01)
        noisy = truth + sigma * rng.normal(size=GRID.size)
        fit = fit_lifetime(GRID, noisy, kind="N", sigma=sigma)
        assert fit.converged
        # Parameter covariance from the weighted Jacobian is sane.
        assert fit.covariance.shape == (2, 2)
        assert fit.covariance[1, 1] > 0.0
        assert abs(fit.tau_e_us - 5.7) < 5.0 * np.sqrt(fit.covariance[1, 1])


class TestOracle:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_noisy_series_match_scipy(self, weighted):
        # 200 series around the paper's regime: N0 in [0.1, 0.5], tau in
        # [2, 12] us on the six-point grid, noise 0-20 % of N0.
        rng = np.random.default_rng(810 + weighted)
        for _ in range(200):
            n0, tau = rng.uniform(0.1, 0.5), rng.uniform(2.0, 12.0)
            if weighted:
                sigma = n0 * rng.uniform(0.01, 0.2, GRID.size)
                noise = sigma
            else:
                sigma = None
                noise = n0 * rng.uniform(0.0, 0.2)
            values = decay(n0, tau, GRID) + noise * rng.normal(size=GRID.size)
            fit = fit_lifetime(GRID, values, kind="N", sigma=sigma)
            assert_matches_oracle(GRID, values, fit, sigma)

    @pytest.mark.parametrize("seed", [4242, 7, 99])
    def test_sweep_series_match_scipy(self, tmp_path, seed):
        cfg = dataclasses.replace(load_config(SWEEP_CONFIG), seed=seed)
        out = run_sweep(cfg, tmp_path)
        dts, values, _, sigma = read_series_csv(out["series"])
        assert sigma is None
        assert_matches_oracle(dts, values, out["fit"])


class TestNoInteriorMinimum:
    @pytest.mark.parametrize(
        "values",
        [np.full(GRID.size, 0.3), 0.1 + 0.01 * GRID, decay(0.3, 1e5, GRID)],
        ids=["constant", "rising", "tau_beyond_1e3_times_longest_time"],
    )
    def test_no_decay_is_not_converged(self, values):
        fit = fit_lifetime(GRID, values, kind="N")
        assert not fit.converged
        assert np.isfinite(fit.tau_e_us) and fit.tau_e_us > 1e2 * GRID.max()

    def test_decay_within_the_first_time_is_not_converged(self):
        # Only the first point is nonzero: the residual sum falls to a
        # plateau of zeros at short tau, which has no stationary point.
        values = np.zeros(GRID.size)
        values[0] = 0.3
        fit = fit_lifetime(GRID, values, kind="N")
        assert not fit.converged
        assert np.isfinite(fit.tau_e_us) and fit.tau_e_us < GRID.min()


class TestValidation:
    def test_insufficient_points(self):
        with pytest.raises(DataError):
            fit_lifetime(np.array([0.0, 1.0]), np.array([0.4, 0.3]))

    def test_negative_time_rejected(self):
        with pytest.raises(DataError):
            fit_lifetime(np.array([-1.0, 1.0, 2.0]), np.array([0.4, 0.3, 0.2]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            fit_lifetime(GRID, decay(0.4, 5.0, GRID), kind="X")

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_bad_sigma_rejected(self, bad):
        with pytest.raises(DataError, match="sigma"):
            fit_lifetime(GRID, decay(0.4, 5.0, GRID), sigma=np.full(GRID.size, bad))

    @pytest.mark.parametrize("dt", [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    def test_one_storage_time_rejected(self, dt):
        with pytest.raises(DataError, match="distinct storage times"):
            fit_lifetime(np.array(dt), np.array([0.4, 0.3, 0.2]))


class TestModelConsistency:
    def test_fit_evaluates_model_at_parameters(self):
        values = decay(0.3, 4.2, GRID)
        fit = fit_lifetime(GRID, values, kind="N")
        np.testing.assert_allclose(decay(fit.n0, fit.tau_e_us, GRID), values, atol=1e-9)
