"""Correlation estimates and CHSH combinations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ces.bell import (
    TSIRELSON_BOUND,
    BellResult,
    analytic_chsh,
    chsh_from_counts,
    correlation_from_counts,
    max_chsh_from_state,
)
from ces.detection import CountRecord, MeasurementSetting, DetectorParams
from ces.errors import ConfigError, DataError
from ces.qcore import correlation_matrix, tensor
from conftest import (
    analyzer_projectors,
    dephased_singlet,
    draw_counts,
    random_density,
    singlet_dm,
    werner,
)

QUAD = (0.0, 45.0, 22.5, -22.5)


def _record(setting, n_uu, n_ud, n_du, n_dd):
    return CountRecord(setting=setting, n_uu=n_uu, n_ud=n_ud, n_du=n_du, n_dd=n_dd)


class TestCorrelationFromCounts:
    def test_perfect_anticorrelation(self):
        est = correlation_from_counts(_record(MeasurementSetting(0, 0), 0, 500, 500, 0))
        assert est.value == -1.0
        assert est.std_err == 0.0

    def test_uniform_counts(self):
        est = correlation_from_counts(_record(MeasurementSetting(0, 0), 250, 250, 250, 250))
        assert est.value == 0.0
        assert est.std_err == pytest.approx(1.0 / math.sqrt(1000.0), abs=1e-12)

    def test_simulated_singlet_at_22p5(self):
        rec = draw_counts(
            singlet_dm(), MeasurementSetting(0.0, 22.5), 20_000, DetectorParams(), seed=12
        )
        est = correlation_from_counts(rec)
        target = -1.0 / math.sqrt(2.0)
        assert abs(est.value - target) <= 3.0 * est.std_err

    def test_empty_record_rejected(self):
        with pytest.raises(DataError):
            correlation_from_counts(_record(MeasurementSetting(0, 0), 0, 0, 0, 0))


class TestChshFromCounts:
    def test_ideal_singlet_analytic_counts(self):
        # Build exact-probability "counts" at the standard quad.
        records = []
        n = 10_000
        for a in (0.0, 45.0):
            for b in (22.5, -22.5):
                e = -math.cos(math.radians(2 * (a - b)))
                p_anti = (1 - e) / 4.0
                p_corr = (1 + e) / 4.0
                records.append(
                    _record(
                        MeasurementSetting(a, b),
                        n_uu=p_corr * n,
                        n_ud=p_anti * n,
                        n_du=p_anti * n,
                        n_dd=p_corr * n,
                    )
                )
        result = chsh_from_counts(records, QUAD)
        assert result.s_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_product_state_below_bound(self):
        # |HH>: E(a, b) = cos 2a cos 2b, S(quad) = sqrt(2).
        records = []
        n = 100_000
        for a in (0.0, 45.0):
            for b in (22.5, -22.5):
                e = math.cos(math.radians(2 * a)) * math.cos(math.radians(2 * b))
                p_corr = (1 + e) / 4.0
                p_anti = (1 - e) / 4.0
                records.append(
                    _record(
                        MeasurementSetting(a, b),
                        n_uu=p_corr * n,
                        n_ud=p_anti * n,
                        n_du=p_anti * n,
                        n_dd=p_corr * n,
                    )
                )
        result = chsh_from_counts(records, QUAD)
        assert result.s_value == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert result.s_value < 2.0

    def test_missing_setting_is_config_error(self):
        records = [
            _record(MeasurementSetting(0, 22.5), 10, 10, 10, 10),
            _record(MeasurementSetting(0, -22.5), 10, 10, 10, 10),
            _record(MeasurementSetting(45, 22.5), 10, 10, 10, 10),
        ]
        with pytest.raises(ConfigError):
            chsh_from_counts(records, QUAD)

    def test_std_err_adds_in_quadrature(self):
        records = [
            _record(MeasurementSetting(a, b), 250, 250, 250, 250)
            for a in (0.0, 45.0)
            for b in (22.5, -22.5)
        ]
        result = chsh_from_counts(records, QUAD)
        assert result.std_err == pytest.approx(2.0 / math.sqrt(1000.0), abs=1e-12)


class TestAnalyticChsh:
    def test_matches_projector_observables(self, rng):
        # Independent oracle: each E is the trace of rho with the +-1-valued
        # observable (P_up - P_down) x (Q_up - Q_down) of the analyzer projectors.
        def correlation(rho, a, b):
            (pa_up, pa_down), (pb_up, pb_down) = analyzer_projectors(a), analyzer_projectors(b)
            return float(np.real(np.trace(rho @ tensor(pa_up - pa_down, pb_up - pb_down))))

        for _ in range(50):
            rho = random_density(rng, 4)
            quad = alpha, alpha_p, beta, beta_p = tuple(rng.uniform(0, 180, size=4))
            e = {(a, b): correlation(rho, a, b) for a in (alpha, alpha_p) for b in (beta, beta_p)}
            expected = abs(e[alpha_p, beta_p] - e[alpha, beta_p]) + abs(
                e[alpha_p, beta] + e[alpha, beta]
            )
            assert analytic_chsh(rho, quad).s_value == pytest.approx(expected, abs=1e-12)

    def test_singlet_and_maximally_mixed_at_the_standard_quad(self):
        s_singlet = analytic_chsh(singlet_dm(), QUAD).s_value
        assert s_singlet == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        assert analytic_chsh(np.eye(4) / 4.0, QUAD).s_value == pytest.approx(0.0, abs=1e-12)


class TestMaxChsh:
    def test_ideal_singlet(self):
        result = max_chsh_from_state(singlet_dm())
        assert result.s_value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    def test_separable_states_bounded_by_two(self, rng):
        for _ in range(10):
            rho = tensor(random_density(rng, 2), random_density(rng, 2))
            result = max_chsh_from_state(rho)
            assert result.s_value <= 2.0 + 1e-9

    def test_tsirelson_bound_random_states(self, rng):
        for _ in range(25):
            result = max_chsh_from_state(random_density(rng, 4))
            assert result.s_value <= TSIRELSON_BOUND + 1e-9

    def test_maximality_over_fixed_angle_sets(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4)
            s_max = max_chsh_from_state(rho).s_value
            for _ in range(5):
                quad = tuple(rng.uniform(0, 180, size=4))
                assert analytic_chsh(rho, quad).s_value <= s_max + 1e-9

    def test_werner_family_closed_form(self):
        # The closed form must give 2*sqrt(2)*p on Werner states.
        for p in (0.2, 0.5, 1.0 / 3.0, 0.9):
            result = max_chsh_from_state(werner(p))
            assert result.s_value == pytest.approx(2.0 * math.sqrt(2.0) * p, abs=1e-7)

    def test_quad_attains_s_max_in_the_principal_plane(self, rng):
        # T = U diag(s) V^T.  A returned angle t is half a Bloch angle in the
        # principal plane: arm A points along cos 2t U_0 + sin 2t U_1, arm B
        # along cos 2t V_0 + sin 2t V_1, and E = a^T T b.
        def direction(basis, t_deg):
            t = math.radians(2.0 * t_deg)
            return math.cos(t) * basis[0] + math.sin(t) * basis[1]

        worst = 0.0
        for _ in range(200):
            rho = random_density(rng, 4)
            t = correlation_matrix(rho)
            u, _, vt = np.linalg.svd(t)
            result = max_chsh_from_state(rho)
            alpha, alpha_p, beta, beta_p = result.settings
            assert (alpha, alpha_p) == (0.0, 45.0)
            a, a_p = (direction(u.T, x) for x in (alpha, alpha_p))
            b, b_p = (direction(vt, x) for x in (beta, beta_p))
            s = abs(a_p @ t @ b_p - a @ t @ b_p) + abs(a_p @ t @ b + a @ t @ b)
            worst = max(worst, abs(s - result.s_value))
        assert worst <= 1e-9

    def test_isotropic_states_give_standard_polarizer_quad(self):
        # Every plane is principal for T = -p I, so the closed-form quad is
        # the textbook polarizer quad and attains S_max at those angles.
        for rho in (singlet_dm(), werner(0.2), werner(0.9)):
            result = max_chsh_from_state(rho)
            assert result.settings == pytest.approx((0.0, 45.0, 22.5, 67.5), abs=1e-9)
            assert analytic_chsh(rho, result.settings).s_value == pytest.approx(
                result.s_value, abs=1e-12
            )

    def test_dephased_family_value(self):
        # T = diag(-v, -1, -v) in the polarization frame: the two largest
        # singular values are 1 and v, so S_max = 2 sqrt(1 + v^2).
        for v in (0.3, 0.804, 1.0):
            result = max_chsh_from_state(dephased_singlet(v))
            assert result.s_value == pytest.approx(2.0 * math.sqrt(1.0 + v * v), abs=1e-9)

    def test_port_relabel_exact_on_counts(self):
        rec = _record(MeasurementSetting(10, 40), 321, 87, 55, 410)
        swapped = _record(MeasurementSetting(10, 40), 55, 410, 321, 87)  # arm A u<->d
        assert correlation_from_counts(swapped).value == -correlation_from_counts(rec).value

    def test_chsh_counts_converge_to_analytic(self):
        # 1e6 sequences per setting: S from counts within 5 sigma of exact.
        rho = dephased_singlet(0.86)
        records = [
            draw_counts(rho, MeasurementSetting(a, b), 1_000_000, DetectorParams(), seed=9000 + i)
            for i, (a, b) in enumerate([(0, 22.5), (0, -22.5), (45, 22.5), (45, -22.5)])
        ]
        result = chsh_from_counts(records, QUAD)
        exact = analytic_chsh(rho, QUAD).s_value
        assert abs(result.s_value - exact) <= 5.0 * result.std_err


class TestBellResultInvariant:
    def test_sanity_bound_enforced(self):
        with pytest.raises(Exception):
            BellResult(s_value=3.0, std_err=0.0, settings=QUAD)

    def test_statistical_headroom_allowed(self):
        result = BellResult(s_value=2.9, std_err=0.05, settings=QUAD)
        assert result.s_value == 2.9


class TestRunBell:
    def test_state_is_validated_once(self, tmp_path, monkeypatch):
        # The four detection settings and the four analytic correlations all
        # read the one configured state, which remembers that it passed.
        from ces import pipeline, qcore
        from ces.config import config_from_dict

        calls = []
        real = qcore.validate_density

        def counting(rho):
            calls.append(rho)
            return real(rho)

        monkeypatch.setattr(qcore, "validate_density", counting)
        cfg = config_from_dict({"n_sequences": 2_000})
        out = pipeline.run_bell(cfg, tmp_path / "o")
        assert len(calls) == 1
        assert len(cfg.settings) == 4 and out["result"].std_err > 0.0
