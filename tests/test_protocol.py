"""Protocol states, noise channels, and the rate budget."""

from __future__ import annotations

import numpy as np
import pytest

from ces.config import load_config
from ces.detection import DetectorParams, MeasurementSetting, setting_probabilities
from ces.measures import concurrence, fidelity_singlet, log_negativity
from ces.protocol import EfficiencyParams, NoiseParams, final_state, rate_budget
from ces.qcore import validate_density
from conftest import (
    CONFIGS,
    channel_chain_state,
    dephased_singlet,
    singlet_dm,
    trace_distance,
)


def random_noise(rng) -> NoiseParams:
    return NoiseParams(
        v0=rng.uniform(0, 1),
        tau_e_us=rng.uniform(0.1, 20),
        p_white=rng.uniform(0, 1),
        eta_pump=rng.uniform(0, 1),
    )


class TestChannelChain:
    def test_final_state_is_the_four_step_chain(self, rng):
        # The closed form against the oracle that applies each step in turn.
        for _ in range(200):
            noise, dt = random_noise(rng), rng.uniform(0, 30)
            np.testing.assert_allclose(
                final_state(noise, dt).matrix, channel_chain_state(noise, dt), rtol=0, atol=1e-15
            )

    def test_ideal_pair_is_pure_with_half_weight_on_the_antiparallel_pairs(self):
        mat = final_state(NoiseParams(), 0.0).matrix
        np.testing.assert_allclose(np.diag(mat), [0, 0.5, 0.5, 0], atol=1e-15)
        assert np.real(np.trace(mat @ mat)) == pytest.approx(1.0, abs=1e-12)

    def test_each_photon_alone_is_maximally_mixed(self, rng):
        for _ in range(10):
            blocks = final_state(random_noise(rng), rng.uniform(0, 30)).matrix.reshape(2, 2, 2, 2)
            for reduced in (np.einsum("abcb->ac", blocks), np.einsum("abad->bd", blocks)):
                np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-15)


class TestStorageNoise:
    def test_long_storage_fidelity_half(self):
        # Pure dephasing kills the coherence but not the populations, so the
        # pair fidelity saturates at 1/2 (not 1/4).
        noise = NoiseParams(v0=1.0, tau_e_us=5.7, p_white=0.0, eta_pump=1.0)
        pair = final_state(noise, dt_us=1e6)
        assert fidelity_singlet(pair) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("v", [0.3, 0.7, 0.95])
    def test_concurrence_is_the_surviving_coherence(self, v):
        assert concurrence(final_state(NoiseParams(v0=v), 0.0)) == pytest.approx(v, abs=1e-10)

    def test_calibrated_coherence_gives_measured_fidelity(self):
        # F = (1 + v)/2 for a dephased singlet; v = 0.804 lands on 0.902.
        pair = final_state(NoiseParams(v0=0.804), 0.0)
        assert fidelity_singlet(pair) == pytest.approx(0.902, abs=1e-12)

    def test_coherence_decays_as_a_gaussian(self):
        noise = NoiseParams(v0=0.9, tau_e_us=4.0)
        for dt in (0.0, 1.5, 2.5, np.hypot(1.5, 2.5)):
            coherence = 2.0 * abs(final_state(noise, dt).matrix[1, 2])
            assert coherence == pytest.approx(0.9 * np.exp(-((dt / 4.0) ** 2)), abs=1e-15)

    @pytest.mark.parametrize("dt_us", [1e154, 1e200, 1.7e308])
    def test_astronomical_storage_time_has_no_coherence(self, dt_us):
        # (dt / tau)^2 overflows to inf, and exp(-inf) is exactly 0: the same
        # state as any storage time whose coherence underflows.
        noise = NoiseParams(v0=0.9, tau_e_us=5.7, p_white=0.1, eta_pump=0.8)
        assert noise.coherence(dt_us) == 0.0
        expected = final_state(noise, 1e6).matrix
        assert final_state(noise, dt_us).matrix.tobytes() == expected.tobytes()

    def test_populations_invariant_under_dephasing(self, rng):
        noise = NoiseParams(v0=0.5, tau_e_us=2.0, p_white=0.2, eta_pump=0.9)
        expected = np.diag(final_state(noise, 0.0).matrix)
        for dt in rng.uniform(0.0, 10.0, 10):
            np.testing.assert_array_equal(np.diag(final_state(noise, dt).matrix), expected)


class TestPumpingChannel:
    def test_pumping_and_white_noise_mix_in_the_same_state(self):
        # Both mix in I/4, so only eta_pump (1 - p_white) matters.
        a = final_state(NoiseParams(v0=0.9, eta_pump=0.8, p_white=0.0), 1.0).matrix
        b = final_state(NoiseParams(v0=0.9, eta_pump=1.0, p_white=0.2), 1.0).matrix
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("noise", [NoiseParams(eta_pump=0.0), NoiseParams(p_white=1.0)])
    def test_failed_pumping_or_full_white_noise_depolarizes(self, noise):
        out = final_state(noise, 0.0)
        np.testing.assert_array_equal(out.matrix, np.eye(4) / 4.0)
        assert fidelity_singlet(out) == pytest.approx(0.25, abs=1e-12)

    def test_fidelity_linear_in_mixture(self):
        out = final_state(NoiseParams(eta_pump=0.8), 0.0)
        assert fidelity_singlet(out) == pytest.approx(0.8 * 1.0 + 0.2 * 0.25, abs=1e-12)


class TestFinalState:
    def test_ideal_params_give_singlet(self):
        pair = final_state(NoiseParams(v0=1.0, p_white=0.0, eta_pump=1.0), 0.0)
        assert trace_distance(pair, singlet_dm()) <= 1e-12

    def test_log_negativity_nonincreasing_in_dt(self):
        noise = NoiseParams(v0=0.95, tau_e_us=5.7, p_white=0.05, eta_pump=0.95)
        values = []
        for dt in np.linspace(0.0, 12.0, 13):
            _, e_n = log_negativity(final_state(noise, dt))
            values.append(e_n)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_channels_preserve_validity(self, rng):
        # Any valid parameter draw must yield a valid density matrix.
        for _ in range(25):
            out = final_state(random_noise(rng), rng.uniform(0, 30))
            assert validate_density(out).passed

    def test_fidelity_never_below_quarter(self, rng):
        for _ in range(25):
            out = final_state(random_noise(rng), rng.uniform(0, 30))
            assert fidelity_singlet(out) >= 0.25 - 1e-12


class TestShippedCalibrations:
    # configs/calibrated.json holds the Werner state p_white = 4(1 - F)/3 at
    # F = 0.902; configs/window_study.json the pure dephasing v0 = 2F - 1 at
    # F = 0.932.  Both give concurrence 2F - 1.
    @pytest.mark.parametrize(
        "name, fidelity, noise",
        [
            ("calibrated.json", 0.902, NoiseParams(p_white=4.0 * (1.0 - 0.902) / 3.0)),
            ("window_study.json", 0.932, NoiseParams(v0=2.0 * 0.932 - 1.0)),
        ],
    )
    def test_config_reaches_its_fidelity(self, name, fidelity, noise):
        cfg = load_config(CONFIGS / name)
        assert cfg.noise == noise
        rho = final_state(cfg.noise, 0.0)
        assert fidelity_singlet(rho) == pytest.approx(fidelity, abs=1e-12)
        assert concurrence(rho) == pytest.approx(2 * fidelity - 1.0, abs=1e-12)


class TestRateBudget:
    def test_reported_operating_point(self):
        rep = rate_budget(EfficiencyParams(0.086, 0.086, 50.0), DetectorParams(eta_det=0.2))
        assert rep.p_pair_detect == pytest.approx(2.9584e-4, rel=1e-6)
        assert rep.pairs_produced_per_s == pytest.approx(369.8, rel=1e-6)
        assert rep.pairs_detected_per_s == pytest.approx(14.792, rel=1e-6)
        # Rounded published numbers are reproduced within 25%.
        assert abs(rep.p_pair_detect / 2.4e-4 - 1.0) < 0.25
        assert abs(rep.pairs_produced_per_s / 370.0 - 1.0) < 0.10
        assert abs(rep.pairs_detected_per_s / 12.0 - 1.0) < 0.25

    def test_unit_detection_efficiency(self):
        rep = rate_budget(EfficiencyParams(0.086, 0.086, 50.0), DetectorParams(eta_det=1.0))
        assert rep.pairs_detected_per_s == pytest.approx(rep.pairs_produced_per_s, rel=1e-12)

    def test_gap_to_detection_model_is_routing_and_window(self):
        # The published budget omits the 1/2 beam-splitter routing and the
        # window acceptance w that the detection model applies to each pair.
        eff = EfficiencyParams(0.086, 0.086, 50.0)
        det = DetectorParams(
            eta_det=0.2, dark_rate=0.01, window_fraction=0.6, late_emission_error=0.1
        )
        setting = MeasurementSetting(0.0, 22.5)
        probs = setting_probabilities(dephased_singlet(0.8), [setting], det)[0]
        rep = rate_budget(eff, det)
        detected = eff.p_photon1 * eff.p_photon2 * (1.0 - probs[4])
        assert rep.p_pair_detect * 0.5 * det.window_fraction == pytest.approx(detected, rel=1e-12)
        assert rep.p_coincidence == pytest.approx(detected, rel=1e-12)

    def test_zero_generation(self):
        rep = rate_budget(EfficiencyParams(0.0, 0.086, 50.0), DetectorParams(eta_det=0.2))
        assert rep.p_pair_detect == 0.0
        assert rep.pairs_produced_per_s == 0.0
        assert rep.pairs_detected_per_s == 0.0


class TestNoiseParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v0": 1.5},
            {"v0": -0.1},
            {"p_white": 2.0},
            {"eta_pump": -1.0},
            {"tau_e_us": 0.0},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NoiseParams(**kwargs)
