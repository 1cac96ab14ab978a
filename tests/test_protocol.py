"""Protocol states, noise channels, and the rate budget."""

from __future__ import annotations

import numpy as np
import pytest

from ces.config import load_config
from ces.detection import DetectorParams, _outcome_distribution, analyzer_projectors
from ces.errors import DimensionError
from ces.measures import concurrence, fidelity_singlet, log_negativity
from ces.protocol import (
    EfficiencyParams,
    NoiseParams,
    apply_storage_noise,
    atom_photon_state,
    final_state,
    map_to_photon_pair,
    pumping_channel,
    rate_budget,
)
from ces.qcore import validate_density
from conftest import CONFIGS, dephased_singlet, random_density, singlet_dm, trace_distance


class TestAtomPhotonState:
    def test_populations(self):
        # Amplitudes sit on |1,-1>|s+> and |1,+1>|s->, half weight each.
        rho = atom_photon_state()
        np.testing.assert_allclose(np.diag(rho.matrix), [0.5, 0, 0, 0.5], atol=1e-15)

    def test_purity(self):
        mat = atom_photon_state().matrix
        assert np.real(np.trace(mat @ mat)) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_atom_maximally_mixed(self):
        reduced = np.einsum("abcb->ac", atom_photon_state().matrix.reshape(2, 2, 2, 2))
        np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-12)


class TestMapToPhotonPair:
    def test_ideal_input_gives_singlet(self):
        pair = map_to_photon_pair(atom_photon_state())
        assert fidelity_singlet(pair) == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(pair, singlet_dm()) <= 1e-12

    def test_unital(self):
        out = map_to_photon_pair(np.eye(4) / 4.0)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_dephased_input_concurrence(self):
        # Concurrence of the mapped pair equals the surviving coherence.
        for v in (0.3, 0.7, 0.95):
            noisy = apply_storage_noise(atom_photon_state(), NoiseParams(v0=v), 0.0)
            pair = map_to_photon_pair(noisy)
            assert concurrence(pair) == pytest.approx(v, abs=1e-10)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            map_to_photon_pair(np.eye(2) / 2.0)


class TestStorageNoise:
    def test_identity_channel(self):
        rho = atom_photon_state()
        out = apply_storage_noise(rho, NoiseParams(v0=1.0, p_white=0.0), 0.0)
        assert trace_distance(out, rho) <= 1e-15

    def test_long_storage_fidelity_half(self):
        # Pure dephasing kills the coherence but not the populations, so the
        # pair fidelity saturates at 1/2 (not 1/4).
        noise = NoiseParams(v0=1.0, tau_e_us=5.7, p_white=0.0, eta_pump=1.0)
        pair = final_state(noise, dt_us=1e6)
        assert fidelity_singlet(pair) == pytest.approx(0.5, abs=1e-12)

    def test_calibrated_coherence_gives_measured_fidelity(self):
        # F = (1 + v)/2 for a dephased singlet; v = 0.804 lands on 0.902.
        noisy = apply_storage_noise(atom_photon_state(), NoiseParams(v0=0.804), 0.0)
        pair = map_to_photon_pair(noisy)
        assert fidelity_singlet(pair) == pytest.approx(0.902, abs=1e-12)

    def test_gaussian_factors_compose(self):
        noise = NoiseParams(v0=0.9, tau_e_us=4.0)
        rho = atom_photon_state()
        two_step = apply_storage_noise(apply_storage_noise(rho, noise, 1.5), noise, 2.5)
        expected = 0.9**2 * np.exp(-(1.5**2 + 2.5**2) / 16.0)
        coherence = 2.0 * abs(two_step.matrix[0, 3])
        assert coherence == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dt_us", [1e154, 1e200, 1.7e308])
    def test_astronomical_storage_time_has_no_coherence(self, dt_us):
        # (dt / tau)^2 overflows to inf, and exp(-inf) is exactly 0: the same
        # state as any storage time whose coherence underflows.
        noise = NoiseParams(v0=0.9, tau_e_us=5.7, p_white=0.1, eta_pump=0.8)
        assert noise.coherence(dt_us) == 0.0
        expected = final_state(noise, 1e6).matrix
        assert final_state(noise, dt_us).matrix.tobytes() == expected.tobytes()

    def test_populations_invariant_under_dephasing(self, rng):
        noise = NoiseParams(v0=0.5, tau_e_us=2.0, p_white=0.0)
        for _ in range(10):
            rho = random_density(rng, 4)
            out = apply_storage_noise(rho, noise, rng.uniform(0.0, 10.0))
            np.testing.assert_allclose(np.diag(out.matrix), np.diag(rho), atol=1e-12)


class TestPumpingChannel:
    def test_perfect_pumping_is_identity(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(pumping_channel(rho, 1.0), rho) <= 1e-15

    def test_failed_pumping_depolarizes(self):
        out = pumping_channel(singlet_dm(), 0.0)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4.0, atol=1e-15)
        assert fidelity_singlet(out) == pytest.approx(0.25, abs=1e-12)

    def test_fidelity_linear_in_mixture(self):
        out = pumping_channel(singlet_dm(), 0.8)
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
            noise = NoiseParams(
                v0=rng.uniform(0, 1),
                tau_e_us=rng.uniform(0.1, 20),
                p_white=rng.uniform(0, 1),
                eta_pump=rng.uniform(0, 1),
            )
            out = final_state(noise, rng.uniform(0, 30))
            assert validate_density(out).passed

    def test_fidelity_never_below_quarter(self, rng):
        for _ in range(25):
            noise = NoiseParams(
                v0=rng.uniform(0, 1),
                tau_e_us=rng.uniform(0.1, 20),
                p_white=rng.uniform(0, 1),
                eta_pump=rng.uniform(0, 1),
            )
            assert fidelity_singlet(final_state(noise, rng.uniform(0, 30))) >= 0.25 - 1e-12


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
        probs = _outcome_distribution(
            dephased_singlet(0.8), analyzer_projectors(0.0), analyzer_projectors(22.5), det
        )
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
