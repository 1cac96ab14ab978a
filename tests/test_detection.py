"""Detection chain: projectors, Born probabilities, and the Monte Carlo."""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest

from ces.detection import (
    BASIS_ANGLES,
    BASIS_LABELS,
    BASIS_PAIRS,
    DetectorParams,
    LATE_BOUNDARY_QUANTILE,
    MeasurementSetting,
    TOMOGRAPHY_PORTS,
    TomographyDataset,
    _BASIS_AXES,
    _on_grid,
    _outcome_distribution,
    _ports,
    analyzer_axis,
    setting_probabilities,
    simulate_counts,
    simulate_tomography_dataset,
)
from ces.config import config_from_dict, load_config
from ces.errors import DataError, DimensionError, ValidationError
from ces.protocol import final_state
from ces.qcore import IDENTITY_2, PAULIS, born_probabilities
from ces.rng import derive_seed, make_stream
from conftest import (
    CONFIGS,
    analyzer_projectors,
    basis_projectors,
    dephased_singlet,
    draw_counts,
    kron_outcome_distribution,
    pair_projectors,
    random_density,
    random_unitary,
    singlet_dm,
    trace_distance,
)

IDEAL = DetectorParams()
#: The sweep's default grid, with 0 in front.
STORAGE_GRID_US = (0.0, 0.8, 2.0, 4.0, 6.0, 8.0, 10.0)


def per_trial_cells(rho, projs_a, projs_b, det, n, rng):
    """Reference sampler: draws each sequence of the event model one by one.

    Returns the (uu, ud, du, dd, discarded) tallies of n sequences.
    """

    def born(projs_1, projs_2):
        return np.array(
            [[np.real(np.trace(rho @ np.kron(p, q))) for q in projs_2] for p in projs_1]
        )

    t0, t1 = born(projs_a, projs_b), born(projs_b, projs_a)
    # Case 2*s + d: s says photon 1 went to arm B, d says photon 2 was depolarized.
    tables = (t0, np.outer(t0.sum(axis=1), [0.5, 0.5]), t1, np.outer(t1.sum(axis=1), [0.5, 0.5]))
    cums = np.array([np.cumsum(t.reshape(-1)) for t in tables])
    cums[:, -1] = 1.0

    arm1 = rng.integers(0, 2, n)
    arm2 = rng.integers(0, 2, n)
    t_emit = rng.exponential(1.0, n)
    u_depol = rng.random(n)
    u_outcome = rng.random(n)
    u_det1 = rng.random(n)
    u_det2 = rng.random(n)
    dark1 = rng.random(n) < det.dark_rate
    dark2 = rng.random(n) < det.dark_rate
    dark1_port = rng.integers(0, 2, n)
    dark2_port = rng.integers(0, 2, n)

    in_window = det.window_fraction >= 1.0 or t_emit <= -math.log1p(-det.window_fraction)
    keep = (arm1 != arm2) & in_window & (u_det1 < det.eta_det) & (u_det2 < det.eta_det)
    late = t_emit > -math.log1p(-LATE_BOUNDARY_QUANTILE)
    depol = late & (u_depol < det.late_emission_error)
    swapped = arm1 == 1  # photon 1 routed to arm B
    case = 2 * swapped + depol.astype(np.int64)
    outcome = np.zeros(n, dtype=np.int64)
    for c in range(4):
        mask = case == c
        outcome[mask] = np.searchsorted(cums[c], u_outcome[mask], side="right")
    j1 = np.where(dark1, dark1_port, outcome >> 1)
    j2 = np.where(dark2, dark2_port, outcome & 1)
    port_a = np.where(swapped, j2, j1)
    port_b = np.where(swapped, j1, j2)
    cells = np.bincount(2 * port_a[keep] + port_b[keep], minlength=4)
    return np.append(cells, n - keep.sum())


def projectors_of(ports):
    """The port projectors (1/2) sum_m U[i, m] sigma_m of a (2, 4) port block."""
    return np.einsum("im,mab->iab", ports, np.array([IDENTITY_2, *PAULIS])) / 2.0


class TestAnalyzerPorts:
    @pytest.mark.parametrize("theta", [0.0, 10.0, 22.5, 45.0, 67.5, 133.0, -22.5, 210.0])
    def test_ports_are_the_analyzer_projectors(self, theta):
        np.testing.assert_allclose(
            projectors_of(_ports(analyzer_axis(theta))), analyzer_projectors(theta), atol=1e-15
        )

    @pytest.mark.parametrize("label", BASIS_LABELS)
    def test_basis_ports_are_the_basis_projectors(self, label):
        np.testing.assert_allclose(
            projectors_of(_ports(_BASIS_AXES[label])), basis_projectors(label), atol=1e-15
        )

    def test_tomography_ports_are_the_basis_ports_of_each_pair(self):
        # Arm A, then arm B, at each of the BASIS_PAIRS; every entry 0 or +-1,
        # and the two ports of a basis sum to the identity exactly.
        assert TOMOGRAPHY_PORTS.shape == (2, 9, 2, 4) and not TOMOGRAPHY_PORTS.flags.writeable
        for arm in (0, 1):
            for pair, ports in zip(BASIS_PAIRS, TOMOGRAPHY_PORTS[arm], strict=True):
                np.testing.assert_array_equal(ports, _ports(_BASIS_AXES[pair[arm]]))
                np.testing.assert_array_equal(ports.sum(axis=0), [2, 0, 0, 0])
        assert set(TOMOGRAPHY_PORTS.ravel()) == {-1.0, 0.0, 1.0}

    def test_axes_of_0_and_45_degrees(self):
        np.testing.assert_array_equal(analyzer_axis(0.0), [0.0, 0.0, 1.0])
        np.testing.assert_allclose(analyzer_axis(45.0), [1.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 10.0, 22.5, 45.0, 67.5, 133.0])
    def test_ports_sum_to_the_identity(self, theta):
        np.testing.assert_array_equal(_ports(analyzer_axis(theta)).sum(axis=0), [2, 0, 0, 0])

    def test_axis_periodic(self):
        np.testing.assert_allclose(analyzer_axis(30.0), analyzer_axis(210.0), atol=1e-12)


class TestSimulateCounts:
    def test_singlet_parallel_analyzers(self):
        n = 1_000_000
        rec = draw_counts(singlet_dm(), MeasurementSetting(0, 0), n, IDEAL, seed=7)
        total = rec.total
        # Diagonal cells are exactly zero in probability.
        assert rec.n_uu / total < 0.003
        assert rec.n_dd / total < 0.003
        # Routing keeps half the sequences; 0.002 is 4 binomial sigma.
        assert total / n == pytest.approx(0.5, abs=0.002)

    def test_zero_efficiency(self):
        rec = draw_counts(
            singlet_dm(),
            MeasurementSetting(0, 45),
            5000,
            DetectorParams(eta_det=0.0, dark_rate=0.3),
            seed=3,
        )
        assert rec.total == 0
        assert rec.n_discarded == 5000

    def test_chsh_close_to_analytic(self):
        # ~1e4 coincidences per setting must land within 0.05 of analytic S.
        from ces.bell import analytic_chsh, chsh_from_counts

        rho = final_state(load_config(CONFIGS / "calibrated.json").noise, 0.0)
        quad = (0.0, 45.0, 22.5, -22.5)
        settings = [(0.0, 22.5), (0.0, -22.5), (45.0, 22.5), (45.0, -22.5)]
        records = [
            draw_counts(rho, MeasurementSetting(*s), 20_000, IDEAL, seed=100 + i)
            for i, s in enumerate(settings)
        ]
        assert min(rec.total for rec in records) > 9000
        result = chsh_from_counts(records, quad)
        assert abs(result.s_value - analytic_chsh(rho, quad).s_value) < 0.05

    def test_accounting_is_exact(self):
        det = DetectorParams(eta_det=0.37, dark_rate=0.02, window_fraction=0.65)
        n = 123_457
        rec = draw_counts(dephased_singlet(0.8), MeasurementSetting(10, 70), n, det, seed=21)
        assert rec.total + rec.n_discarded == n

    def test_fixed_seed_bit_identical(self):
        kwargs = dict(
            rho=dephased_singlet(0.9),
            setting=MeasurementSetting(5.0, 40.0),
            n_sequences=70_000,
            det=DetectorParams(eta_det=0.5, dark_rate=0.01),
            seed=99,
        )
        a = draw_counts(**kwargs)
        b = draw_counts(**kwargs)
        assert a == b

    def test_frequencies_converge_to_born_rule(self):
        # 5-sigma binomial agreement per cell at 1e5+ coincidences.
        states = [singlet_dm(), np.eye(4) / 4.0, dephased_singlet(0.7)]
        setting = MeasurementSetting(15.0, 75.0)
        cells = pair_projectors(analyzer_projectors(15.0), analyzer_projectors(75.0))
        for idx, rho in enumerate(states):
            rec = draw_counts(rho, setting, 400_000, IDEAL, seed=555 + idx)
            probs = born_probabilities(cells, rho)
            total = rec.total
            assert total >= 100_000
            for cell, p in zip(rec.counts(), probs):
                sigma = math.sqrt(max(p * (1 - p) * total, 1.0))
                assert abs(cell - p * total) <= 5.0 * sigma

    def test_dark_rate_degrades_correlation(self):
        from ces.bell import correlation_from_counts

        magnitudes = []
        for i, dark in enumerate((0.0, 0.02, 0.05, 0.1, 0.2)):
            rec = draw_counts(
                singlet_dm(),
                MeasurementSetting(0, 0),
                400_000,
                DetectorParams(eta_det=1.0, dark_rate=dark),
                seed=777,
            )
            magnitudes.append(abs(correlation_from_counts(rec).value))
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))

    def test_huge_sequence_count_is_one_draw(self):
        det = DetectorParams(eta_det=0.2, dark_rate=0.05, window_fraction=0.8,
                             late_emission_error=0.1)
        n = 10**12
        start = time.perf_counter()
        rec = draw_counts(dephased_singlet(0.9), MeasurementSetting(0, 22.5), n, det, seed=5)
        assert time.perf_counter() - start < 1.0
        assert rec.total + rec.n_discarded == n
        # Coincidence fraction w * eta**2 / 2, to 5 binomial sigma.
        p = 0.5 * 0.8 * 0.2**2
        assert abs(rec.total - p * n) <= 5.0 * math.sqrt(n * p * (1 - p))

    def test_rejects_bad_sequence_count(self):
        with pytest.raises(DataError):
            draw_counts(singlet_dm(), MeasurementSetting(0, 0), 0, IDEAL, seed=1)

    def test_rejects_fractional_sequence_count(self):
        # The multinomial draw would silently truncate it, breaking accounting.
        with pytest.raises(DataError):
            draw_counts(singlet_dm(), MeasurementSetting(0, 0), 1000.5, IDEAL, seed=1)


# Both draw sites: a setting's counts and a tomography dataset.
DRAWS = {
    "counts": lambda n: simulate_counts([0.25, 0.25, 0.25, 0.25, 0.0], MeasurementSetting(0, 0),
                                        n, 1),
    "tomography": lambda n: simulate_tomography_dataset(singlet_dm(), n, IDEAL, 1),
}


@pytest.mark.parametrize("draw", DRAWS.values(), ids=DRAWS.keys())
@pytest.mark.parametrize("n", [0, -3, 2.0, 1.5, "10"])
def test_bad_sequence_count_is_a_data_error(draw, n):
    # A float would be truncated by the draw, breaking the accounting.
    with pytest.raises(DataError, match="n_sequences must be a positive integer"):
        draw(n)


# Grid of detector parameters over which the closed form is checked.
DETECTOR_GRID = [
    DetectorParams(eta_det=eta, dark_rate=dark, window_fraction=window, late_emission_error=late)
    for eta, dark, window, late in product((0.2, 1.0), (0.0, 0.05, 0.3), (0.3, 0.8, 1.0), (0.0, 0.6))
]


class TestOutcomeDistribution:
    """The closed-form five-cell distribution behind the multinomial draw."""

    SETTING = MeasurementSetting(12.0, 57.0)

    @staticmethod
    def asymmetric_state():
        # Not exchange-symmetric, so the two arm assignments differ.
        return random_density(np.random.default_rng(2024), 4)

    def test_probabilities_sum_to_one(self, rng):
        states = [singlet_dm(), self.asymmetric_state()]
        states += [random_density(rng, 4, rank=1) for _ in range(3)]
        for rho, det in product(states, DETECTOR_GRID):
            probs = setting_probabilities(rho, [MeasurementSetting(17.0, 71.0)], det)[0]
            assert probs.shape == (5,)
            assert np.all(probs >= 0.0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coincidence_fraction(self):
        for det in DETECTOR_GRID:
            probs = setting_probabilities(singlet_dm(), [MeasurementSetting(0.0, 45.0)], det)[0]
            expected = 0.5 * det.window_fraction * det.eta_det**2
            assert probs[:4].sum() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "det",
        DETECTOR_GRID,
        ids=lambda d: f"eta{d.eta_det}-dark{d.dark_rate}-w{d.window_fraction}-late{d.late_emission_error}",
    )
    def test_matches_per_trial_sampler(self, det):
        # Every cell within 5 binomial sigma of the closed form; the
        # threshold was fixed before the comparison was run.
        rho = self.asymmetric_state()
        projs_a = analyzer_projectors(self.SETTING.alpha_deg)
        projs_b = analyzer_projectors(self.SETTING.beta_deg)
        n = 400_000
        cells = per_trial_cells(rho, projs_a, projs_b, det, n, np.random.default_rng(99))
        assert cells.sum() == n
        probs = setting_probabilities(rho, [self.SETTING], det)[0]
        for count, p in zip(cells, probs):
            sigma = math.sqrt(max(n * p * (1.0 - p), 1.0))
            assert abs(count - n * p) <= 5.0 * sigma


class TestStackedKernel:
    """One kernel call over a stack of settings against the Kronecker oracle."""

    @staticmethod
    def states():
        """The singlet, then random states that are not exchange-symmetric, so
        the two arm assignments of the kernel differ."""
        rng = np.random.default_rng(5150)
        states = [TestOutcomeDistribution.asymmetric_state()]
        states += [random_density(rng, 4, rank=r) for r in (1, 2, 3, 4) for _ in range(4)]
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert all(np.abs(swap @ rho @ swap - rho).max() > 1e-2 for rho in states)
        return [singlet_dm(), *states]

    @staticmethod
    def settings():
        """(S, 2, 4) port blocks of arms A and B and, for the oracle, the port
        projectors of each setting: the nine tomography pairs, then random
        analyzer angle pairs."""
        rng = np.random.default_rng(6160)
        angles = rng.uniform(0, 180, (9, 2))
        ports_a, ports_b = (
            np.concatenate([ports, _ports([analyzer_axis(t) for t in angles[:, arm]])])
            for arm, ports in enumerate(TOMOGRAPHY_PORTS)
        )
        projs = [tuple(map(basis_projectors, pair)) for pair in BASIS_PAIRS]
        projs += [(analyzer_projectors(a), analyzer_projectors(b)) for a, b in angles]
        return ports_a, ports_b, projs

    @pytest.mark.parametrize(
        "det",
        DETECTOR_GRID,
        ids=lambda d: f"eta{d.eta_det}-dark{d.dark_rate}-w{d.window_fraction}-late{d.late_emission_error}",
    )
    def test_matches_kron_oracle(self, det):
        ports_a, ports_b, projs = self.settings()
        for rho in self.states():
            stacked = _outcome_distribution(rho, ports_a, ports_b, det)
            assert stacked.shape == (len(ports_a), 5)
            for row, a, b, (projs_a, projs_b) in zip(stacked, ports_a, ports_b, projs):
                np.testing.assert_allclose(
                    row, kron_outcome_distribution(rho, projs_a, projs_b, det), rtol=0, atol=1e-15
                )
                np.testing.assert_allclose(row, _outcome_distribution(rho, a, b, det),
                                           rtol=0, atol=1e-15)

    def test_settings_are_one_kernel_call(self):
        # setting_probabilities of a state is the kernel at the settings' ports.
        settings = [MeasurementSetting(a, b) for a, b in ((0, 22.5), (45, 157.5), (17, 71))]
        ports_a, ports_b = (
            np.array([_ports(analyzer_axis(getattr(s, arm))) for s in settings])
            for arm in ("alpha_deg", "beta_deg")
        )
        for rho, det in product(self.states()[:3], DETECTOR_GRID):
            np.testing.assert_array_equal(
                setting_probabilities(rho, settings, det),
                _outcome_distribution(rho, ports_a, ports_b, det),
            )

    def test_state_stack_is_bitwise_the_per_state_calls(self):
        # A stack of states must give exactly each state's own call: the
        # shipped configs' states over a storage-time grid from 0, and the
        # random states, at the configs' detectors and DETECTOR_GRID.
        configs = [load_config(path) for path in sorted(CONFIGS.glob("*.json"))]
        grids = [
            (np.array([final_state(cfg.noise, dt).matrix for dt in STORAGE_GRID_US]),
             *TOMOGRAPHY_PORTS)
            for cfg in configs
        ]
        grids.append((np.array(self.states()), *self.settings()[:2]))
        for det in [cfg.detector for cfg in configs] + DETECTOR_GRID:
            for states, ports_a, ports_b in grids:
                stacked = _outcome_distribution(states[:, None], ports_a, ports_b, det)
                assert stacked.shape == (len(states), len(ports_a), 5)
                for row, rho in zip(stacked, states):
                    single = _outcome_distribution(rho, ports_a, ports_b, det)
                    np.testing.assert_array_equal(row, single)

    def test_leading_axes_are_kept(self):
        ports_a, ports_b, _ = self.settings()
        rho, det = self.states()[1], DETECTOR_GRID[-1]
        flat = _outcome_distribution(rho, ports_a, ports_b, det)
        grid = _outcome_distribution(rho, ports_a.reshape(3, 6, 2, 4),
                                     ports_b.reshape(3, 6, 2, 4), det)
        np.testing.assert_allclose(grid.reshape(-1, 5), flat, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        ("bad", "error"), [(0.5 * np.eye(4), ValidationError), (np.eye(2) / 2.0, DimensionError)]
    )
    def test_invalid_state_rejected_by_both_simulators(self, bad, error):
        with pytest.raises(error):
            setting_probabilities(bad, [MeasurementSetting(0, 0)], IDEAL)
        with pytest.raises(error):
            simulate_tomography_dataset(bad, 1000, IDEAL, seed=1)

    def test_state_stack_rejected_by_every_entry_point(self):
        # The chain runs one state; a (B, 4, 4) stack of valid states is not one.
        stack = np.array([singlet_dm(), singlet_dm()])
        with pytest.raises(DimensionError):
            setting_probabilities(stack, [MeasurementSetting(0, 0)], IDEAL)
        with pytest.raises(DimensionError):
            simulate_tomography_dataset(stack, 1000, IDEAL, seed=1)


class TestGrid:
    """Counts do not hang on the last bit of p."""

    @staticmethod
    def rows():
        """(p, setting, n_sequences) of every configured setting and every
        tomography pair, for the defaults and the shipped configs over the
        storage-time grid."""
        configs = [config_from_dict({})]
        configs += [load_config(path) for path in sorted(CONFIGS.glob("*.json"))]
        pairs = [MeasurementSetting(BASIS_ANGLES[a], BASIS_ANGLES[b]) for a, b in BASIS_PAIRS]
        rows = []
        for cfg, dt in product(configs, STORAGE_GRID_US):
            rho = final_state(cfg.noise, dt)
            probs = setting_probabilities(rho, cfg.settings, cfg.detector)
            probs = [*probs, *_outcome_distribution(rho.matrix, *TOMOGRAPHY_PORTS, cfg.detector)]
            rows += [(p, s, cfg.n_sequences) for p, s in zip(probs, [*cfg.settings, *pairs])]
        return rows

    def test_a_one_ulp_nudge_never_moves_a_count(self):
        for probs, setting, n in self.rows():
            nudged = []
            for i in np.flatnonzero(probs):
                for direction in (-np.inf, np.inf):
                    nudge = probs.copy()
                    nudge[i] = np.nextafter(probs[i], direction)
                    nudged.append(nudge)
            for seed in range(20):
                expected = simulate_counts(probs, setting, n, seed)
                for nudge in nudged:
                    assert simulate_counts(nudge, setting, n, seed) == expected

    def test_grid_keeps_the_sum_and_the_sign(self):
        for probs, _, _ in self.rows():
            on_grid = _on_grid(probs)
            assert on_grid.sum() == 1.0 and np.all(on_grid >= 0.0)
            assert np.all(np.rint(on_grid[:4] * 2.0**40) == on_grid[:4] * 2.0**40)
            np.testing.assert_allclose(on_grid, probs, rtol=0, atol=2.0**-38)


class TestKernelCallsPerRun:
    @pytest.mark.parametrize("mode", ["bell", "simulate"])
    def test_one_kernel_call_per_run_and_one_draw_per_setting(self, tmp_path, monkeypatch, mode):
        from ces import detection, pipeline

        calls = {"kernel": 0, "draw": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(detection, "_outcome_distribution",
                            counted("kernel", detection._outcome_distribution))
        monkeypatch.setattr(pipeline, "simulate_counts", counted("draw", pipeline.simulate_counts))
        cfg = config_from_dict({"n_sequences": 2_000})
        getattr(pipeline, f"run_{mode}")(cfg, tmp_path / "o")
        assert calls == {"kernel": 1, "draw": len(cfg.settings)}


class TestWindowModel:
    def test_window_cuts_rate_by_acceptance_factor(self):
        det_full = DetectorParams(eta_det=1.0, window_fraction=1.0)
        det_cut = DetectorParams(eta_det=1.0, window_fraction=0.4)
        n = 400_000
        full = draw_counts(singlet_dm(), MeasurementSetting(0, 0), n, det_full, seed=8)
        cut = draw_counts(singlet_dm(), MeasurementSetting(0, 0), n, det_cut, seed=8)
        assert cut.total / full.total == pytest.approx(0.4, abs=0.01)

    def test_late_depolarization_only_hits_late_photons(self):
        # With the window at the late boundary, accepted photons are clean.
        det = DetectorParams(eta_det=1.0, window_fraction=0.4, late_emission_error=1.0)
        rec = draw_counts(singlet_dm(), MeasurementSetting(0, 0), 200_000, det, seed=9)
        assert (rec.n_uu + rec.n_dd) / rec.total < 0.003


class TestTomographyDraw:
    """Each state of a dataset is one multinomial call on its own stream."""

    DET = DetectorParams(eta_det=0.4, dark_rate=0.005, window_fraction=0.7,
                         late_emission_error=0.2)

    @staticmethod
    def generic_state():
        """A dephased singlet with 20 % of |00><00|, under a fixed local
        rotation: its Bloch vectors and correlations leave no two of the
        nine basis pairs with the same outcome distribution."""
        rng = np.random.default_rng(1)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rho = 0.8 * dephased_singlet(0.85)
        rho[0, 0] += 0.2
        return u @ rho @ u.conj().T

    def test_dataset_is_one_draw_on_the_seed_stream(self):
        # The oracle probabilities: one one-row kernel call per basis pair.
        rho = dephased_singlet(0.85)
        n, seed = 200_003, 31337
        probs = [_outcome_distribution(rho, _ports(_BASIS_AXES[a]), _ports(_BASIS_AXES[b]),
                                       self.DET) for a, b in BASIS_PAIRS]
        want = make_stream(seed).multinomial(n, _on_grid(np.array(probs)))
        dataset = simulate_tomography_dataset(rho, n, self.DET, seed)
        np.testing.assert_array_equal(np.column_stack([dataset.counts, dataset.discarded]), want)

    def test_datasets_repeat_on_a_thread_pool(self):
        # Each call opens its own stream, so concurrent calls share no state.
        rho = self.generic_state()
        jobs = [(derive_seed(808, i), 10**5 + i) for i in range(16)]

        def draw(job):
            seed, n = job
            dataset = simulate_tomography_dataset(rho, n, self.DET, seed)
            return np.column_stack([dataset.counts, dataset.discarded])

        with ThreadPoolExecutor(max_workers=4) as pool:
            pooled = list(pool.map(draw, jobs))
        for job, got in zip(jobs, pooled):
            np.testing.assert_array_equal(got, draw(job))

    def test_every_cell_follows_its_own_row(self):
        # One dataset of 10**7 sequences per basis pair against the exact
        # (9, 5) table: every cell within 5 binomial sigma of its expectation,
        # and Pearson's chi-square (45 cells, one total per row: 36 degrees
        # of freedom) inside its central 1 - 2e-6 band.  No two rows lie
        # within 20 sigma of each other, so a draw from a wrong row fails.
        from scipy.stats import chi2

        rho, n = self.generic_state(), 10**7
        exact = _outcome_distribution(rho, *TOMOGRAPHY_PORTS, self.DET)
        sigma = np.sqrt(n * exact * (1.0 - exact))
        apart = [np.max(np.abs(exact[i] - exact[j]) * n / sigma[i])
                 for i in range(9) for j in range(9) if i != j]
        assert min(apart) >= 20.0
        dataset = simulate_tomography_dataset(rho, n, self.DET, derive_seed(4242, 1000))
        observed = np.column_stack([dataset.counts, dataset.discarded])
        assert np.all(np.abs(observed - n * exact) <= 5.0 * sigma)
        statistic = np.sum((observed - n * exact) ** 2 / (n * exact))
        assert chi2.ppf(1e-6, 36) <= statistic <= chi2.isf(1e-6, 36)


class TestTomographyDatasetSimulation:
    def test_singlet_anticorrelated_in_every_basis(self):
        ds = simulate_tomography_dataset(singlet_dm(), 100_000, IDEAL, seed=12)
        for label_a, label_b, rec in ds.records:
            if label_a == label_b:
                assert (rec.n_uu + rec.n_dd) / rec.total < 0.01

    def test_maximally_mixed_uniform_cells(self):
        n = 100_000
        ds = simulate_tomography_dataset(np.eye(4) / 4.0, n, IDEAL, seed=13)
        for _, _, rec in ds.records:
            total = rec.total
            sigma = math.sqrt(0.25 * 0.75 * total)
            for cell in rec.counts():
                assert abs(cell - 0.25 * total) <= 3.5 * sigma

    def test_nine_distinct_bases(self):
        ds = simulate_tomography_dataset(singlet_dm(), 100, IDEAL, seed=14)
        pairs = [(a, b) for a, b, _ in ds.records]
        assert len(pairs) == 9
        assert len(set(pairs)) == 9
        assert {a for a, _ in pairs} == set(BASIS_LABELS)

    def test_round_trip_through_reconstruction(self):
        from ces.tomography import mle_reconstruct

        rho = dephased_singlet(0.83)
        ds = simulate_tomography_dataset(rho, 200_000, IDEAL, seed=15)
        fit = mle_reconstruct(ds.counts)
        assert trace_distance(fit.rho, rho) < 0.02

    def test_dataset_holds_read_only_int64_tables(self):
        # counts (9, 4) and discarded (9,) in BASIS_PAIRS order; records
        # gives the same numbers as one CountRecord per pair, at its angles.
        ds = simulate_tomography_dataset(singlet_dm(), 1_000, IDEAL, seed=16)
        assert ds.counts.shape == (9, 4) and ds.discarded.shape == (9,)
        for table in (ds.counts, ds.discarded):
            assert table.dtype == np.int64 and not table.flags.writeable
        assert np.all(ds.counts.sum(axis=1) + ds.discarded == 1_000)
        rows = zip(ds.records, BASIS_PAIRS, ds.counts, ds.discarded, strict=True)
        for (a, b, rec), pair, cells, discarded in rows:
            assert (a, b) == pair
            assert rec.counts().tolist() == cells.tolist() and rec.n_discarded == discarded
            assert rec.setting == MeasurementSetting(BASIS_ANGLES[a], BASIS_ANGLES[b])

    @pytest.mark.parametrize(
        ("counts", "discarded"),
        [
            (np.ones((8, 4), dtype=int), np.zeros(9, dtype=int)),
            (np.ones((9, 4)), np.zeros(9, dtype=int)),
            (np.ones((9, 4), dtype=int), np.zeros((9, 1), dtype=int)),
            (np.ones((9, 4), dtype=int), np.zeros(9)),
            (-np.ones((9, 4), dtype=int), np.zeros(9, dtype=int)),
            (np.ones((9, 4), dtype=int), -np.ones(9, dtype=int)),
        ],
        ids=["short", "float-counts", "column-discarded", "float-discarded", "negative-counts",
             "negative-discarded"],
    )
    def test_dataset_rejects_malformed_tables(self, counts, discarded):
        with pytest.raises(ValueError, match=r"must be a \(9,( 4)?\) array of integers >= 0"):
            TomographyDataset(counts=counts, discarded=discarded)

    @pytest.mark.parametrize("points", [1, 6])
    @pytest.mark.parametrize("seed", [0, 4242, 2**64 - 1])
    def test_state_stack_is_the_per_point_datasets(self, points, seed):
        cfg = load_config(CONFIGS / "sweep.json")
        states = np.array([final_state(cfg.noise, dt).matrix for dt in STORAGE_GRID_US[:points]])
        seeds = [derive_seed(seed, 3000 + i) for i in range(points)]
        stacked = simulate_tomography_dataset(states, 50_000, cfg.detector, seeds)
        assert stacked.counts.shape == (points, 9, 4) and stacked.discarded.shape == (points, 9)
        singles = [simulate_tomography_dataset(rho, 50_000, cfg.detector, s)
                   for rho, s in zip(states, seeds)]
        np.testing.assert_array_equal(stacked.counts, [ds.counts for ds in singles])
        np.testing.assert_array_equal(stacked.discarded, [ds.discarded for ds in singles])
        # Every row of every point, point after point, as the tracer counts them.
        assert stacked.records == tuple(row for ds in singles for row in ds.records)

    def test_state_stack_needs_one_seed_per_state(self):
        stack = np.array([singlet_dm(), singlet_dm()])
        for rho, seeds in ((stack, [1]), (stack, [1, 2, 3]), (singlet_dm(), [1]),
                           (stack[:0], []), (stack[None], [1, 2])):
            with pytest.raises(DimensionError):
                simulate_tomography_dataset(rho, 1000, IDEAL, seeds)

    def test_csv_writer_takes_one_dataset(self, tmp_path):
        from ces.fileio import write_tomography_csv

        stacked = simulate_tomography_dataset(np.array([singlet_dm()] * 2), 100, IDEAL, [1, 2])
        with pytest.raises(DataError, match="one dataset"):
            write_tomography_csv(tmp_path / "t.csv", stacked)
        assert not (tmp_path / "t.csv").exists()

    def test_dataset_copies_its_input(self):
        counts = np.ones((9, 4), dtype=np.int32)
        ds = TomographyDataset(counts=counts, discarded=np.zeros(9, dtype=np.int32))
        counts[0, 0] = 7
        assert ds.counts[0, 0] == 1 and ds.counts.dtype == np.int64


class TestSettingNormalization:
    def test_angles_stored_modulo_180(self):
        s = MeasurementSetting(190.0, -22.5)
        assert s.alpha_deg == pytest.approx(10.0)
        assert s.beta_deg == pytest.approx(157.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSetting(float("nan"), 0.0)

