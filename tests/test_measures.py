"""Entanglement measures: values, identities, and invariances."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from ces.bell import max_chsh_from_state
from ces.errors import DimensionError, ValidationError
from ces.measures import (
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    fidelity_singlet,
    log_negativity,
    report,
)
from ces.qcore import tensor
from conftest import (
    dephased_singlet,
    random_density,
    random_pure,
    random_unitary,
    singlet_dm,
    werner,
)


def s_max(rho) -> float:
    """The state-optimal CHSH value, as the public API gives it."""
    return max_chsh_from_state(rho).s_value


class TestFidelity:
    def test_singlet(self):
        assert fidelity_singlet(singlet_dm()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert fidelity_singlet(np.eye(4) / 4.0) == pytest.approx(0.25, abs=1e-12)

    def test_dephased_closed_form(self):
        for v in (0.0, 0.5, 0.804, 1.0):
            assert fidelity_singlet(dephased_singlet(v)) == pytest.approx(
                (1.0 + v) / 2.0, abs=1e-12
            )


class TestConcurrence:
    def test_singlet(self):
        assert concurrence(singlet_dm()) == pytest.approx(1.0, abs=1e-10)

    def test_dephased_equals_coherence(self):
        for v in (0.1, 0.5, 0.81, 1.0):
            assert concurrence(dephased_singlet(v)) == pytest.approx(v, abs=1e-10)

    def test_werner_closed_form_against_brute_force(self):
        # Oracle: evaluate the spin-flip spectrum by direct eigensolve here
        # (standard y matrix in the conjugation basis) and compare both
        # against the analytic max(0, (3p-1)/2).
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        flip = tensor(sy, sy)
        for p in (0.1, 1.0 / 3.0, 0.6, 0.9):
            rho = werner(p)
            lams = np.sort(
                np.sqrt(np.clip(np.real(np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)), 0, None))
            )[::-1]
            brute = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
            analytic = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert brute == pytest.approx(analytic, abs=1e-10)
            assert concurrence(rho) == pytest.approx(analytic, abs=1e-10)

    def test_pure_state_equals_reduced_determinant_rule(self, rng):
        # For pure states C = 2 sqrt(det rho_A).
        for _ in range(100):
            psi = random_pure(rng, 4)
            rho = np.outer(psi, psi.conj())
            rho_a = np.einsum("abcb->ac", rho.reshape(2, 2, 2, 2))
            expected = 2.0 * math.sqrt(max(0.0, float(np.real(np.linalg.det(rho_a)))))
            assert concurrence(rho) == pytest.approx(expected, abs=1e-8)


class TestEntanglementOfFormation:
    def test_extremes(self):
        assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-12)
        assert eof_from_concurrence(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_published_operating_point(self):
        # C = 0.81 evaluates to 0.735, consistent with the quoted 0.73(4).
        assert eof_from_concurrence(0.81) == pytest.approx(0.735, abs=5e-4)

    def test_zero_iff_zero_concurrence(self):
        sep = werner(0.2)  # concurrence 0
        assert concurrence(sep) == 0.0
        assert entanglement_of_formation(sep) == 0.0
        ent = werner(0.8)
        assert entanglement_of_formation(ent) > 0.0

    def test_monotone_in_concurrence(self):
        grid = np.linspace(0.0, 1.0, 21)
        values = [eof_from_concurrence(c) for c in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestLogNegativity:
    def test_singlet_maximal(self):
        n, e_n = log_negativity(singlet_dm())
        assert n == pytest.approx(0.5, abs=1e-12)
        assert e_n == pytest.approx(1.0, abs=1e-12)

    def test_separable_zero(self, rng):
        for _ in range(5):
            rho = tensor(random_density(rng, 2), random_density(rng, 2))
            n, e_n = log_negativity(rho)
            assert n == pytest.approx(0.0, abs=1e-10)
            assert e_n == pytest.approx(0.0, abs=1e-10)

    def test_dephased_operating_point(self):
        # v = 0.804: N = 0.402, E_N = log2(1.804) = 0.851; the measured
        # 0.867 sits 0.016 above this model value.
        n, e_n = log_negativity(dephased_singlet(0.804))
        assert n == pytest.approx(0.402, abs=1e-12)
        assert e_n == pytest.approx(math.log2(1.804), abs=1e-12)
        assert abs(e_n - 0.867) < 0.02

    def test_identity_between_outputs(self, rng):
        for _ in range(20):
            n, e_n = log_negativity(random_density(rng, 4))
            assert e_n == pytest.approx(math.log2(2.0 * n + 1.0), abs=1e-12)


class TestReport:
    def test_singlet_report(self):
        rep = report(singlet_dm())
        assert rep.fidelity_singlet == pytest.approx(1.0, abs=1e-9)
        assert rep.concurrence == pytest.approx(1.0, abs=1e-9)
        assert rep.eof == pytest.approx(1.0, abs=1e-9)
        assert rep.negativity == pytest.approx(0.5, abs=1e-9)
        assert rep.log_negativity == pytest.approx(1.0, abs=1e-9)
        assert rep.s_max == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_maximally_mixed_report(self):
        rep = report(np.eye(4) / 4.0)
        assert rep.fidelity_singlet == pytest.approx(0.25, abs=1e-12)
        assert rep.concurrence == 0.0
        assert rep.eof == 0.0
        assert rep.negativity == pytest.approx(0.0, abs=1e-12)
        assert rep.s_max <= 2.0


class TestMonotoneFamily:
    def test_dephasing_monotone_and_exact(self):
        grid = np.linspace(0.0, 1.0, 11)
        reports = [report(dephased_singlet(v)) for v in grid]
        for v, rep in zip(grid, reports):
            assert rep.concurrence == pytest.approx(v, abs=1e-9)
            assert rep.fidelity_singlet == pytest.approx((1 + v) / 2, abs=1e-9)
        for name in ("fidelity_singlet", "concurrence", "negativity", "log_negativity", "s_max"):
            series = [getattr(rep, name) for rep in reports]
            assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))


class TestLocalUnitaryInvariance:
    def test_monotones_invariant(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4)
            u = tensor(random_unitary(rng, 2), random_unitary(rng, 2))
            a, b = report(rho), report(u @ rho @ u.conj().T)
            assert a.concurrence == pytest.approx(b.concurrence, abs=1e-9)
            assert a.eof == pytest.approx(b.eof, abs=1e-9)
            assert a.negativity == pytest.approx(b.negativity, abs=1e-9)
            assert a.log_negativity == pytest.approx(b.log_negativity, abs=1e-9)
            assert a.s_max == pytest.approx(b.s_max, abs=1e-9)

    def test_singlet_fidelity_invariant_under_shared_rotation(self, rng):
        # The singlet itself is U x U invariant, so its overlap is too.
        for _ in range(5):
            rho = random_density(rng, 4)
            u2 = random_unitary(rng, 2)
            u = tensor(u2, u2)
            assert fidelity_singlet(u @ rho @ u.conj().T) == pytest.approx(
                fidelity_singlet(rho), abs=1e-10
            )


class TestStacks:
    @staticmethod
    def states(rng) -> np.ndarray:
        """Random full-rank, rank-deficient, separable and singlet states."""
        return np.array(
            [random_density(rng, 4) for _ in range(4)]
            + [random_density(rng, 4, rank=r) for r in (1, 2, 3)]
            + [tensor(random_density(rng, 2), random_density(rng, 2)) for _ in range(2)]
            + [singlet_dm(), werner(0.3), np.eye(4) / 4.0]
        )

    def test_report_on_stack_matches_per_state(self, rng):
        stack = self.states(rng)
        batched = asdict(report(stack))
        for i, rho in enumerate(stack):
            for name, value in asdict(report(rho)).items():
                assert batched[name].shape == (len(stack),)
                assert batched[name][i] == pytest.approx(value, rel=0, abs=1e-12), (i, name)

    def test_single_state_gives_python_floats(self, rng):
        rho = random_density(rng, 4)
        values = [
            fidelity_singlet(rho),
            concurrence(rho),
            entanglement_of_formation(rho),
            eof_from_concurrence(0.5),
            *log_negativity(rho),
            s_max(rho),
            *asdict(report(rho)).values(),
        ]
        assert all(type(v) is float for v in values)

    def test_invalid_row_of_a_stack_is_named(self, rng):
        stack = self.states(rng)
        stack[5] *= 1.1
        with pytest.raises(ValidationError, match="at row 5 .*trace defect 1.00e-01"):
            report(stack)


@pytest.mark.parametrize(
    "measure", [report, fidelity_singlet, concurrence, entanglement_of_formation,
                log_negativity, s_max],
)
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_states_that_are_not_two_qubit_are_rejected(measure, dim):
    with pytest.raises(DimensionError, match="4x4"):
        measure(np.eye(dim) / dim)
