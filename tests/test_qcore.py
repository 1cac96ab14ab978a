"""Linear-algebra core: operations, conventions, and invariants."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from ces import qcore
from ces.errors import DimensionError, ValidationError
from ces.qcore import (
    IDENTITY_2,
    KET_SM,
    KET_SP,
    PAULIS,
    DensityMatrix,
    born_probabilities,
    correlation_matrix,
    partial_transpose,
    require_two_qubit_density,
    require_valid_density,
    tensor,
    validate_density,
)
from conftest import (
    KET_A,
    KET_D,
    KET_H,
    KET_L,
    KET_R,
    KET_V,
    analyzer_projectors,
    basis_projectors,
    dephased_singlet,
    random_density,
    random_hermitian,
    singlet_dm,
    trace_distance,
)


class TestPaulis:
    def test_exact_literals(self):
        # sigma_x = D/A, sigma_y = R/L, sigma_z = H/V in the sigma+/sigma- basis.
        expected = ([[0, -1j], [1j, 0]], [[1, 0], [0, -1]], [[0, 1], [1, 0]])
        for pauli, literal in zip(PAULIS, expected, strict=True):
            assert pauli.dtype == complex
            np.testing.assert_array_equal(pauli, literal)

    def test_match_the_kets_of_the_docstring(self):
        # sigma_k = |k+><k+| - |k-><k-| of the written polarization kets.
        for pauli, (up, down) in zip(PAULIS, ((KET_D, KET_A), (KET_R, KET_L), (KET_H, KET_V))):
            np.testing.assert_allclose(
                pauli, np.outer(up, up.conj()) - np.outer(down, down.conj()), rtol=0, atol=1e-15
            )


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_ordering_convention(self):
        # |s+><s+| x |s-><s-| occupies the {+-} slot of {++, +-, -+, --}
        proj = tensor(np.outer(KET_SP, KET_SP.conj()), np.outer(KET_SM, KET_SM.conj()))
        np.testing.assert_allclose(proj, np.diag([0, 1, 0, 0]).astype(complex), atol=1e-15)

    def test_eigenvalues_multiply(self, rng):
        # Oracle: eigensolve both factors and the product independently.
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        ea = np.linalg.eigvalsh(a)
        eb = np.linalg.eigvalsh(b)
        expected = np.sort(np.multiply.outer(ea, eb).reshape(-1))
        actual = np.sort(np.linalg.eigvalsh(tensor(a, b)))
        np.testing.assert_allclose(actual, expected, atol=1e-10)

    def test_mixed_product_identity(self, rng):
        # (A x B)(C x D) = AC x BD
        a, b, c, d = (random_hermitian(rng, 2) for _ in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        np.testing.assert_allclose(lhs, tensor(a @ c, b @ d), atol=1e-12)

    def test_associativity(self, rng):
        # Entries are triple products evaluated in different orders, so the
        # match is exact up to the last ulp of complex multiplication.
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        np.testing.assert_allclose(
            tensor(tensor(a, b), c), tensor(a, tensor(b, c)), rtol=1e-14, atol=1e-16
        )


    def test_equals_kron_bit_for_bit(self, rng):
        # Broadcasting forms each entry as the one product np.kron forms, so
        # the bytes agree: on the shipped operators, on random complex
        # matrices, on a product of three factors and on kets.
        def random_complex(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        operators = [IDENTITY_2, *PAULIS, *analyzer_projectors(22.5), *analyzer_projectors(-67.5)]
        operators += [*basis_projectors("DA"), *basis_projectors("RL")]
        operators += [random_complex(2, 2) for _ in range(8)]
        kets = [KET_SP, KET_SM, KET_H, KET_V, KET_D, KET_A, KET_R, KET_L, random_complex(2)]
        pairs = [(a, b) for group in (operators, kets) for a in group for b in group]
        pairs += [(tensor(a, b), c) for a, b, c in zip(operators, operators[1:], operators[2:])]
        for a, b in pairs:
            expected = np.kron(a, b)
            actual = tensor(a, b)
            assert actual.shape == expected.shape
            assert actual.tobytes() == expected.tobytes()


class TestPartialTranspose:
    def test_product_state_stays_psd(self, rng):
        rho = tensor(random_density(rng, 2), random_density(rng, 2))
        pt = partial_transpose(rho)
        assert np.min(np.linalg.eigvalsh(pt)) > -1e-12

    def test_singlet_minimum_eigenvalue(self):
        # Analytic eigensolve of the partially transposed singlet.
        eigs = np.sort(np.linalg.eigvalsh(partial_transpose(singlet_dm())))
        np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_transposes_photon_two(self, rng):
        # A (x) B -> A (x) B^T: the second factor, not the first, is transposed.
        a, b = random_density(rng, 2), random_density(rng, 2)
        np.testing.assert_allclose(partial_transpose(tensor(a, b)), tensor(a, b.T), atol=1e-15)

    def test_involution(self, rng):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(partial_transpose(partial_transpose(rho)), rho, atol=0)

    def test_preserves_trace_and_hermiticity(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            pt = partial_transpose(rho)
            assert abs(np.trace(pt) - np.trace(rho)) <= 1e-12
            assert np.max(np.abs(pt - pt.conj().T)) <= 1e-12

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            partial_transpose(np.eye(8) / 8.0)


class TestValidateDensity:
    def test_singlet_passes(self):
        assert validate_density(singlet_dm()).passed

    def test_trace_defect_reported(self):
        diag = validate_density(0.9 * singlet_dm())
        assert not diag.passed
        assert diag.trace_defect == pytest.approx(0.1, abs=1e-12)

    def test_low_count_linear_inversion_fails_psd(self):
        # Low-statistics linear inversion leaves the physical set; the
        # diagnostic must report the negative eigenvalue instead of hiding it.
        from ces.detection import DetectorParams, simulate_tomography_dataset
        from ces.tomography import linear_inversion

        ds = simulate_tomography_dataset(singlet_dm(), 100, DetectorParams(), seed=5)
        assert min(rec.total for _, _, rec in ds.records) >= 30  # ~50 pairs/basis
        result = linear_inversion(ds.counts)
        diag = validate_density(result.rho)
        assert diag.min_eigenvalue < -1e-9
        assert not diag.passed
        assert not result.psd_ok


    @pytest.mark.parametrize("value", [1e308, -1e308, 1e308j, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (2, 3)])
    def test_huge_or_non_finite_entry_fails_without_warnings(self, value, where):
        stack = np.array([np.eye(4, dtype=complex) / 4.0] * 3)
        stack[1][where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(validate_density(stack).passed, [True, False, True])
            assert not validate_density(stack[1]).passed
            with pytest.raises(ValidationError, match="at row 1 "):
                require_valid_density(stack)

    def test_hermitian_part_is_that_of_the_sum(self, rng):
        # The halves are summed so that a finite matrix cannot overflow;
        # for a finite one this is the same number, bit for bit.
        for rank in (1, 2, 4):
            mat = random_density(rng, 4, rank=rank)
            expected = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
            assert validate_density(mat).min_eigenvalue == expected


class TestValidationCache:
    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        real = qcore.validate_density

        def counting(rho):
            calls.append(rho)
            return real(rho)

        monkeypatch.setattr(qcore, "validate_density", counting)
        return calls

    def test_a_state_that_passed_is_not_checked_again(self, validations):
        rho = DensityMatrix(singlet_dm())
        for _ in range(3):
            assert require_valid_density(rho) is rho.matrix
            assert require_two_qubit_density(rho) is rho.matrix
        assert len(validations) == 1

    def test_an_array_is_checked_on_every_call(self, validations):
        mat = singlet_dm()
        for n in range(1, 4):
            require_valid_density(mat)
            require_two_qubit_density(mat)
            assert len(validations) == 2 * n

    def test_a_failing_state_is_checked_and_raises_on_every_call(self, validations):
        rho = DensityMatrix(0.5 * np.eye(4))
        seen = 0
        for _ in range(3):
            with pytest.raises(ValidationError, match="trace defect"):
                require_two_qubit_density(rho)
            assert len(validations) > seen
            seen = len(validations)

    def test_a_replaced_matrix_is_checked_again(self, validations):
        rho = DensityMatrix(singlet_dm())
        require_valid_density(rho)
        rho.matrix = 0.5 * np.eye(4)
        with pytest.raises(ValidationError):
            require_valid_density(rho)
        assert len(validations) > 1


class TestDensityMatrix:
    def test_immutable(self):
        rho = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestDensityMatrixJson:
    def test_round_trip(self, rng):
        rho = DensityMatrix(random_density(rng, 4))
        again = DensityMatrix.from_json_dict(rho.to_json_dict())
        assert trace_distance(rho, again) <= 1e-15

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            DensityMatrix.from_json_dict({"dim": 4, "re": [1.0], "im": [0.0]})

    @pytest.mark.parametrize("dim", [4.9, 4.0, "4", True])
    def test_dimension_that_is_not_an_integer_rejected(self, dim):
        with pytest.raises(ValidationError, match="integer dim"):
            DensityMatrix.from_json_dict({"dim": dim, "re": [0.25] * 16, "im": [0.0] * 16})

    @pytest.mark.parametrize(("dim", "size"), [(0, 0), (-1, 1)])
    def test_dimension_below_one_rejected(self, dim, size):
        with pytest.raises(DimensionError, match="dim >= 1"):
            DensityMatrix.from_json_dict({"dim": dim, "re": [1.0] * size, "im": [0.0] * size})


class TestTwoQubitCheck:
    def test_valid_state_and_stack_pass_unchanged(self, rng):
        stack = np.array([random_density(rng, 4) for _ in range(3)])
        np.testing.assert_array_equal(require_two_qubit_density(stack), stack)
        np.testing.assert_array_equal(require_two_qubit_density(stack[0]), stack[0])

    @pytest.mark.parametrize(
        "bad", [np.eye(2) / 2.0, np.tile(np.eye(2) / 2.0, (3, 1, 1)), np.eye(8) / 8.0]
    )
    def test_other_shapes_are_dimension_errors(self, bad):
        with pytest.raises(DimensionError, match="4x4"):
            require_two_qubit_density(bad)

    def test_unphysical_two_qubit_state_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            require_two_qubit_density(0.5 * np.eye(4))


class TestStacks:
    def test_stack_functions_match_per_matrix(self, rng):
        stack = np.array([random_density(rng, 4) for _ in range(5)])
        for i, rho in enumerate(stack):
            np.testing.assert_array_equal(partial_transpose(stack)[i], partial_transpose(rho))
            np.testing.assert_allclose(
                correlation_matrix(stack)[i], correlation_matrix(rho), rtol=0, atol=1e-15
            )
            assert trace_distance(stack, stack[::-1])[i] == pytest.approx(
                trace_distance(rho, stack[::-1][i]), abs=1e-15
            )

    def test_validate_density_over_a_stack(self, rng):
        stack = np.array([random_density(rng, 4) for _ in range(4)])
        stack[2] *= 0.9
        diag = validate_density(stack)
        np.testing.assert_array_equal(diag.passed, [True, True, False, True])
        assert diag.trace_defect[2] == pytest.approx(0.1, abs=1e-12)
        with pytest.raises(ValidationError, match="at row 2 "):
            require_valid_density(stack)

    def test_single_matrix_diagnostics_are_python_scalars(self, rng):
        diag = validate_density(random_density(rng, 4))
        assert type(diag.min_eigenvalue) is float and type(diag.passed) is bool

    def test_born_probabilities_are_traces(self, rng):
        projectors = np.array([random_density(rng, 4) for _ in range(6)])
        stack = np.array([random_density(rng, 4) for _ in range(3)])
        expected = np.real(np.einsum("bij,kji->bk", stack, projectors))
        np.testing.assert_allclose(born_probabilities(projectors, stack), expected, atol=1e-15)
        np.testing.assert_allclose(born_probabilities(projectors, stack[1]), expected[1], atol=1e-15)
