"""Tests for the fixed-size complex matrix layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtomo.linalg import cmatrix, is_density, is_hermitian, is_unitary, kron, max_abs
from qtomo.states import SIGMA1, SIGMA2, SIGMA3

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
KET0 = cmatrix([[1, 0], [0, 0]])
KET1 = cmatrix([[0, 0], [0, 1]])


def complex_matrices(dim):
    """Random matrices with re/im entries in [-1, 1]."""
    parts = arrays(np.float64, (dim, dim, 2), elements=st.floats(-1.0, 1.0, allow_nan=False))
    return parts.map(lambda r: cmatrix(r[..., 0] + 1j * r[..., 1]))


class TestConstruction:
    def test_rejects_unsupported_shapes(self):
        with pytest.raises(ValueError):
            cmatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            cmatrix(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            cmatrix([1.0, 2.0])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            cmatrix([[np.nan, 0], [0, 0]])
        with pytest.raises(ValueError):
            cmatrix([[0, 1j * np.inf], [0, 0]])

    def test_result_is_read_only(self):
        m = cmatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


class TestMatmul:
    """Products of the Pauli constants under numpy's `@`, the product the oracle uses."""

    def test_pauli_involution(self):
        np.testing.assert_array_equal(SIGMA1 @ SIGMA1, I2)

    def test_pauli_product(self):
        # sigma1 @ sigma2 expanded by hand: [[0,1],[1,0]] @ [[0,-i],[i,0]]
        expected = cmatrix([[1j, 0], [0, -1j]])
        np.testing.assert_array_equal(SIGMA1 @ SIGMA2, expected)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(I2, I2), I4)

    def test_basis_order(self):
        # |0><0| kron |1><1| occupies the |01> slot
        np.testing.assert_array_equal(kron(KET0, KET1), np.diag([0, 1, 0, 0]).astype(complex))

    def test_sigma3_blocks(self):
        # block expansion by hand: diag(1, -1) kron diag(1, -1)
        expected = np.diag([1, -1, -1, 1]).astype(complex)
        np.testing.assert_array_equal(kron(SIGMA3, SIGMA3), expected)

    def test_rejects_4x4_operands(self):
        with pytest.raises(ValueError):
            kron(I4, I2)
        with pytest.raises(ValueError):
            kron(I2, I4)

    @settings(deadline=None)
    @given(complex_matrices(2), complex_matrices(2), complex_matrices(2), complex_matrices(2))
    def test_mixed_product(self, a, b, c, d):
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert max_abs(lhs - rhs) <= 1e-12


class TestTraceAndElementwise:
    def test_trace_pauli(self):
        assert np.trace(SIGMA1) == 0.0

    @settings(deadline=None)
    @given(complex_matrices(2))
    def test_trace_of_appended_block(self, m):
        # tr((|0><0| kron m)) computed two ways
        assert abs(np.trace(kron(KET0, m)) - np.trace(m)) <= 1e-12

    def test_pauli_combination_is_projector(self):
        np.testing.assert_allclose(0.5 * I2 + 0.5 * SIGMA3, KET0, atol=0)


class TestPredicates:
    def test_unitary_examples(self):
        assert is_unitary(I2, 1e-9)
        assert is_unitary(SIGMA2, 1e-9)
        assert not is_unitary(cmatrix([[1, 0], [0, 0.5]]), 1e-9)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_unitary(I2, 0.0)
        with pytest.raises(ValueError):
            is_density(I2, -1e-9)

    def test_hermitian(self):
        assert is_hermitian(SIGMA2, 1e-12)
        assert not is_hermitian(cmatrix([[0, 1], [0, 0]]), 1e-12)

    def test_density_examples(self):
        assert is_density(0.5 * I2, 1e-9)
        # trace-1 Hermitian with one eigenvalue pushed below -tol
        perturbed = cmatrix([[1.0 + 5e-9, 0.0], [0.0, -5e-9]])
        assert not is_density(perturbed, 1e-9)
        assert not is_density(cmatrix([[0.6, 0], [0, 0.6]]), 1e-9)  # trace 1.2
        assert not is_density(cmatrix([[1, 1], [0, 0]]), 1e-9)  # not Hermitian

