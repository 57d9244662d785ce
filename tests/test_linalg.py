"""Tests for the fixed-size complex matrix layer."""

import numpy as np
import pytest

from qtomo.linalg import cmatrix, is_density
from qtomo.states import SIGMA1, SIGMA2, SIGMA3

I2 = np.eye(2, dtype=complex)
KET0 = cmatrix([[1, 0], [0, 0]])


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


class TestTraceAndElementwise:
    def test_trace_pauli(self):
        assert np.trace(SIGMA1) == 0.0

    def test_pauli_combination_is_projector(self):
        np.testing.assert_allclose(0.5 * I2 + 0.5 * SIGMA3, KET0, atol=0)


class TestPredicates:
    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_density(0.5 * I2, 0.0)
        with pytest.raises(ValueError):
            is_density(I2, -1e-9)

    def test_density_examples(self, non_finite_states):
        assert is_density(0.5 * I2, 1e-9)
        # trace-1 Hermitian with one eigenvalue pushed below -tol
        perturbed = cmatrix([[1.0 + 5e-9, 0.0], [0.0, -5e-9]])
        assert not is_density(perturbed, 1e-9)
        assert not is_density(cmatrix([[0.6, 0], [0, 0.6]]), 1e-9)  # trace 1.2
        assert not is_density(cmatrix([[1, 1], [0, 0]]), 1e-9)  # not Hermitian
        # NaN or inf anywhere, with no warning from the Hermitian residual
        for m in non_finite_states[2] + non_finite_states[4]:
            assert not is_density(m, 1e-9)
