"""Tests for qubit state representations and Stokes conversions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtomo.game import Strategy
from qtomo.linalg import DEFAULT_TOL, cmatrix, is_density, max_abs
from qtomo.states import (
    PAULIS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    TWO_PI,
    PureQubit,
    StokesVector,
    _pauli_stokes,
    _pure_rows,
    density_from_stokes,
    fidelity,
    pure_density,
    stokes_of,
    trace_distance,
)
from qtomo.tomography import _tomography, reconstruct, run_tomography

I2 = np.eye(2, dtype=complex)
KET0 = cmatrix([[1, 0], [0, 0]])
KET1 = cmatrix([[0, 0], [0, 1]])

angles = st.floats(0.0, math.pi, allow_nan=False)
phases = st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False)


def bloch_vectors(max_norm=1.0):
    coords = st.tuples(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    return coords.filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= max_norm**2)


# Bloch coordinates near zero: signed zeros, sub-ulp offsets and subnormals.
ZERO_CORNERS = (0.0, -0.0, 1e-16, -1e-16, 5e-324, -5e-324)
corner_coords = st.one_of(st.sampled_from(ZERO_CORNERS), st.floats(-1.0, 1.0, allow_nan=False))


class TestPureQubit:
    def test_theta_out_of_range_is_error(self):
        with pytest.raises(ValueError):
            PureQubit(-0.1, 0.0)
        with pytest.raises(ValueError, match=r"^theta must be in \[0, pi\], got 4\.0$"):
            PureQubit(4.0, 0.0)

    def test_negative_zero_angle_is_stored_as_zero(self):
        assert math.copysign(1.0, PureQubit(-0.0).theta) == 1.0
        assert math.copysign(1.0, PureQubit(-0.0, -0.0).phi) == 1.0
        assert math.copysign(1.0, Strategy(-0.0).beta) == 1.0

    def test_phi_is_normalized(self):
        assert PureQubit(0.5, 2.0 * math.pi).phi == 0.0
        assert PureQubit(0.5, -math.pi / 2).phi == pytest.approx(1.5 * math.pi)

    def test_non_finite_rejected(self):
        for theta, phi in ((math.nan, 0.0), (0.5, -math.inf)):
            with pytest.raises(ValueError, match=r"^angles must be finite$"):
                PureQubit(theta, phi)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-1e-17)
    @example(-5e-324)
    @example(-0.0)
    @example(TWO_PI)
    @example(-TWO_PI)
    def test_angles_land_in_zero_to_two_pi(self, angle):
        # For a tiny negative angle, `angle % TWO_PI` rounds up to TWO_PI itself.
        assert 0.0 <= PureQubit(1.0, angle).phi < TWO_PI
        assert 0.0 <= Strategy(1.0, angle).alpha < TWO_PI


class TestPureDensity:
    def test_poles(self):
        np.testing.assert_allclose(pure_density(PureQubit(0.0, 0.0)), KET0, atol=0)
        np.testing.assert_allclose(pure_density(PureQubit(math.pi, 0.0)), KET1, atol=1e-15)

    def test_equator_with_phase(self):
        # |psi><psi| at (pi/2, pi/2) expanded by hand
        expected = 0.5 * np.array([[1, -1j], [1j, 1]])
        np.testing.assert_allclose(pure_density(PureQubit(math.pi / 2, math.pi / 2)), expected, atol=1e-15)

    @settings(deadline=None)
    @given(angles, phases)
    def test_entries_match_parameterization(self, theta, phi):
        rho = pure_density(PureQubit(theta, phi))
        assert rho[0, 0].real == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-15)
        assert abs(rho[1, 0] - np.exp(1j * phi) * math.sin(theta) / 2) <= 1e-15


class TestStokesOf:
    def test_maximally_mixed(self):
        s = stokes_of(0.5 * I2)
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 0.0, 0.0, 0.0)

    @settings(deadline=None)
    @given(angles, phases)
    def test_pure_state_angles(self, theta, phi):
        s = stokes_of(pure_density(PureQubit(theta, phi)))
        np.testing.assert_allclose(
            [s.s0, s.s1, s.s2, s.s3],
            [1.0, math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)],
            atol=1e-12,
        )

    def test_linearity(self):
        rho = cmatrix(0.5 * (np.asarray(SIGMA0) + 0.3 * np.asarray(SIGMA1)))
        s = stokes_of(rho)
        np.testing.assert_allclose([s.s0, s.s1, s.s2, s.s3], [1.0, 0.3, 0.0, 0.0], atol=1e-15)

    def test_rejects_non_density(self, non_finite_states):
        with pytest.raises(ValueError):
            stokes_of(SIGMA1)
        for rho in non_finite_states[2]:
            with pytest.raises(ValueError, match="expected a valid 2x2 density matrix"):
                stokes_of(rho)

    def test_hermiticity_residue_within_tol_is_accepted(self):
        # is_density accepts this matrix, so its Stokes vector and its
        # fidelity must be read, not rejected over the 1e-9 imaginary residue.
        rho = cmatrix([[0.5, 0.5 + 5e-10j], [0.5 + 5e-10j, 0.5]])
        assert is_density(rho)
        s = stokes_of(rho)
        assert [s.s0, s.s1, s.s2, s.s3] == [1.0, 1.0, 0.0, 0.0]
        expected = 0.5 * (1.0 + math.sin(1.0) * math.cos(1.0))
        assert fidelity(PureQubit(1.0, 1.0), rho) == pytest.approx(expected, abs=1e-12)


class TestPauliStokes:
    """The entry formulas of `_pauli_stokes` against the traces tr(sigma_i rho) as products."""

    @staticmethod
    def assert_matches_pauli_traces(rho):
        got = _pauli_stokes(rho)
        for sigma, value in zip(PAULIS, (got.s0, got.s1, got.s2, got.s3)):
            m = sigma @ rho
            expected = float((m[0, 0] + m[1, 1]).real)
            assert value == expected and np.signbit(value) == np.signbit(expected), (rho, sigma)

    @settings(deadline=None)
    @given(st.tuples(corner_coords, corner_coords, corner_coords))
    def test_matrices_built_from_bloch_vectors(self, v):
        # density_from_stokes inside the ball, and reconstruct's projection of any vector.
        if v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0:
            self.assert_matches_pauli_traces(density_from_stokes(StokesVector(1.0, *v)))
        self.assert_matches_pauli_traces(reconstruct(StokesVector(1.0, *v))[0])

    @settings(deadline=None)
    @given(st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), angles),
           st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, 1.5 * math.pi]), phases))
    def test_pure_states(self, theta, phi):
        self.assert_matches_pauli_traces(pure_density(PureQubit(theta, phi)))

    def test_signed_zero_corners(self):
        for v in itertools.product(ZERO_CORNERS, repeat=3):
            self.assert_matches_pauli_traces(density_from_stokes(StokesVector(1.0, *v)))
            self.assert_matches_pauli_traces(reconstruct(StokesVector(1.0, *v))[0])


class TestDensityFromStokes:
    def test_pole(self):
        np.testing.assert_allclose(density_from_stokes(StokesVector(1, 0, 0, 1)), KET0, atol=0)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(density_from_stokes(StokesVector(1, 0, 0, 0)), 0.5 * I2, atol=0)

    def test_rejects_out_of_ball(self):
        with pytest.raises(ValueError):
            density_from_stokes(StokesVector(1.0, 1.2, 0.0, 0.0))

    def test_rejects_unnormalized_s0(self):
        with pytest.raises(ValueError):
            density_from_stokes(StokesVector(0.9, 0.0, 0.0, 0.0))

    @settings(deadline=None)
    @given(angles, phases)
    def test_round_trip_pure(self, theta, phi):
        rho = pure_density(PureQubit(theta, phi))
        rebuilt = density_from_stokes(stokes_of(rho))
        assert max_abs(rebuilt - rho) <= 1e-12

    @settings(deadline=None)
    @given(bloch_vectors())
    def test_round_trip_mixed(self, vec):
        s = StokesVector(1.0, *vec)
        rho = density_from_stokes(s)
        back = stokes_of(rho)
        np.testing.assert_allclose([back.s1, back.s2, back.s3], vec, atol=1e-12)


def _pauli_sum(s0, s1, s2, s3):
    """rho = (1/2) sum_i s_i sigma_i as the plain Pauli sum: the oracle for the written-out entries."""
    return 0.5 * (s0 * SIGMA0 + s1 * SIGMA1 + s2 * SIGMA2 + s3 * SIGMA3)


# Coordinates whose signs and last bits the entry formulas must keep, all inside the ball together.
BYTE_CORNERS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, -0.5)
# s0 at 1 and within DEFAULT_TOL of it, where `density_from_stokes` accepts it.
S0_TOL = 0.999 * DEFAULT_TOL
NEAR_ONE = (1.0, 1.0 - S0_TOL, 1.0 + S0_TOL, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))


class TestStokesDensityMatchesPauliSum:
    """`density_from_stokes` and `run_tomography`'s rho_hat equal the Pauli sum byte for byte."""

    @staticmethod
    def assert_bytes_equal(rho, s):
        # Read-only, and no writable array behind it that could change it.
        assert not rho.flags.writeable
        assert rho.base is None or not rho.base.flags.writeable
        assert rho.tobytes() == _pauli_sum(*s).tobytes(), s

    def test_corner_grid(self):
        for s0 in NEAR_ONE:
            for v in itertools.product(BYTE_CORNERS, repeat=3):
                self.assert_bytes_equal(density_from_stokes(StokesVector(s0, *v)), (s0, *v))

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(st.sampled_from(NEAR_ONE), st.floats(1.0 - S0_TOL, 1.0 + S0_TOL)),
        st.tuples(*[st.one_of(st.sampled_from(BYTE_CORNERS), st.floats(-1.0, 1.0))] * 3).filter(
            lambda v: StokesVector(1.0, *v).bloch_norm() <= 1.0 + DEFAULT_TOL
        ),
    )
    def test_density_from_stokes(self, s0, v):
        self.assert_bytes_equal(density_from_stokes(StokesVector(s0, *v)), (s0, *v))

    @settings(deadline=None, max_examples=150)
    @given(
        st.builds(PureQubit, angles, phases),
        st.sampled_from([1, 2, 3, 16, 4096]),
        st.integers(0, 2**64 - 1),
    )
    def test_rho_hat_of_run_tomography(self, q, shots, seed):
        (t,) = _tomography(_pure_rows([(q.theta, q.phi)]), shots, [seed]).bloch_hat
        self.assert_bytes_equal(run_tomography(q, shots, seed).rho_hat, (1.0, *t))


class TestPauliAlgebra:
    def test_squares_are_identity(self):
        for sigma in (SIGMA1, SIGMA2, SIGMA3):
            np.testing.assert_array_equal(sigma @ sigma, I2)

    def test_orthogonality(self):
        for i, a in enumerate(PAULIS):
            for j, b in enumerate(PAULIS):
                expected = 2.0 if i == j else 0.0
                assert complex(np.trace(a @ b)) == expected

    def test_representation_matches_angles(self):
        thetas = np.linspace(0.0, math.pi, 11)
        phis = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        for theta in thetas:
            for phi in phis:
                rho = pure_density(PureQubit(float(theta), float(phi)))
                expansion = 0.5 * (
                    np.asarray(SIGMA0)
                    + math.sin(theta) * math.cos(phi) * np.asarray(SIGMA1)
                    + math.sin(theta) * math.sin(phi) * np.asarray(SIGMA2)
                    + math.cos(theta) * np.asarray(SIGMA3)
                )
                assert max_abs(rho - expansion) <= 1e-12

    def test_pure_states_sit_on_the_sphere(self):
        for theta in np.linspace(0.0, math.pi, 11):
            for phi in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
                s = stokes_of(pure_density(PureQubit(float(theta), float(phi))))
                assert abs(s.bloch_norm() - 1.0) <= 1e-12


class TestMetrics:
    def test_fidelity_examples(self):
        pole = PureQubit(0.0, 0.0)
        assert fidelity(pole, KET0) == 1.0
        assert fidelity(pole, KET1) == 0.0
        assert fidelity(pole, 0.5 * I2) == 0.5

    def test_fidelity_rejects_non_density(self, non_finite_states):
        with pytest.raises(ValueError):
            fidelity(PureQubit(0.0, 0.0), SIGMA1)
        for rho in non_finite_states[2]:
            with pytest.raises(ValueError, match="expected a valid 2x2 density matrix"):
                fidelity(PureQubit(0.0, 0.0), rho)

    def test_trace_distance_examples(self):
        rho = pure_density(PureQubit(1.0, 2.0))
        assert trace_distance(rho, rho) <= 1e-12
        assert trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            trace_distance(KET0, cmatrix(np.diag([1.0, 0, 0, 0])))

    @settings(deadline=None)
    @given(bloch_vectors(), bloch_vectors(), angles, phases)
    def test_closed_forms_match_the_matrix_definitions(self, va, vb, theta, phi):
        # The old matrix routes as oracles: half the absolute eigenvalue sum
        # of a - b, and <psi|rho|psi> from the amplitudes of the pure target.
        a = density_from_stokes(StokesVector(1.0, *va))
        b = density_from_stokes(StokesVector(1.0, *vb))
        eig_distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))
        assert abs(trace_distance(a, b) - eig_distance) <= 1e-12
        psi = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
        overlap = np.vdot(psi, b @ psi).real
        assert abs(fidelity(PureQubit(theta, phi), b) - overlap) <= 1e-12

    def test_trace_distance_is_half_bloch_distance(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            va = rng.uniform(-1, 1, 3)
            vb = rng.uniform(-1, 1, 3)
            for v in (va, vb):
                norm = np.linalg.norm(v)
                if norm > 1.0:
                    v /= norm
            a = density_from_stokes(StokesVector(1.0, *va))
            b = density_from_stokes(StokesVector(1.0, *vb))
            assert trace_distance(a, b) == pytest.approx(0.5 * np.linalg.norm(va - vb), abs=1e-9)
