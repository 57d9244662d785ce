"""Tests for strategy unitaries, evolution, and the two payoff routes."""

import math

import numpy as np
import pytest

from qtomo.game import (
    PayoffMatrix,
    Strategy,
    evolve,
    initial_state,
    payoff_closed_form,
    payoff_exact,
    strategy_unitary,
)
from qtomo.linalg import cmatrix, is_density, max_abs
from qtomo.states import PureQubit, pure_density
from qtomo.tomography import ALICE_PAYOFF, BOB_PAYOFF, protocol_steps

HALF_PI = math.pi / 2


def random_strategy(rng):
    return Strategy(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))


def random_pure(rng):
    return PureQubit(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))


class TestStrategy:
    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            Strategy(-0.1, 0.0)
        with pytest.raises(ValueError):
            Strategy(3.5, 0.0)

    def test_alpha_normalized(self):
        assert Strategy(0.5, 2.0 * math.pi).alpha == 0.0

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"^strategy angles must be finite$"):
            Strategy(0.5, math.inf)
        with pytest.raises(ValueError, match=r"^strategy angles must be finite$"):
            Strategy(math.nan, 0.0)
        with pytest.raises(ValueError, match=r"^beta must be in \[0, pi\], got 3\.5$"):
            Strategy(3.5, 0.0)

    @pytest.mark.parametrize(
        "given, stored",
        [((-0.0, -0.0), (0.0, 0.0)), ((math.pi, math.pi), (math.pi, math.pi)), ((1.0, -1e-20), (1.0, 0.0))],
    )
    def test_stores_the_pair_pure_qubit_stores(self, given, stored):
        # One rule checks and stores both angle pairs: a zero is stored as +0.0,
        # and a tiny negative azimuth wraps to 0.0, not to 2 pi.
        def signed(pair):
            return [(x, math.copysign(1.0, x)) for x in pair]

        s, q = Strategy(*given), PureQubit(*given)
        assert signed((s.beta, s.alpha)) == signed((q.theta, q.phi)) == signed(stored)

    def test_identity_at_zero(self):
        np.testing.assert_array_equal(strategy_unitary(Strategy(0.0, 0.0)), np.eye(2))

    def test_pure_flip_at_beta_pi(self):
        expected = np.array([[0, 1], [-1, 0]], dtype=complex)
        for alpha in (0.0, 1.0, 5.5):
            np.testing.assert_allclose(strategy_unitary(Strategy(math.pi, alpha)), expected, atol=1e-15)

    def test_quarter_turn_with_phase(self):
        # column formulas at beta = alpha = pi/2, expanded by hand
        r = math.sqrt(0.5)
        expected = np.array([[1j * r, r], [-r, -1j * r]])
        np.testing.assert_allclose(strategy_unitary(Strategy(HALF_PI, HALF_PI)), expected, atol=1e-15)

    def test_unitary_on_grid(self):
        for beta in np.linspace(0.0, math.pi, 9):
            for alpha in np.arange(8) * (math.pi / 4):
                u = strategy_unitary(Strategy(float(beta), float(alpha)))
                assert np.allclose(u @ u.conj().T, np.eye(2), rtol=0.0, atol=1e-12)


class TestInitialState:
    def test_pole(self):
        np.testing.assert_array_equal(
            initial_state(cmatrix([[1, 0], [0, 0]])), np.diag([1, 0, 0, 0]).astype(complex)
        )

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            initial_state(0.5 * np.eye(2)), np.diag([0.5, 0.5, 0, 0]).astype(complex), atol=0
        )

    def test_rejects_non_density(self, non_finite_states):
        with pytest.raises(ValueError):
            initial_state(cmatrix([[1, 1], [1, 1]]))
        for rho in non_finite_states[2]:
            with pytest.raises(ValueError, match="expected a valid 2x2 density matrix"):
                initial_state(rho)

    def test_matches_expanded_form(self):
        # The appended state written out entry by entry, as an independent
        # transcription: cos^2(t/2)|00><00| + sin^2(t/2)|01><01|
        #   + (sin(t) e^{i p}/2) (|01><00| + e^{-2ip} |00><01|)
        for theta in np.linspace(0.0, math.pi, 9):
            for phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                expected = np.zeros((4, 4), dtype=complex)
                expected[0, 0] = math.cos(theta / 2) ** 2
                expected[1, 1] = math.sin(theta / 2) ** 2
                coeff = math.sin(theta) * np.exp(1j * phi) / 2
                expected[1, 0] = coeff
                expected[0, 1] = coeff * np.exp(-2j * phi)
                rho_in = initial_state(pure_density(PureQubit(float(theta), float(phi))))
                assert max_abs(rho_in - expected) <= 1e-12


class TestEvolve:
    def test_identity_strategies_fix_the_state(self):
        rho_in = initial_state(pure_density(PureQubit(0.7, 2.1)))
        run = evolve(rho_in, Strategy(0.0, 0.0), Strategy(0.0, 0.0))
        np.testing.assert_array_equal(run.rho_f, rho_in)

    def test_double_flip_moves_00_to_11(self):
        rho_in = cmatrix(np.diag([1.0, 0, 0, 0]))
        run = evolve(rho_in, Strategy(math.pi, 1.3), Strategy(math.pi, 0.2))
        np.testing.assert_allclose(run.rho_f, np.diag([0, 0, 0, 1.0]).astype(complex), atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho_in = initial_state(pure_density(random_pure(rng)))
            run = evolve(rho_in, random_strategy(rng), random_strategy(rng))
            assert abs(np.trace(run.rho_f) - 1.0) <= 1e-12

    def test_spectrum_and_hermiticity_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho_in = initial_state(pure_density(random_pure(rng)))
            run = evolve(rho_in, random_strategy(rng), random_strategy(rng))
            assert max_abs(run.rho_f - run.rho_f.conj().T) <= 1e-12
            np.testing.assert_allclose(
                np.linalg.eigvalsh(run.rho_f), np.linalg.eigvalsh(run.rho_in), atol=1e-9
            )
            assert is_density(run.rho_f, 1e-9)

    def test_result_is_read_only(self):
        # Each of the oracle's matrices, from the pure state to the evolved one.
        rho = pure_density(PureQubit(0.7, 2.1))
        rho_in = initial_state(rho)
        run = evolve(rho_in, Strategy(1.0), Strategy(0.5))
        for m in (rho, rho_in, strategy_unitary(Strategy(1.0, 2.0)), run.rho_f):
            assert m.dtype == np.complex128
            with pytest.raises(ValueError):
                m[0, 0] = 0.0

    def test_rejects_non_density(self, non_finite_states):
        with pytest.raises(ValueError):
            evolve(cmatrix(np.diag([1.5, -0.5, 0, 0])), Strategy(0.0), Strategy(0.0))
        for rho_in in non_finite_states[4]:
            with pytest.raises(ValueError, match="expected a valid 4x4 density matrix"):
                evolve(rho_in, Strategy(0.0), Strategy(0.0))


class TestPayoffMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PayoffMatrix(math.inf, 0, 0, 0)


def _step(label):
    return next(s for s in protocol_steps() if s.label == label)


class TestPayoffExact:
    def test_s3_step_at_the_pole(self):
        rho_in = initial_state(pure_density(PureQubit(0.0, 0.0)))
        step = _step("S3")
        run = evolve(rho_in, step.strategy_a, step.strategy_b)
        assert payoff_exact(run, step.payoff_a) == 1.0

    def test_s2_step_on_equator(self):
        rho_in = initial_state(pure_density(PureQubit(HALF_PI, HALF_PI)))
        step = _step("S2")
        run = evolve(rho_in, step.strategy_a, step.strategy_b)
        assert payoff_exact(run, step.payoff_a) == pytest.approx(1.0, abs=1e-12)
        assert payoff_exact(run, BOB_PAYOFF) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_operator_scores_zero(self):
        rho_in = initial_state(0.5 * np.eye(2))
        run = evolve(rho_in, Strategy(1.0, 2.0), Strategy(0.3, 0.4))
        assert payoff_exact(run, PayoffMatrix(0, 0, 0, 0)) == 0.0

    def test_large_entries_scale_an_accepted_residue(self):
        # The input passes is_density with a 1e-9 Hermiticity residue; payoff
        # entries of order 1e3 scale the imaginary part of tr(P rho_f) to
        # ~1e-6, and the real part is still the payoff.
        rho = cmatrix([[0.5, 0.5 + 5e-10j], [0.5 + 5e-10j, 0.5]])
        sa, sb = Strategy(0.3, 0.2), Strategy(1.0, 0.7)
        p = PayoffMatrix(1e3, -1e3, 5e2, 7e2)
        value = payoff_exact(evolve(initial_state(rho), sa, sb), p)
        assert value == pytest.approx(payoff_closed_form(p, sa, sb, PureQubit(HALF_PI, 0.0)), abs=1e-9)


class TestClosedForm:
    def test_quadratic_weights_partition_unity(self):
        # With every entry 1 the payoff is chi + xi + omega + eta (the two
        # interference terms cancel), so it reads the weights' sum.
        rng = np.random.default_rng(7)
        for _ in range(100):
            sa, sb = random_strategy(rng), random_strategy(rng)
            value = payoff_closed_form(PayoffMatrix(1, 1, 1, 1), sa, sb, random_pure(rng))
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_step_settings_read_the_state_angles(self):
        for theta in np.linspace(0.0, math.pi, 7):
            for phi in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
                q = PureQubit(float(theta), float(phi))
                s2 = _step("S2")
                s1 = _step("S1")
                s3 = _step("S3")
                assert payoff_closed_form(ALICE_PAYOFF, s2.strategy_a, s2.strategy_b, q) == pytest.approx(
                    math.sin(theta) * math.sin(phi), abs=1e-12
                )
                assert payoff_closed_form(ALICE_PAYOFF, s1.strategy_a, s1.strategy_b, q) == pytest.approx(
                    math.sin(theta) * math.cos(phi), abs=1e-12
                )
                assert payoff_closed_form(ALICE_PAYOFF, s3.strategy_a, s3.strategy_b, q) == pytest.approx(
                    math.cos(theta), abs=1e-12
                )

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = PayoffMatrix(*rng.uniform(-2.0, 2.0, 4))
            sa, sb = random_strategy(rng), random_strategy(rng)
            q = random_pure(rng)
            run = evolve(initial_state(pure_density(q)), sa, sb)
            assert abs(payoff_closed_form(p, sa, sb, q) - payoff_exact(run, p)) <= 1e-10


class TestPayoffSymmetries:
    def test_alpha_a_never_matters(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = PayoffMatrix(*rng.uniform(-2.0, 2.0, 4))
            q = random_pure(rng)
            beta_a = rng.uniform(0.0, math.pi)
            sb = random_strategy(rng)
            rho_in = initial_state(pure_density(q))
            base = payoff_exact(evolve(rho_in, Strategy(beta_a, rng.uniform(0, 2 * math.pi)), sb), p)
            other = payoff_exact(evolve(rho_in, Strategy(beta_a, rng.uniform(0, 2 * math.pi)), sb), p)
            assert abs(base - other) <= 1e-12

    def test_zero_sum_is_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            run = evolve(initial_state(pure_density(random_pure(rng))), random_strategy(rng), random_strategy(rng))
            assert payoff_exact(run, BOB_PAYOFF) == -payoff_exact(run, ALICE_PAYOFF)
