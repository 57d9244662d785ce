"""Tests for the protocol steps, the shot sampler, and reconstruction."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtomo.game
import qtomo.tomography
from qtomo.game import PayoffMatrix, Strategy, evolve, initial_state, payoff_exact
from qtomo.linalg import cmatrix, is_density, max_abs
from qtomo.states import (
    PureQubit,
    StokesVector,
    _pauli_stokes,
    density_from_stokes,
    fidelity,
    pure_density,
    stokes_of,
    trace_distance,
)
from qtomo.tomography import (
    ALICE_PAYOFF,
    BOB_PAYOFF,
    _INSTRUMENT,
    _instrument_row,
    _pure_rows,
    _tomography,
    derive_seed,
    estimate_stokes,
    exact_stokes,
    measurement_distribution,
    protocol_steps,
    reconstruct,
    run_tomography,
    sample_payoff,
    step_payoffs,
)

HALF_PI = math.pi / 2

strategies = st.builds(
    Strategy,
    st.floats(0.0, math.pi, allow_nan=False),
    st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
bloch_points = st.tuples(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)
sign_payoffs = st.builds(PayoffMatrix, *[st.sampled_from((1.0, -1.0))] * 4)


def _step(label):
    return next(s for s in protocol_steps() if s.label == label)


def _run(q, label):
    step = _step(label)
    return evolve(initial_state(pure_density(q)), step.strategy_a, step.strategy_b)


def _probs(q, label):
    return measurement_distribution(_run(q, label))


class TestProtocolSteps:
    def test_three_labeled_steps(self):
        steps = protocol_steps()
        assert [s.label for s in steps] == ["S2", "S1", "S3"]

    def test_canonical_parameters(self):
        s2, s1, s3 = protocol_steps()
        assert (s2.strategy_a.beta, s2.strategy_b.beta, s2.strategy_b.alpha) == (HALF_PI, HALF_PI, HALF_PI)
        assert (s1.strategy_a.beta, s1.strategy_b.beta, s1.strategy_b.alpha) == (HALF_PI, HALF_PI, 0.0)
        assert s3.strategy_a.beta == 0.0 and s3.strategy_b.beta == 0.0

    def test_payoff_assignments(self):
        for step in protocol_steps():
            assert step.payoff_a.entries() == (1.0, -1.0, 1.0, -1.0)
        assert BOB_PAYOFF.entries() == (-1.0, 1.0, -1.0, 1.0)


class TestExactStokes:
    def test_equator(self):
        s = exact_stokes(pure_density(PureQubit(HALF_PI, 0.0)))
        np.testing.assert_allclose([s.s0, s.s1, s.s2, s.s3], [1, 1, 0, 0], atol=1e-12)

    def test_pole(self):
        s = exact_stokes(pure_density(PureQubit(0.0, 0.0)))
        np.testing.assert_allclose([s.s0, s.s1, s.s2, s.s3], [1, 0, 0, 1], atol=1e-12)

    def test_maximally_mixed(self):
        s = exact_stokes(0.5 * np.eye(2))
        np.testing.assert_allclose([s.s0, s.s1, s.s2, s.s3], [1, 0, 0, 0], atol=1e-12)

    def test_agrees_with_pauli_traces_on_pure_states(self):
        for theta in np.linspace(0.0, math.pi, 7):
            for phi in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
                rho = pure_density(PureQubit(float(theta), float(phi)))
                a = exact_stokes(rho)
                b = stokes_of(rho)
                assert max(abs(a.s1 - b.s1), abs(a.s2 - b.s2), abs(a.s3 - b.s3)) <= 1e-12

    def test_agrees_on_mixed_states(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            vec = rng.uniform(-1, 1, 3)
            vec *= rng.uniform(0, 1) / max(np.linalg.norm(vec), 1e-12)
            rho = cmatrix(
                0.5
                * (
                    np.eye(2)
                    + vec[0] * np.array([[0, 1], [1, 0]])
                    + vec[1] * np.array([[0, -1j], [1j, 0]])
                    + vec[2] * np.diag([1, -1])
                )
            )
            a = exact_stokes(rho)
            b = stokes_of(rho)
            assert max(abs(a.s1 - b.s1), abs(a.s2 - b.s2), abs(a.s3 - b.s3)) <= 1e-12

    def test_bob_mirrors_alice(self):
        for payoffs in step_payoffs(pure_density(PureQubit(1.2, 0.4))):
            assert payoffs.bob == -payoffs.alice

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            step_payoffs(cmatrix([[1, 1], [1, 1]]))
        with pytest.raises(ValueError):
            exact_stokes(cmatrix(np.diag([1.0, 0, 0, 0])))


class TestBlochGeometry:
    """The Bloch point where the three measurement planes meet is (s1, s2, s3)."""

    def test_point_sits_on_the_sphere(self):
        for theta in np.linspace(0.0, math.pi, 7):
            for phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                s = exact_stokes(pure_density(PureQubit(float(theta), float(phi))))
                assert abs(math.hypot(s.s1, s.s2, s.s3) - 1.0) <= 1e-12


class TestProductFormOracle:
    """The hot path's instrument rows against the paper's 4x4 appended-state route."""

    @settings(deadline=None)
    @given(strategies, strategies, sign_payoffs, bloch_points)
    def test_instrument_row_matches_appended_state(self, sa, sb, p, vec):
        rho = density_from_stokes(StokesVector(1.0, *vec))
        oracle = measurement_distribution(evolve(initial_state(rho), sa, sb))
        p_plus = float(oracle[np.array(p.entries()) == 1.0].sum())
        assert abs(float(_instrument_row(sa, sb, p) @ (1.0, *vec)) - p_plus) <= 1e-12

    def test_rows_read_one_stokes_parameter_each(self):
        # The paper's claim: step k pays Alice +1 with probability (1 + s_k)/2.
        expected = {"S2": (0.5, 0.0, 0.5, 0.0), "S1": (0.5, 0.5, 0.0, 0.0), "S3": (0.5, 0.0, 0.0, 0.5)}
        for step, row in zip(protocol_steps(), _INSTRUMENT):
            np.testing.assert_allclose(row, expected[step.label], rtol=0, atol=1e-15)

    def test_row_rejects_payoffs_other_than_plus_minus_one(self):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            _instrument_row(Strategy(HALF_PI), Strategy(HALF_PI), PayoffMatrix(2.0, -1.0, 1.0, -1.0))
        with pytest.raises(ValueError):
            _instrument_row(Strategy(HALF_PI), Strategy(HALF_PI), PayoffMatrix(0.0, -1.0, 1.0, -1.0))

    def test_step_payoffs_match_payoff_exact(self):
        rng = np.random.default_rng(16)
        states = [pure_density(PureQubit(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))) for _ in range(10)]
        for _ in range(10):
            vec = rng.uniform(-1, 1, 3)
            vec *= rng.uniform(0, 1) / np.linalg.norm(vec)
            states.append(density_from_stokes(StokesVector(1.0, *vec)))
        for rho in states:
            rho_in = initial_state(rho)
            for step, pay in zip(protocol_steps(), step_payoffs(rho)):
                run = evolve(rho_in, step.strategy_a, step.strategy_b)
                assert pay.label == step.label
                assert abs(pay.alice - payoff_exact(run, step.payoff_a)) <= 1e-12
                assert abs(pay.bob - payoff_exact(run, BOB_PAYOFF)) <= 1e-12


class TestMeasurementDistribution:
    def test_identity_strategies_expose_the_diagonal(self):
        theta = 1.1
        run = evolve(initial_state(pure_density(PureQubit(theta, 0.9))), Strategy(0.0), Strategy(0.0))
        expected = [math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2, 0.0, 0.0]
        np.testing.assert_allclose(measurement_distribution(run), expected, atol=1e-12)

    def test_s3_step_on_equator(self):
        run = _run(PureQubit(HALF_PI, 0.0), "S3")
        np.testing.assert_allclose(measurement_distribution(run), [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_reads_the_real_part_of_a_checked_state(self):
        # A 5e-10 Hermiticity residue passes the density check; evolution
        # turns it into a 1.5e-9 imaginary part on the diagonal of rho_f.
        rho = cmatrix(np.eye(4) / 4 + 1j * 5e-10 * (np.ones((4, 4)) - np.eye(4)))
        assert is_density(rho)
        run = evolve(rho, Strategy(HALF_PI, 0.0), Strategy(HALF_PI, 0.0))
        np.testing.assert_allclose(measurement_distribution(run), [0.25] * 4, atol=1e-12)

    def test_probabilities_are_normalized(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            run = evolve(
                initial_state(pure_density(PureQubit(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))),
                Strategy(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                Strategy(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
            )
            probs = measurement_distribution(run)
            assert np.all(probs >= 0.0)
            assert abs(float(probs.sum()) - 1.0) <= 1e-9


class TestSamplePayoff:
    def test_deterministic_outcome_at_the_pole(self):
        probs = _probs(PureQubit(0.0, 0.0), "S3")
        for seed in (0, 1, 999):
            est = sample_payoff(probs, ALICE_PAYOFF, 100, seed)
            assert est.value == 1.0
            assert est.std_error == 0.0

    def test_bit_for_bit_reproducible(self):
        probs = _probs(PureQubit(0.8, 1.7), "S2")
        a = sample_payoff(probs, ALICE_PAYOFF, 5000, 321, label="S2")
        b = sample_payoff(probs, ALICE_PAYOFF, 5000, 321, label="S2")
        assert a == b

    def test_concentration_near_certain_outcome(self):
        # S2 reads sin(theta) sin(phi) = 1 here, so nearly every draw is +1.
        probs = _probs(PureQubit(HALF_PI, HALF_PI), "S2")
        shots = 10_000
        hits = sum(
            abs(sample_payoff(probs, ALICE_PAYOFF, shots, derive_seed(31415, k)).value - 1.0)
            <= 5.0 / math.sqrt(shots)
            for k in range(100)
        )
        assert hits >= 95

    def test_std_error_bound_and_small_m(self):
        rng = np.random.default_rng(13)
        for shots in (1, 2, 3, 7, 64):
            probs = _probs(PureQubit(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), "S1")
            est = sample_payoff(probs, ALICE_PAYOFF, shots, int(rng.integers(0, 2**64, dtype=np.uint64)))
            assert abs(est.value) <= 1.0
            assert 0.0 <= est.std_error <= 1.0 / math.sqrt(shots) + 1e-12

    def test_validation(self):
        probs = _probs(PureQubit(0.3, 0.1), "S1")
        with pytest.raises(ValueError):
            sample_payoff(probs, ALICE_PAYOFF, 0, 1)
        with pytest.raises(ValueError):
            sample_payoff(probs, PayoffMatrix(2.0, -1.0, 1.0, -1.0), 10, 1)
        with pytest.raises(ValueError):
            sample_payoff(probs, ALICE_PAYOFF, 10, -1)
        with pytest.raises(ValueError):
            sample_payoff(probs, ALICE_PAYOFF, 10, 2**64)

    def test_shots_must_be_an_integer(self):
        probs = _probs(PureQubit(1.1, 2.3), "S1")
        with pytest.raises(TypeError):
            sample_payoff(probs, ALICE_PAYOFF, 2.5, 1)
        with pytest.raises(TypeError):
            sample_payoff(probs, ALICE_PAYOFF, 16.0, 1)
        est = sample_payoff(probs, ALICE_PAYOFF, np.int64(16), np.uint64(7))
        assert type(est.shots) is int and type(est.seed) is int
        assert est == sample_payoff(probs, ALICE_PAYOFF, 16, 7)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="4 outcome"):
            sample_payoff([0.5, 0.5], ALICE_PAYOFF, 10, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            sample_payoff([np.nan, 0.5, 0.5, 0.0], ALICE_PAYOFF, 10, 1)

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_payoff([1.2, -0.2, 0.0, 0.0], ALICE_PAYOFF, 10, 1)
        # within tol of zero counts as zero, so outcome |01> never shows
        est = sample_payoff([1.0 + 5e-10, -5e-10, 0.0, 0.0], ALICE_PAYOFF, 100, 1)
        assert est.value == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sample_payoff([0.5, 0.5, 0.5, 0.0], ALICE_PAYOFF, 10, 1)

    def test_memory_does_not_grow_with_shots(self):
        probs = _probs(PureQubit(1.1, 2.3), "S1")
        sample_payoff(probs, ALICE_PAYOFF, 1, 7)  # the first draw imports numpy's generator modules
        tracemalloc.start()
        try:
            sample_payoff(probs, ALICE_PAYOFF, 1_000_000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def _inverse_cdf_count(probs, shots, seed):
    """Reference: draw each shot by inverse CDF over the four outcomes; count the +1 payoffs."""
    cdf = np.cumsum(np.maximum(probs, 0.0) / probs.sum())
    idx = np.minimum(np.searchsorted(cdf, np.random.default_rng(seed).random(shots), side="right"), 3)
    return int(np.count_nonzero(np.array(ALICE_PAYOFF.entries())[idx] == 1.0))


def _sample_payoff_count(probs, shots, seed):
    return round((sample_payoff(probs, ALICE_PAYOFF, shots, seed).value + 1.0) * shots / 2.0)


class TestCountSamplerEquivalence:
    """The count draw and the per-shot reference against the exact binomial law.

    Over N seeds derive_seed(77, i), each sampler's +1 counts k are compared
    with the Binomial(m, p_plus) pmf by Pearson's chi-square, adjacent bins
    merged until each expects at least 5 counts. CHI2_CRITICAL holds the
    0.999 quantile of the chi-square law for each case's degrees of freedom.
    """

    N = 4000
    CHI2_CRITICAL = {4: 18.467, 11: 31.264, 19: 43.820}
    CASES = {
        "four outcomes": (lambda: np.array([0.1, 0.2, 0.3, 0.4]), 16),
        "near certain": (lambda: np.array([0.97, 0.01, 0.01, 0.01]), 32),
        "generic S1 step": (lambda: _probs(PureQubit(1.1, 2.3), "S1"), 64),
    }

    def _chi_square(self, counts, m, p):
        observed = np.bincount(counts, minlength=m + 1)
        bins, o_acc, e_acc = [], 0, 0.0
        for k in range(m + 1):
            o_acc += int(observed[k])
            e_acc += self.N * math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
            if e_acc >= 5.0:
                bins.append([o_acc, e_acc])
                o_acc, e_acc = 0, 0.0
        bins[-1][0] += o_acc
        bins[-1][1] += e_acc
        return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("draw", [_sample_payoff_count, _inverse_cdf_count], ids=["count", "reference"])
    def test_counts_follow_the_binomial_law(self, case, draw):
        make_probs, m = self.CASES[case]
        probs = make_probs()
        p_plus = float((probs[0] + probs[2]) / probs.sum())
        counts = [draw(probs, m, derive_seed(77, i)) for i in range(self.N)]
        stat, dof = self._chi_square(counts, m, p_plus)
        assert stat <= self.CHI2_CRITICAL[dof], (case, stat, dof)


class TestDeriveSeed:
    def test_known_values_frozen(self):
        assert derive_seed(42, 0) == 13679457532755275413
        assert derive_seed(42, 1) == 2949826092126892291

    def test_distinct_over_many_indices(self):
        seen = {derive_seed(7, i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_master_validation(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_seed(0, -1)
        with pytest.raises((TypeError, ValueError)):
            derive_seed(5.0, 0)

    def test_numpy_integers_mix_like_python_ints(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for master in (np.int64(5), np.uint64(5)):
                for i in range(4):
                    assert derive_seed(master, i) == derive_seed(5, i)
                    assert type(derive_seed(master, np.int64(i))) is int
                    assert derive_seed(master, np.int64(i)) == derive_seed(5, i)


class TestEstimateStokes:
    def test_converges_with_many_shots(self):
        q = PureQubit(1.9, 0.6)
        rho = pure_density(q)
        exact = exact_stokes(rho)
        est = estimate_stokes(rho, 1_000_000, 2024).stokes_est
        assert abs(est.s1 - exact.s1) <= 5e-3
        assert abs(est.s2 - exact.s2) <= 5e-3
        assert abs(est.s3 - exact.s3) <= 5e-3

    def test_pole_s3_is_exact(self):
        for shots in (1, 10, 1000):
            res = estimate_stokes(pure_density(PureQubit(0.0, 0.0)), shots, 3)
            assert res.stokes_est.s3 == 1.0

    def test_reproducible_and_subseeded(self):
        rho = pure_density(PureQubit(0.5, 0.5))
        a = estimate_stokes(rho, 500, 99)
        b = estimate_stokes(rho, 500, 99)
        assert a.stokes_est == b.stokes_est
        assert a.per_step == b.per_step
        for i, est in enumerate(a.per_step):
            assert est.seed == derive_seed(99, i)

    def test_estimator_mean_is_unbiased(self):
        m = 4096
        rho = pure_density(PureQubit(1.1, 2.3))
        exact = exact_stokes(rho)
        sums = np.zeros(3)
        n_seeds = 200
        for k in range(n_seeds):
            s = estimate_stokes(rho, m, derive_seed(555, k)).stokes_est
            sums += (s.s1 - exact.s1, s.s2 - exact.s2, s.s3 - exact.s3)
        bound = 4.0 / math.sqrt(n_seeds * m)
        assert np.all(np.abs(sums / n_seeds) < bound)

    @settings(deadline=None, max_examples=50)
    @given(bloch_points)
    def test_exact_readout_is_exact_stokes(self, vec):
        rho = density_from_stokes(StokesVector(1.0, *vec))
        assert estimate_stokes(rho, 8, 5).stokes_exact == exact_stokes(rho)

    def test_checks_the_state_once(self, is_density_calls):
        estimate_stokes(pure_density(PureQubit(0.9, 1.7)), 16, 1)
        assert len(is_density_calls) == 1

    def test_shots_must_be_an_integer(self):
        rho = pure_density(PureQubit(1.1, 2.3))
        with pytest.raises(TypeError):
            estimate_stokes(rho, 2.5, 1)
        with pytest.raises(ValueError):
            estimate_stokes(rho, 0, 1)
        res = estimate_stokes(rho, np.int64(16), 1)
        assert all(type(e.shots) is int for e in res.per_step)
        assert res.per_step == estimate_stokes(rho, 16, 1).per_step


class TestReconstruct:
    def test_round_trip_of_exact_stokes(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = pure_density(PureQubit(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
            rho_hat, projected = reconstruct(exact_stokes(rho))
            assert not projected
            assert max_abs(rho_hat - rho) <= 1e-12

    def test_radial_projection(self):
        rho_hat, projected = reconstruct(StokesVector(1.0, 1.2, 0.0, 0.0))
        assert projected
        np.testing.assert_allclose(rho_hat, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-12)

    def test_interior_vector_untouched(self):
        rho_hat, projected = reconstruct(StokesVector(1.0, 0.0, 0.0, 0.0))
        assert not projected
        np.testing.assert_allclose(rho_hat, 0.5 * np.eye(2), atol=0)

    def test_overflowing_norm_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            reconstruct(StokesVector(1.0, 1e200, 0.0, 0.0))

    def test_unnormalized_s0_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(StokesVector(0.5, 0.0, 0.0, 0.0))

    def test_projection_always_yields_a_state(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            vec = rng.uniform(-1.4, 1.4, 3)
            rho_hat, _ = reconstruct(StokesVector(1.0, *vec))
            assert is_density(rho_hat, 1e-9)


class TestBatchCore:
    """`_tomography` gives each state the same numbers in a batch of any size."""

    # From 4 rows on, X @ A.T rounds some entries differently than row by row.
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(bloch_points, st.integers(0, 2**64 - 1)), min_size=4, max_size=24), st.integers(1, 10**6))
    def test_rows_match_single_row_batches_bit_for_bit(self, rows, shots):
        truth = np.array([vec for vec, _ in rows])
        seeds = [seed for _, seed in rows]
        batch = _tomography(truth, shots, seeds)
        alone = [_tomography(truth[i : i + 1], shots, [seed]) for i, seed in enumerate(seeds)]
        assert batch.per_step == [a.per_step[0] for a in alone]
        for name in batch._fields[1:]:
            joined = np.concatenate([getattr(a, name) for a in alone])
            assert getattr(batch, name).tobytes() == joined.tobytes(), name


CORNER_THETAS = (0.0, HALF_PI, math.pi, 1e-300, 5e-324)
CORNER_PHIS = (0.0, -0.0, HALF_PI, math.pi, 1.5 * math.pi, 5e-324)


class TestPureRows:
    """`_pure_rows` reads each state as `_pauli_stokes(pure_density(q))` does, in a batch of any size."""

    @staticmethod
    def assert_rows_match_one_by_one(states):
        rows = _pure_rows(states)
        assert rows.shape == (len(states), 3)
        for q, row in zip(states, rows.tolist()):
            v = _pauli_stokes(pure_density(q))
            expected = [v.s1, v.s2, v.s3]
            assert row == expected, q
            assert np.signbit(row).tolist() == np.signbit(expected).tolist(), q

    @settings(deadline=None, max_examples=150)
    @given(st.lists(
        st.builds(
            PureQubit,
            st.one_of(st.sampled_from(CORNER_THETAS), st.floats(0.0, math.pi, allow_nan=False)),
            st.one_of(st.sampled_from(CORNER_PHIS), st.floats(-10.0, 10.0, allow_nan=False)),
        ),
        min_size=1,
        max_size=64,
    ))
    def test_random_batches(self, states):
        self.assert_rows_match_one_by_one(states)

    def test_corner_grid(self):
        states = [PureQubit(theta, phi) for theta, phi in itertools.product(CORNER_THETAS, CORNER_PHIS)]
        self.assert_rows_match_one_by_one(states)
        for q in states:
            self.assert_rows_match_one_by_one([q])


class TestRunTomography:
    def test_pole_state(self):
        # S3 sampling at the pole is deterministic, so s3 comes out exactly 1;
        # the other two steps are fair coins there, so after projection the
        # fidelity sits just below 1 rather than at 1.
        res = run_tomography(PureQubit(0.0, 0.0), 1000, 7)
        assert res.stokes_est.s3 == 1.0
        assert res.fidelity >= 0.999
        assert is_density(res.rho_hat, 1e-9)

    def test_reproducible(self):
        a = run_tomography(PureQubit(0.4, 5.1), 2000, 31)
        b = run_tomography(PureQubit(0.4, 5.1), 2000, 31)
        assert a.stokes_est == b.stokes_est
        assert a.fidelity == b.fidelity
        assert a.trace_dist == b.trace_dist
        np.testing.assert_array_equal(a.rho_hat, b.rho_hat)

    # Per-step (label, value, std_error) of run_tomography(q, shots, 20240601),
    # recorded from the count sampler, one binomial draw per step. A
    # deliberate sampler change updates them.
    SEED_PINS = {
        ("pole", 16): [("S2", 0.0, 0.25), ("S1", 0.0, 0.25), ("S3", 1.0, 0.0)],
        ("pole", 4096): [
            ("S2", 0.00146484375, 0.015624983236184664),
            ("S1", -0.01416015625, 0.015623433436897658),
            ("S3", 1.0, 0.0),
        ],
        ("equator", 16): [("S2", 1.0, 0.0), ("S1", 0.0, 0.25), ("S3", 0.25, 0.24206145913796356)],
        ("equator", 4096): [
            ("S2", 1.0, 0.0),
            ("S1", 0.01416015625, 0.015623433436897658),
            ("S3", 0.01123046875, 0.015624014629645504),
        ],
        ("generic", 16): [("S2", 0.75, 0.16535945694153692), ("S1", -0.625, 0.19515618744994995), ("S3", 0.75, 0.16535945694153692)],
        ("generic", 4096): [
            ("S2", 0.6650390625, 0.011668883959849706),
            ("S1", -0.58251953125, 0.012700261013560643),
            ("S3", 0.46337890625, 0.013846253911208993),
        ],
    }
    PIN_STATES = {"pole": PureQubit(0.0, 0.0), "equator": PureQubit(HALF_PI, HALF_PI), "generic": PureQubit(1.1, 2.3)}

    def test_seeded_values_are_pinned(self):
        for (name, shots), expected in self.SEED_PINS.items():
            res = run_tomography(self.PIN_STATES[name], shots, 20240601)
            assert [(e.step_label, e.value, e.std_error) for e in res.per_step] == expected, (name, shots)

    def test_checks_the_true_state_once(self, is_density_calls):
        for k, q in enumerate(self.PIN_STATES.values()):
            before = len(is_density_calls)
            run_tomography(q, 16, k)
            assert len(is_density_calls) - before <= 1

    def test_builds_no_strategy_unitary(self, monkeypatch):
        calls = []
        original = qtomo.game.strategy_unitary

        def counting(s):
            calls.append(s)
            return original(s)

        for mod in (qtomo.game, qtomo.tomography):
            monkeypatch.setattr(mod, "strategy_unitary", counting)
        run_tomography(PureQubit(1.1, 2.3), 16, 1)
        assert calls == []

    def test_scores_equal_the_public_metrics(self):
        rng = np.random.default_rng(41)
        for k in range(30):
            q = PureQubit(math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random())
            res = run_tomography(q, (1, 16, 4096)[k % 3], derive_seed(41, k))
            assert res.fidelity == fidelity(q, res.rho_hat)
            assert res.trace_dist == trace_distance(pure_density(q), res.rho_hat)
            assert res.stokes_exact == exact_stokes(pure_density(q))

    def test_fractional_shots_rejected(self):
        with pytest.raises(TypeError):
            run_tomography(PureQubit(1.1, 2.3), 2.5, 1)

    def test_metrics_are_consistent(self):
        res = run_tomography(PureQubit(2.2, 1.0), 20_000, 17)
        assert 0.0 <= res.trace_dist <= 1.0
        assert res.fidelity == pytest.approx(1.0, abs=0.05)

