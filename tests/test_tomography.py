"""Tests for the protocol steps, the shot sampler, and reconstruction."""

import cmath
import functools
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtomo.game
import qtomo.tomography
from qtomo.cli import MAX_CELLS, _sweep_angles
from qtomo.game import (
    PayoffMatrix,
    Strategy,
    evolve,
    initial_state,
    measurement_distribution,
    payoff_exact,
    strategy_unitary,
)
from qtomo.linalg import DEFAULT_TOL, cmatrix, is_density, max_abs
from qtomo.states import (
    PAULIS,
    TWO_PI,
    PureQubit,
    StokesVector,
    _pauli_stokes,
    _pure_rows,
    _stokes_density,
    density_from_stokes,
    fidelity,
    pure_density,
    stokes_of,
    trace_distance,
)
from qtomo.tomography import (
    ALICE_PAYOFF,
    BOB_PAYOFF,
    _BLOCH_ORDER,
    _INSTRUMENT,
    _LABELS,
    _axis_row,
    _draw,
    _mean,
    _readout,
    _result,
    _row,
    _state_words,
    derive_seed,
    estimate_stokes,
    exact_stokes,
    protocol_steps,
    reconstruct,
    run_tomography,
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
        # At the pole S1 and S2 pay exactly 0, and Bob's 0 is +0.0, not -0.0.
        pole = {p.label: p for p in step_payoffs(pure_density(PureQubit(0.0, 0.0)))}
        for label in ("S1", "S2"):
            assert pole[label].alice == 0.0
            assert math.copysign(1.0, pole[label].bob) == 1.0

    def test_rejects_non_density(self, non_finite_states):
        with pytest.raises(ValueError):
            step_payoffs(cmatrix([[1, 1], [1, 1]]))
        with pytest.raises(ValueError):
            exact_stokes(cmatrix(np.diag([1.0, 0, 0, 0])))
        for rho in non_finite_states[2]:
            for read in (step_payoffs, exact_stokes):
                with pytest.raises(ValueError, match="expected a valid 2x2 density matrix"):
                    read(rho)


class TestBlochGeometry:
    """The Bloch point where the three measurement planes meet is (s1, s2, s3)."""

    def test_point_sits_on_the_sphere(self):
        for theta in np.linspace(0.0, math.pi, 7):
            for phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                s = exact_stokes(pure_density(PureQubit(float(theta), float(phi))))
                assert abs(math.hypot(s.s1, s.s2, s.s3) - 1.0) <= 1e-12


def _instrument_row(sa: Strategy, sb: Strategy, p: PayoffMatrix) -> np.ndarray:
    """The row a with P(+1) = a . (1, s1, s2, s3) for one strategy pair and +-1 payoff, from the unitaries.

    Outcome |ij> has probability |U_A|0>|^2_i times entry j of the diagonal of
    U_B rho U_B^dagger = (1/2) sum_k s_k U_B sigma_k U_B^dagger; summing over
    the outcomes that pay +1 gives a. The package derived its instrument this
    way before it took the closed form `_axis_row`; kept as that form's oracle.
    """
    plus = (np.array(p.entries()) == 1.0).reshape(2, 2)  # the outcomes |00>, |01>, |10>, |11> that pay +1
    ancilla = np.abs(strategy_unitary(sa)[:, 0]) ** 2
    ub = strategy_unitary(sb)
    qubit = np.array([np.diagonal(ub @ sigma @ ub.conj().T).real for sigma in PAULIS])
    return 0.5 * qubit @ (ancilla @ plus)


def _appended_state_p_plus(sa, sb, p, vec) -> float:
    """P(+1) of a step through the paper's 4x4 route: evolve |0><0| (x) rho, sum the outcomes that pay +1."""
    oracle = measurement_distribution(evolve(initial_state(density_from_stokes(StokesVector(1.0, *vec))), sa, sb))
    return float(oracle[np.array(p.entries()) == 1.0].sum())


class TestProductFormOracle:
    """The hot path's instrument rows against the paper's 4x4 appended-state route."""

    @settings(deadline=None)
    @given(strategies, strategies, sign_payoffs, bloch_points)
    def test_instrument_row_matches_appended_state(self, sa, sb, p, vec):
        # The matrix derivation, for any strategies and any +-1 payoff.
        p_plus = _appended_state_p_plus(sa, sb, p, vec)
        assert abs(float(_instrument_row(sa, sb, p) @ (1.0, *vec)) - p_plus) <= 1e-12

    @settings(deadline=None)
    @given(strategies, strategies, bloch_points)
    def test_axis_row_matches_appended_state(self, sa, sb, vec):
        # Alice's payoff reads the unknown qubit alone, so her strategy drops
        # out and the step measures along the axis of Bob's strategy.
        row = _axis_row(sb)
        assert np.abs(np.array(row) - _instrument_row(sa, sb, ALICE_PAYOFF)).max() <= 1e-15
        p_plus = _appended_state_p_plus(sa, sb, ALICE_PAYOFF, vec)
        assert abs(float(np.dot(row, (1.0, *vec))) - p_plus) <= 1e-12

    def test_instrument_is_the_matrix_derivation(self):
        for step, row in zip(protocol_steps(), _INSTRUMENT):
            oracle = _instrument_row(step.strategy_a, step.strategy_b, step.payoff_a)
            assert np.abs(np.array(row) - oracle).max() <= 1e-16, step.label

    def test_rows_read_one_stokes_parameter_each(self):
        # The paper's claim: step k pays Alice +1 with probability (1 + s_k)/2.
        expected = {"S2": (0.5, 0.0, 0.5, 0.0), "S1": (0.5, 0.5, 0.0, 0.0), "S3": (0.5, 0.0, 0.0, 0.5)}
        for step, row in zip(protocol_steps(), _INSTRUMENT):
            np.testing.assert_allclose(row, expected[step.label], rtol=0, atol=1e-15)

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
    """A step's sampled payoff, drawn through the core (`_row`)."""

    def test_deterministic_outcome_at_the_pole(self):
        s3 = _LABELS.index("S3")
        for seed in (0, 1, 999):
            est = run_tomography(PureQubit(0.0, 0.0), 100, seed).per_step[s3]
            assert est.value == 1.0
            assert est.std_error == 0.0

    def test_bit_for_bit_reproducible(self):
        truth = _pure_rows([(0.8, 1.7)])[0]
        a = _result(_row(truth, 5000, 321)).per_step
        b = _result(_row(truth, 5000, 321)).per_step
        assert a == b

    def test_concentration_near_certain_outcome(self):
        # S2 reads sin(theta) sin(phi) = 1 here, so nearly every draw is +1.
        shots, s2 = 10_000, _LABELS.index("S2")
        truth = _pure_rows([(HALF_PI, HALF_PI)])[0]
        counts = [_row(truth, shots, derive_seed(31415, k)).counts for k in range(100)]
        hits = sum(abs((2 * row[s2] - shots) / shots - 1.0) <= 5.0 / math.sqrt(shots) for row in counts)
        assert hits >= 95

    def test_std_error_bound_and_small_m(self):
        rng = np.random.default_rng(13)
        for shots in (1, 2, 3, 7, 64):
            q = PureQubit(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            for est in run_tomography(q, shots, int(rng.integers(0, 2**64, dtype=np.uint64))).per_step:
                assert abs(est.value) <= 1.0
                assert 0.0 <= est.std_error <= 1.0 / math.sqrt(shots) + 1e-12

    def test_memory_does_not_grow_with_shots(self):
        truth = _pure_rows([(1.1, 2.3)])[0]
        _row(truth, 1, 7)  # the first draw imports numpy's generator modules
        tracemalloc.start()
        try:
            _row(truth, 1_000_000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def _step_distributions(vec):
    """Each step's four outcome probabilities, in protocol order, from the 4x4 appended-state route."""
    rho_in = initial_state(density_from_stokes(StokesVector(1.0, *vec)))
    return [measurement_distribution(evolve(rho_in, s.strategy_a, s.strategy_b)) for s in protocol_steps()]


def _inverse_cdf_count(probs, shots, seed):
    """Reference: draw each shot by inverse CDF over the four outcomes; count the +1 payoffs."""
    cdf = np.cumsum(np.maximum(probs, 0.0) / probs.sum())
    idx = np.minimum(np.searchsorted(cdf, np.random.default_rng(seed).random(shots), side="right"), 3)
    return int(np.count_nonzero(np.array(ALICE_PAYOFF.entries())[idx] == 1.0))


def _reference_counts(vec, shots, seeds):
    """Per-shot reference counts: a row per seed, step j drawn from derive_seed(seed, j)'s own generator."""
    dists = _step_distributions(vec)
    return np.array([[_inverse_cdf_count(d, shots, derive_seed(seed, j)) for j, d in enumerate(dists)] for seed in seeds])


def _core_counts(vec, shots, seeds):
    """The core's counts: a row per seed, each row's three drawn from that state's one generator."""
    return np.array([_row(vec, shots, seed).counts for seed in seeds])


def _chi_square(counts, m, p):
    """(Pearson's statistic, degrees of freedom) of counts against Binomial(m, p), adjacent bins merged to expect >= 5."""
    observed = np.bincount(counts, minlength=m + 1)
    bins, o_acc, e_acc = [], 0, 0.0
    for k in range(m + 1):
        o_acc += int(observed[k])
        e_acc += len(counts) * math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
        if e_acc >= 5.0:
            bins.append([o_acc, e_acc])
            o_acc, e_acc = 0, 0.0
    bins[-1][0] += o_acc
    bins[-1][1] += e_acc
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


class TestCountSamplerEquivalence:
    """The core's count draw and a per-shot reference against the exact binomial law.

    Over N seeds derive_seed(77, i), each step's +1 counts k are compared
    with the Binomial(m, P(+1)) pmf, P(+1) read from the 4x4 oracle, by
    Pearson's chi-square, adjacent bins merged until each expects at least 5
    counts. CHI2_CRITICAL holds the 0.999 quantile of the chi-square law for
    each degrees of freedom that a case's steps reach.
    """

    N = 4000
    CHI2_CRITICAL = {4: 18.467, 10: 29.588, 11: 31.264, 16: 39.252, 17: 40.790, 18: 42.312, 19: 43.820, 22: 48.268}
    # Bloch vector and shots per step. "four outcomes": a mixed state whose S2 and S1
    # steps spread over all four outcomes; "near certain": S1 pays +1 with probability
    # 0.98; "generic S1 step": the pure state PureQubit(1.1, 2.3).
    CASES = {
        "four outcomes": ((-0.2, 0.3, -0.5), 16),
        "near certain": ((0.96, 0.1, -0.2), 32),
        "generic S1 step": (tuple(_pure_rows([(1.1, 2.3)])[0]), 64),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("draw", [_core_counts, _reference_counts], ids=["count", "reference"])
    def test_counts_follow_the_binomial_law(self, case, draw):
        vec, m = self.CASES[case]
        counts = draw(vec, m, [derive_seed(77, i) for i in range(self.N)])
        assert counts.shape == (self.N, 3)
        for j, probs in enumerate(_step_distributions(vec)):
            p_plus = float((probs[0] + probs[2]) / probs.sum())
            stat, dof = _chi_square(counts[:, j], m, p_plus)
            assert stat <= self.CHI2_CRITICAL[dof], (case, _LABELS[j], stat, dof)

    def test_counts_of_a_row_are_independent(self):
        # One generator draws a row's three counts; at a generic state no pair may correlate.
        counts = _core_counts(self.CASES["generic S1 step"][0], 64, [derive_seed(77, i) for i in range(self.N)])
        r = np.corrcoef(counts.T)
        for i, j in itertools.combinations(range(3), 2):
            assert abs(r[i, j]) <= 4.0 / math.sqrt(self.N), (i, j, r[i, j])


class TestNeighbouringStates:
    """Consecutive states' generators, seeded with unhashed step seeds, draw as independent binomials.

    Without `SeedSequence`'s hashing, states seeded derive_seed(master, k) for
    consecutive k start PCG64 from splitmix64 outputs of neighbouring inputs.
    Over N such states at m = 16 shots, each step's counts must follow the
    Binomial(m, P(+1)) pmf (Pearson's chi-square at its 0.999 quantile, bins
    merged as `_chi_square` does), and no step's count may
    correlate with any step's count of the next state (|r| <= 4 / sqrt(N - 1)).
    """

    N, SHOTS, MASTER = 20_000, 16, 2021
    CHI2_CRITICAL = {9: 27.877, 10: 29.588, 11: 31.264}  # the 0.999 quantile per degrees of freedom

    @pytest.fixture(scope="class")
    def counts(self):
        vec = _pure_rows([(1.1, 2.3)])[0]  # P(+1) = 0.83, 0.20, 0.73 over the steps
        seeds = [derive_seed(self.MASTER, k) for k in range(self.N)]
        return vec, np.array([_row(vec, self.SHOTS, seed).counts for seed in seeds])

    def test_counts_follow_the_binomial_law(self, counts):
        vec, k = counts
        for j, p_plus in enumerate(_readout(*vec)[0]):
            stat, dof = _chi_square(k[:, j], self.SHOTS, p_plus)
            assert stat <= self.CHI2_CRITICAL[dof], (_LABELS[j], stat, dof)

    def test_no_lag_one_correlation(self, counts):
        _, k = counts
        bound = 4.0 / math.sqrt(self.N - 1)
        for i, j in itertools.product(range(3), repeat=2):
            r = np.corrcoef(k[:-1, i], k[1:, j])[0, 1]
            assert abs(r) <= bound, (_LABELS[i], _LABELS[j], r)


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


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands a bit generator the words it holds, as they are."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (len(self.words), np.uint64)
        return self.words.copy()


def _recipe_counts(p_row, shots, step_seeds):
    """binomial-count-v3 written out: Generator(PCG64) over the words [s0, s1, s2, 0], three draws in order."""
    rng = np.random.Generator(np.random.PCG64(_Words([*step_seeds, 0])))
    return [int(rng.binomial(shots, p)) for p in p_row]


# PCG64's seeding (O'Neill, HMC-CS-2014-0905; pcg_setseq_128_srandom_r): words
# w0..w3 give the 128-bit initial state w0 w1 and sequence w2 w3, and the
# generator starts two LCG steps on.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_state(words):
    initstate, initseq = (words[0] << 64) | words[1], (words[2] << 64) | words[3]
    inc = ((initseq << 1) | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULTIPLIER + inc) & _MASK128
    return {"state": state, "inc": inc}


step_seed_triples = st.tuples(*[st.integers(0, 2**64 - 1)] * 3)


class TestDraw:
    """`_draw` is binomial-count-v3: a PCG64 seeded with the state's step seeds and 0, taken as they are."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), st.integers(1, 10**6), step_seed_triples)
    @example([0.5, 0.5, 0.5], 16, (0, 0, 0))
    @example([0.5, 0.5, 0.5], 16, (2**32 - 1, 2**32 - 1, 2**32 - 1))
    @example([0.5, 0.5, 0.5], 16, (2**32, 2**32, 2**32))
    @example([0.5, 0.5, 0.5], 16, (2**64 - 1, 2**64 - 1, 2**64 - 1))
    @example([0.3, 0.6, 0.9], 4096, (0, 2**32, 2**64 - 1))
    @example([0.3, 0.6, 0.9], 4096, (2**64 - 1, 2**32 - 1, 0))
    def test_counts_equal_numpy_seeding(self, p_row, shots, step_seeds):
        assert _draw(p_row, shots, list(step_seeds)) == _recipe_counts(p_row, shots, step_seeds)

    @settings(deadline=None, max_examples=200)
    @given(step_seed_triples)
    @example((0, 0, 0))
    @example((2**32 - 1, 2**32 - 1, 2**32 - 1))
    @example((2**32, 2**32, 2**32))
    @example((2**64 - 1, 2**64 - 1, 2**64 - 1))
    def test_step_seeds_are_the_generator_state(self, step_seeds):
        # The words reach PCG64 unhashed: its state is the reference seeding's of [s0, s1, s2, 0].
        words = _state_words()(list(step_seeds)).generate_state(4, np.uint64)
        assert words.dtype == np.uint64 and words.tolist() == [*step_seeds, 0]
        state = np.random.PCG64(_state_words()(list(step_seeds))).state["state"]
        assert state == _pcg64_state([*step_seeds, 0])


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

    def test_rejects_non_density(self, non_finite_states):
        with pytest.raises(ValueError):
            estimate_stokes(cmatrix([[1, 1], [1, 1]]), 16, 1)
        for rho in non_finite_states[2]:
            with pytest.raises(ValueError, match="expected a valid 2x2 density matrix"):
                estimate_stokes(rho, 16, 1)

    def test_checks_the_state_once(self, is_density_calls):
        estimate_stokes(pure_density(PureQubit(0.9, 1.7)), 16, 1)
        assert len(is_density_calls) == 1

    def test_shots_must_be_an_integer(self):
        rho = pure_density(PureQubit(1.1, 2.3))
        with pytest.raises(TypeError):
            estimate_stokes(rho, 2.5, 1)
        with pytest.raises(ValueError):
            estimate_stokes(rho, 0, 1)
        # numpy's binomial takes a C long: the largest count runs, one more is refused up front.
        with pytest.raises(ValueError):
            estimate_stokes(rho, 2**63, 1)
        assert estimate_stokes(rho, 2**63 - 1, 1).per_step[0].shots == 2**63 - 1
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

    @settings(deadline=None, max_examples=300)
    @given(st.tuples(*[st.floats(-1.79e308, 1.79e308)] * 3))
    @example((1.79e308, 0.0, 0.0))
    @example((1.3407807929942596e154, 0.0, 0.0))
    @example((1.3407807929942597e154, 0.0, 0.0))
    @example((1e154, 1e154, 1e154))
    @example((-1e154, 1e154, -1e153))
    def test_overflow_raised_exactly_when_the_norm_overflows(self, t):
        s = StokesVector(1.0, *t)
        if math.isfinite(s.bloch_norm()):
            rho_hat, _ = reconstruct(s)
            assert is_density(rho_hat, 1e-9)
        else:
            with pytest.raises(ValueError, match="overflows"):
                reconstruct(s)

    def test_unnormalized_s0_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(StokesVector(0.5, 0.0, 0.0, 0.0))

    def test_projection_always_yields_a_state(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            vec = rng.uniform(-1.4, 1.4, 3)
            rho_hat, _ = reconstruct(StokesVector(1.0, *vec))
            assert is_density(rho_hat, 1e-9)


def _nearest_state(t):
    """The Frobenius-nearest density matrix to (I + t.sigma)/2, by eigenvalues projected onto the simplex.

    The eigenvalues are sorted, shifted by the one constant that makes the
    positive part sum to 1, and clipped at 0 (Smolin, Gambetta & Smith, PRL
    108, 070502 (2012)); the eigenvectors are kept.
    """
    t1, t2, t3 = t
    m = 0.5 * np.array([[1.0 + t3, t1 - 1j * t2], [t1 + 1j * t2, 1.0 - t3]])
    lam, vecs = np.linalg.eigh(m)
    desc = np.sort(lam)[::-1]
    cumulative = np.cumsum(desc)
    k = max(j for j in range(1, 3) if desc[j - 1] - (cumulative[j - 1] - 1.0) / j > 0)
    projected = np.maximum(lam - (cumulative[k - 1] - 1.0) / k, 0.0)
    return (vecs * projected) @ vecs.conj().T


off_boundary_vectors = st.one_of(
    st.tuples(*[st.floats(-1.5, 1.5, allow_nan=False)] * 3),
    st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 3),
).filter(lambda v: not 1.0 < math.sqrt(sum(c * c for c in v)) <= 1.0 + 2 * DEFAULT_TOL)


class TestProjectionIsLeastSquares:
    """`reconstruct`'s radial projection is the Frobenius-nearest physical state."""

    @settings(deadline=None, max_examples=300)
    @given(off_boundary_vectors)
    @example((0.0, 0.0, 0.0))
    @example((1.2, 0.0, 0.0))
    @example((0.0, 0.0, -1.0))
    @example((3.0, -4.0, 12.0))
    def test_matches_the_eigenvalue_oracle(self, t):
        rho_hat, projected = reconstruct(StokesVector(1.0, *t))
        assert projected == (math.sqrt(sum(c * c for c in t)) > 1.0 + DEFAULT_TOL)
        assert max_abs(rho_hat - _nearest_state(t)) <= 1e-12


def _bits(x):
    """x with every float written as float.hex, through lists and tuples: equal means equal bit for bit."""
    if type(x) is float:
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


# The array stage that followed the draw before each state was finished in its own row, kept as the oracle.
_E3 = np.array([0.0, 0.0, 1.0])


def _reference_project(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sq = t * t
    norm = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    projected = norm > 1.0 + DEFAULT_TOL
    return t / np.where(projected, norm, 1.0)[:, None], projected


def _reference_bloch_fidelity(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    st = s * t
    return np.minimum(np.maximum(0.5 * (1.0 + (st[:, 0] + st[:, 1] + st[:, 2])), 0.0), 1.0)


def _reference_bloch_trace_distance(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    d = s - t
    dd = d * d
    return 0.5 * np.sqrt(dd[:, 0] + dd[:, 1] + dd[:, 2])


def _reference_post_draw(truth: np.ndarray, shots: int, counts: list[list[int]]) -> tuple[np.ndarray, ...]:
    """(estimate, bloch_hat, projected, fidelity, trace_distance) of each row, as (n, 3) and (n,) arrays."""
    estimate = np.array([[_mean(row[j], shots) for j in _BLOCH_ORDER] for row in counts])
    t, projected = _reference_project(estimate)
    t_hat = 0.5 * (_E3 + t) - 0.5 * (_E3 - t)  # t as `_pauli_stokes` reads it back from rho_hat
    fid, dist = _reference_bloch_fidelity(t_hat, truth), _reference_bloch_trace_distance(t_hat, truth)
    return estimate, t, projected, fid, dist


# Truth rows: the six cardinal states, poles among them, and coordinates that are signed zeros or subnormal.
CARDINAL_ROWS = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
SUBNORMAL_COORDS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0)
truth_rows = st.one_of(
    st.sampled_from(CARDINAL_ROWS),
    st.tuples(*[st.sampled_from(SUBNORMAL_COORDS)] * 3).filter(lambda v: sum(c * c for c in v) <= 1.0),
    bloch_points,
)


# The exact readout as it was formed for a whole batch in one array pass, kept verbatim as the oracle.
_ARRAY_INSTRUMENT = np.array(_INSTRUMENT)


def _array_plus_probabilities(truth: np.ndarray) -> np.ndarray:
    """P(+1) = a0 + a1 s1 + a2 s2 + a3 s3, clipped to [0, 1]: a row per Bloch vector, a column per step."""
    terms = truth.T[:, :, None] * _ARRAY_INSTRUMENT.T[1:, None, :]  # terms[c, i, k] = a_k,c+1 s_c+1 of row i
    p = _ARRAY_INSTRUMENT[:, 0] + terms[0] + terms[1] + terms[2]
    return np.minimum(np.maximum(p, 0.0), 1.0)


def _array_readout(truth: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, alice, exact) of each row of an (n, 3) Bloch array: P(+1) and Alice's payoff per step, and in Bloch order."""
    p = _array_plus_probabilities(truth)
    alice = 2.0 * p - 1.0
    return p, alice, alice.take(_BLOCH_ORDER, axis=1)


class TestReadoutMatchesTheArrayPass:
    """`_readout` of one Bloch vector in floats equals the old array pass over a batch, bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(truth_rows, min_size=1, max_size=8))
    @example([(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)])
    @example(CARDINAL_ROWS)
    # Rows whose P(+1) leaves [0, 1] before the clip, so both of its branches run. The first is in the
    # ball, and its S2 probability is -3.06e-26; the others lie 1e-9 beyond the sphere, where
    # `exact_stokes` still admits them within DEFAULT_TOL, and reach 1.0000000005 or -5e-10.
    @example([(-1e-9, -1.0, -1e-9)])
    @example([(1 + 1e-9, 0.0, 0.0), (0.0, -1 - 1e-9, 0.0), (0.0, 0.0, 1 + 1e-9)])
    def test_rows(self, rows):
        p, alice, exact = _array_readout(np.array(rows))
        for i, row in enumerate(rows):
            assert _bits(_readout(*row)) == _bits([p[i].tolist(), alice[i].tolist(), exact[i].tolist()]), row


class TestRowsMatchTheArrayStage:
    """Each state's estimate, projection and scores equal the old array stage's, bit for bit."""

    @staticmethod
    def assert_rows_match(truth, shots, runs):
        counts = [r.counts for r in runs]
        estimate, bloch_hat, projected, fid, dist = _reference_post_draw(np.array(truth), shots, counts)
        assert _bits([r.estimate for r in runs]) == _bits(estimate.tolist())
        assert _bits([r.bloch_hat for r in runs]) == _bits(bloch_hat.tolist())
        assert [r.projected for r in runs] == projected.tolist()
        assert _bits([r.fidelity for r in runs]) == _bits(fid.tolist())
        assert _bits([r.trace_distance for r in runs]) == _bits(dist.tolist())

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(truth_rows, st.integers(0, 2**64 - 1)), min_size=1, max_size=8), st.integers(1, 10**6))
    def test_drawn_counts(self, rows, shots):
        truth = [vec for vec, _ in rows]
        runs = [_row(vec, shots, seed) for vec, seed in rows]
        self.assert_rows_match(truth, shots, runs)

    # Counts of any value, also those the sampler seldom draws: every step at 0 or at shots projects.
    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 10**6).flatmap(lambda shots: st.tuples(st.just(shots), st.lists(
        st.tuples(truth_rows, st.lists(st.integers(0, shots), min_size=3, max_size=3)), min_size=1, max_size=8,
    ))))
    @example((1, [((0.0, 0.0, 1.0), [1, 1, 1])]))
    # |estimate| = sqrt(1 + 2/999999**2), beyond 1 but within DEFAULT_TOL of it: not projected.
    @example((999_999, [((1.0, 0.0, 0.0), [500_000, 999_999, 500_000])]))
    @example((10**6, [((5e-324, -0.0, 1.0), [0, 10**6, 500_000]), ((-1.0, 0.0, 0.0), [0, 0, 0])]))
    def test_any_counts(self, case):
        shots, rows = case
        truth = [vec for vec, _ in rows]
        counts = [k for _, k in rows]
        with mock.patch.object(qtomo.tomography, "_draw", side_effect=counts):
            runs = [_row(vec, shots, seed) for seed, vec in enumerate(truth)]
        assert [r.counts for r in runs] == counts
        self.assert_rows_match(truth, shots, runs)


CORNER_THETAS = (0.0, HALF_PI, math.pi, 1e-300, 5e-324)
CORNER_PHIS = (0.0, -0.0, HALF_PI, math.pi, 1.5 * math.pi, 5e-324)


def _qubit_rows(states) -> np.ndarray:
    """The Bloch rows of `PureQubit`s as `_pure_rows` formed them from the qubits' attributes, kept verbatim as the oracle."""
    psi = np.array(
        [(math.cos(q.theta / 2.0), cmath.exp(1j * q.phi) * math.sin(q.theta / 2.0)) for q in states],
        dtype=np.complex128,
    )
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    r00, r01, r10, r11 = rho[:, 0, 0], rho[:, 0, 1], rho[:, 1, 0], rho[:, 1, 1]
    s = (
        (r00 + r11).real + 0.0,
        (r10 + r01).real + 0.0,
        (1j * r01 - 1j * r10).real + 0.0,
        (r00 - r11).real + 0.0,
    )
    return np.array(s[1:]).T


def _numpy_grid(theta_steps, phi_steps):
    """The sweep grid as the CLI built it from numpy's linspace and arange, a `PureQubit` per cell."""
    thetas = np.linspace(0.0, math.pi, theta_steps)
    phis = np.arange(phi_steps) * (2.0 * math.pi / phi_steps)
    return [PureQubit(theta, phi) for theta in thetas.tolist() for phi in phis.tolist()]


# (theta_steps, phi_steps) of every grid a sweep accepts: both at least 2, at most MAX_CELLS cells.
grid_shapes = st.integers(2, MAX_CELLS // 2).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, MAX_CELLS // n)))


class TestPureRows:
    """`_pure_rows` reads each (theta, phi) pair as `_pauli_stokes(pure_density(q))` does, in a batch of any size."""

    @staticmethod
    def assert_rows_match_one_by_one(states):
        rows = _pure_rows([(q.theta, q.phi) for q in states])
        assert _bits(rows) == _bits(_qubit_rows(states).tolist())
        for q, row in zip(states, rows):
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

    @settings(deadline=None, max_examples=40)
    @given(grid_shapes)
    @example((2, 2))
    @example((3, 7))
    @example((5, 5))
    @example((101, 99))
    @example((2, MAX_CELLS // 2))
    @example((MAX_CELLS // 2, 2))
    @example((100, 100))
    def test_sweep_grids(self, shape):
        # The sweep's angles are those PureQubit stores for the numpy grid, to the
        # last bit, and their rows are the rows the qubits read as before.
        angles = _sweep_angles(*shape)
        states = _numpy_grid(*shape)
        assert [(theta.hex(), phi.hex()) for theta, phi in angles] == [(q.theta.hex(), q.phi.hex()) for q in states]
        assert _bits(_pure_rows(angles)) == _bits(_qubit_rows(states).tolist())

    def test_no_grid_angle_needs_a_wrap(self):
        # What `_sweep_angles` rests on, for every axis length a sweep accepts:
        # the last theta before pi stays below pi and the last phi below 2 pi.
        for k in range(2, MAX_CELLS // 2 + 1):
            assert (k - 2) * (math.pi / (k - 1)) < math.pi
            assert (k - 1) * (TWO_PI / k) < TWO_PI


class TestRunTomography:
    def test_pole_state(self):
        # S3 sampling at the pole is deterministic, so s3 comes out exactly 1;
        # the other two steps are fair coins there, so the estimate leaves the
        # ball and the fidelity is that of its radial projection, (1 + 1/|s|)/2.
        # Each fair-coin step lies within 6 sigma = 6/sqrt(m) of 0, so
        # 1 - fidelity ~ (s1^2 + s2^2)/4 stays within 18/m.
        shots = 1000
        res = run_tomography(PureQubit(0.0, 0.0), shots, 7)
        assert res.stokes_est.s3 == 1.0
        assert res.fidelity == (1.0 + 1.0 / res.stokes_est.bloch_norm()) / 2.0
        assert 1.0 - res.fidelity <= 18.0 / shots
        assert is_density(res.rho_hat, 1e-9)

    def test_reproducible(self):
        a = run_tomography(PureQubit(0.4, 5.1), 2000, 31)
        b = run_tomography(PureQubit(0.4, 5.1), 2000, 31)
        assert a.stokes_est == b.stokes_est
        assert a.fidelity == b.fidelity
        assert a.trace_dist == b.trace_dist
        np.testing.assert_array_equal(a.rho_hat, b.rho_hat)

    # Per-step (label, value, std_error) of run_tomography(q, shots, 20240601),
    # recorded from sampler binomial-count-v3: one PCG64 generator per state,
    # its state words the three step seeds and 0. A deliberate sampler change
    # updates them.
    SEED_PINS = {
        ("pole", 16): [("S2", 0.0, 0.25), ("S1", 0.125, 0.24803918541230538), ("S3", 1.0, 0.0)],
        ("pole", 4096): [
            ("S2", 0.0029296875, 0.015624932944630743),
            ("S1", 0.009765625, 0.015624254924175893),
            ("S3", 1.0, 0.0),
        ],
        ("equator", 16): [("S2", 1.0, 0.0), ("S1", 0.125, 0.24803918541230538), ("S3", 0.0, 0.25)],
        ("equator", 4096): [
            ("S2", 1.0, 0.0),
            ("S1", 0.01220703125, 0.015623835803410412),
            ("S3", -0.01416015625, 0.015623433436897658),
        ],
        ("generic", 16): [("S2", 0.625, 0.19515618744994995), ("S1", -0.5, 0.21650635094610965), ("S3", 0.5, 0.21650635094610965)],
        ("generic", 4096): [
            ("S2", 0.662109375, 0.011709487751503675),
            ("S1", -0.5859375, 0.012661816350137406),
            ("S3", 0.45703125, 0.013897666210711597),
        ],
    }
    PIN_STATES = {"pole": PureQubit(0.0, 0.0), "equator": PureQubit(HALF_PI, HALF_PI), "generic": PureQubit(1.1, 2.3)}

    def test_seeded_values_are_pinned(self):
        for (name, shots), expected in self.SEED_PINS.items():
            res = run_tomography(self.PIN_STATES[name], shots, 20240601)
            assert [(e.step_label, e.value, e.std_error) for e in res.per_step] == expected, (name, shots)

    def test_counts_follow_the_documented_recipe(self):
        # A state seeded s draws its three counts, in protocol order, from
        # Generator(PCG64) over the words [derive_seed(s, j) for j in 0, 1, 2] + [0].
        assert qtomo.tomography.SAMPLER == "binomial-count-v3"
        for k, (q, shots) in enumerate(itertools.product(self.PIN_STATES.values(), (1, 16, 4096, 10**6))):
            seed = derive_seed(2024, k)
            res = run_tomography(q, shots, seed)
            p_plus = _array_plus_probabilities(np.array(_pure_rows([(q.theta, q.phi)])))[0].tolist()
            expected = _recipe_counts(p_plus, shots, [derive_seed(seed, j) for j in range(3)])
            assert [round((e.value + 1.0) * shots / 2.0) for e in res.per_step] == expected, (q, shots)
            assert [e.seed for e in res.per_step] == [derive_seed(seed, j) for j in range(3)]

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

        monkeypatch.setattr(qtomo.game, "strategy_unitary", counting)
        run_tomography(PureQubit(1.1, 2.3), 16, 1)
        assert calls == []
        assert not hasattr(qtomo.tomography, "strategy_unitary")

    def test_scores_equal_the_public_metrics(self):
        rng = np.random.default_rng(41)
        for k in range(30):
            q = PureQubit(math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random())
            res = run_tomography(q, (1, 16, 4096)[k % 3], derive_seed(41, k))
            assert res.fidelity == fidelity(q, res.rho_hat)
            assert res.trace_dist == trace_distance(pure_density(q), res.rho_hat)
            assert res.stokes_exact == exact_stokes(pure_density(q))

    # The pole, a (1, 1, 1)/sqrt(3) diagonal, a generic state and one near the pole.
    ENUMERATED_STATES = (PureQubit(0.0, 0.0), PureQubit(math.acos(1.0 / math.sqrt(3.0)), math.pi / 4),
                         PureQubit(1.1, 0.7), PureQubit(0.05, 0.3))

    def test_scores_equal_the_public_metrics_at_every_small_count(self):
        # Every count triple at m <= 8, projected or not, through the core with `_draw` mocked.
        for q in self.ENUMERATED_STATES:
            truth_row, rho_true = _pure_rows([(q.theta, q.phi)])[0], pure_density(q)
            for shots in range(1, 9):
                counts = [list(k) for k in itertools.product(range(shots + 1), repeat=3)]
                with mock.patch.object(qtomo.tomography, "_draw", side_effect=counts):
                    runs = [_row(truth_row, shots, 0) for _ in counts]
                for k, run in zip(counts, runs):
                    assert run.counts == k
                    rho_hat = _stokes_density(1.0, *run.bloch_hat)
                    assert run.fidelity.hex() == fidelity(q, rho_hat).hex(), (q, shots, k)
                    assert run.trace_distance.hex() == trace_distance(rho_true, rho_hat).hex(), (q, shots, k)

    def test_fractional_shots_rejected(self):
        with pytest.raises(TypeError):
            run_tomography(PureQubit(1.1, 2.3), 2.5, 1)

    def test_input_errors_are_reported_in_order(self):
        # The density check comes first, then shots, then seed.
        q = PureQubit(1.1, 2.3)
        with pytest.raises(ValueError, match="expected a valid 2x2 density matrix"):
            estimate_stokes(np.eye(2), 0, -1)
        for entry in (functools.partial(run_tomography, q), functools.partial(estimate_stokes, pure_density(q))):
            with pytest.raises(ValueError, match="shots must be between"):
                entry(0, -1)
            with pytest.raises(TypeError):
                entry(2.5, -1)
            for seed in (-1, 2**64):
                with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
                    entry(16, seed)

    def test_metrics_are_consistent(self):
        res = run_tomography(PureQubit(2.2, 1.0), 20_000, 17)
        assert 0.0 <= res.trace_dist <= 1.0
        assert res.fidelity == pytest.approx(1.0, abs=0.05)

