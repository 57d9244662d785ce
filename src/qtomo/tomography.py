"""The three-step tomography protocol, exact and finite-shot.

Each step pins the two players' strategy parameters so that Alice's payoff
equals one Stokes parameter of the unknown qubit; running all three steps
therefore reads the full Bloch vector. Steps are listed in protocol order
(the first measures s2, the second s1, the third s3) and every step carries
an explicit label, so nothing downstream depends on position.

Step k pays Alice +1 with probability P(+1) = a_k . (1, s1, s2, s3). Her
payoff reads the unknown qubit alone, so a step measures it along the Bloch
axis n of Bob's strategy and a_k = (1, n)/2 (`_axis_row`); the rows form the
3x4 instrument matrix, so no 4x4 state is built (the 4x4 route in `game` is
the paper's derivation and the tests' oracle). `_readout` reads one Bloch
vector in floats, three products and three sums per row of `_INSTRUMENT`,
and alone forms Alice's payoffs 2 P(+1) - 1 and puts them in Bloch order;
`step_payoffs`, `exact_stokes`, the core and the CLI all read through it.
A step's m-shot estimate (2k - m)/m needs one draw of the count
k ~ Binomial(m, P(+1)) of +1 shots.
All randomness flows from one 64-bit master seed through a splitmix-style
derivation, so every result is reproducible bit for bit on one numpy build
and SIMD level (numpy's complex products round differently with FMA).

The sampler, `SAMPLER` = "binomial-count-v3", gives each state one
generator: state seed s draws its three counts, in protocol order, from
`Generator(PCG64)` whose four 64-bit seed words are [derive_seed(s, 0),
derive_seed(s, 1), derive_seed(s, 2), 0], taken as they are. A step's
reported `seed` is one of its generator's state words, so the three step
seeds together reproduce the draw.

One core, `_row`, runs the protocol on one state in plain floats, given its
Bloch vector (three floats), a checked shot count and a checked state seed:
it derives the step seeds, reads the state out through `_readout`, draws its
three counts from its one generator and forms the estimate, its radial
projection into the ball and both scores as closed forms of the counts and
the truth. Its record, `_Run`, holds plain Python values, read as they are
by results and reports, and keeps the counts: `_result` builds a run's
`SampleEstimate`s only when it becomes a result. `run_tomography` and
`estimate_stokes` call it once; a CLI sweep or trial set maps it over its
states, whose pure truths `states._pure_rows` reads from their (theta, phi)
pairs in one array pass, equal bit for bit to reading them one at a time.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .game import PayoffMatrix, Strategy
from .linalg import DEFAULT_TOL
from .states import (
    PureQubit,
    StokesVector,
    _bloch_fidelity,
    _bloch_trace_distance,
    _pure_rows,
    _stokes_density,
    density_from_stokes,
    stokes_of,
)

HALF_PI = math.pi / 2.0

ALICE_PAYOFF = PayoffMatrix(1.0, -1.0, 1.0, -1.0)
BOB_PAYOFF = PayoffMatrix(-1.0, 1.0, -1.0, 1.0)

# The count sampler's id, recorded in the sample and sweep reports: one
# PCG64 generator per state, its state words the three step seeds and 0.
SAMPLER = "binomial-count-v3"

_MASK64 = (1 << 64) - 1
_MAX_SHOTS = (1 << 63) - 1  # numpy's binomial takes its count as a C long
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ProtocolStep:
    """One canonical measurement setting; label names the Stokes parameter it reads."""

    label: str
    strategy_a: Strategy
    strategy_b: Strategy
    payoff_a: PayoffMatrix


@dataclass(frozen=True)
class StepPayoffs:
    """Exact per-step payoffs of both players."""

    label: str
    alice: float
    bob: float


@dataclass(frozen=True)
class SampleEstimate:
    """Finite-shot estimate of a payoff: the mean of m outcomes, each +-1.

    std_error is the population standard deviation of the outcomes divided by
    sqrt(m), which for +-1 outcomes never exceeds 1/sqrt(m). seed is the
    step's derive_seed(state seed, step index): one of the four PCG64 state
    words of the generator that draws its state's three counts, not a
    generator of its own.
    """

    value: float
    shots: int
    std_error: float
    seed: int
    step_label: str = ""


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Output of an estimation run; reconstruction fields stay None until filled.

    stokes_exact is the exact readout of the same three P(+1) values the
    estimates were drawn from, equal bit for bit to `exact_stokes(rho)`.
    """

    stokes_est: StokesVector
    per_step: tuple[SampleEstimate, ...] | None = None
    rho_hat: np.ndarray | None = None
    projected: bool = False
    fidelity: float | None = None
    trace_dist: float | None = None
    stokes_exact: StokesVector | None = None


_PROTOCOL_STEPS = (
    ProtocolStep("S2", Strategy(HALF_PI, 0.0), Strategy(HALF_PI, HALF_PI), ALICE_PAYOFF),
    ProtocolStep("S1", Strategy(HALF_PI, 0.0), Strategy(HALF_PI, 0.0), ALICE_PAYOFF),
    ProtocolStep("S3", Strategy(0.0, 0.0), Strategy(0.0, 0.0), ALICE_PAYOFF),
)


def protocol_steps() -> tuple[ProtocolStep, ...]:
    """The three canonical steps, in protocol order: S2, then S1, then S3.

    alpha_A is fixed to 0 throughout since payoffs are independent of it.
    """
    return _PROTOCOL_STEPS


def derive_seed(master: int, index: int) -> int:
    """Mix (master seed, index) into an independent 64-bit sub-seed.

    One splitmix64 output step; distinct indices under the same master always
    yield distinct sub-seeds. Used for per-step, per-trial, and per-cell
    seeding so that parallel evaluations never share generator state.
    """
    master = _check_seed(master)
    index = operator.index(index)
    if index < 0:
        raise ValueError("index must be non-negative")
    return _splitmix(master, index)


def _splitmix(master: int, index: int) -> int:
    """`derive_seed` unchecked: master must be an unsigned 64-bit int and index a non-negative int."""
    x = (master + (index + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _check_seed(seed: int) -> int:
    """The seed as a Python int; raises unless it is an unsigned 64-bit integer."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed


def _check_shots(shots: int) -> int:
    """The shot count as a Python int; raises unless it is an integer from 1 to 2**63 - 1."""
    shots = operator.index(shots)
    if not 1 <= shots <= _MAX_SHOTS:
        raise ValueError("shots must be between 1 and 2**63 - 1")
    return shots


def _axis_row(b: Strategy) -> tuple[float, float, float, float]:
    """The row a with P(+1) = a . (1, s1, s2, s3) of a step where Bob plays b and Alice is paid ALICE_PAYOFF.

    Alice is paid +1 exactly when the unknown qubit reads 0 after Bob's U_B,
    whatever her own strategy, so the step measures the qubit along the axis
    n = (sin beta cos alpha, sin beta sin alpha, cos beta) of b: a = (1, n)/2.
    Stacked over the steps the rows form the measurement matrix of
    linear-inversion tomography (James, Kwiat, Munro & White, PRA 64, 052312
    (2001)).
    """
    sin_beta = math.sin(b.beta)
    return 0.5, 0.5 * (sin_beta * math.cos(b.alpha)), 0.5 * (sin_beta * math.sin(b.alpha)), 0.5 * math.cos(b.beta)


_INSTRUMENT = tuple(_axis_row(s.strategy_b) for s in _PROTOCOL_STEPS)
_LABELS = tuple(step.label for step in _PROTOCOL_STEPS)
_BLOCH_ORDER = [_LABELS.index(label) for label in ("S1", "S2", "S3")]  # the steps reading s1, s2, s3
_IN_BLOCH_ORDER = operator.itemgetter(*_BLOCH_ORDER)


def _readout(s1: float, s2: float, s3: float) -> tuple[list[float], list[float], tuple[float, float, float]]:
    """(P(+1) per step, Alice's payoff per step, her payoffs in Bloch order) of one Bloch vector, in floats.

    P(+1) = a0 + a1 s1 + a2 s2 + a3 s3, clipped to [0, 1], for each row a of
    the instrument; the one place Alice's payoff 2 P(+1) - 1 is formed. The
    clip is two comparisons, so -0.0 and NaN pass through unchanged, as they
    do through min(max(x, 0.0), 1.0).
    """
    p, alice = [], []
    for a0, a1, a2, a3 in _INSTRUMENT:
        x = a0 + a1 * s1 + a2 * s2 + a3 * s3
        x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        p.append(x)
        alice.append(2.0 * x - 1.0)
    return p, alice, _IN_BLOCH_ORDER(alice)


def _bob(alice: float) -> float:
    """Bob's payoff when Alice is paid alice: the game is zero-sum, and 0.0 - alice is +0.0 where she is paid 0."""
    return 0.0 - alice


def step_payoffs(rho: np.ndarray) -> tuple[StepPayoffs, ...]:
    """Exact payoffs of both players at each canonical step: Alice 2 P(+1) - 1, Bob its negative."""
    s = stokes_of(rho)
    _, alice, _ = _readout(s.s1, s.s2, s.s3)
    return tuple(StepPayoffs(label, a, _bob(a)) for label, a in zip(_LABELS, alice))


def exact_stokes(rho: np.ndarray) -> StokesVector:
    """Stokes vector read off from Alice's exact payoffs over the three steps."""
    s = stokes_of(rho)
    return StokesVector(1.0, *_readout(s.s1, s.s2, s.s3)[2])


def _draw(p_row: list[float], shots: int, step_seeds: list[int]) -> list[int]:
    """A state's three counts k ~ Binomial(shots, P(+1)) of +1 shots, in protocol order.

    One PCG64 generator per state, its seed words the state's three step
    seeds and 0. They are splitmix64 outputs, already well mixed, so they
    reach PCG64 as they are, with no `SeedSequence` hashing. Three scalar
    draws cost less than one array draw. Inputs are already checked.
    """
    rng = np.random.Generator(np.random.PCG64(_state_words()(step_seeds)))
    return [int(rng.binomial(shots, p)) for p in p_row]


@functools.cache
def _state_words() -> type:
    """PCG64's seed sequence of a state's words [s0, s1, s2, 0]; made on the first draw, not at import."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, step_seeds: list[int]):
            self.words = [*step_seeds, 0]

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return np.array(self.words, dtype=np.uint64)  # PCG64 asks for 4 words of uint64

    return StateWords


def _mean(k: int, shots: int) -> float:
    """The mean of k outcomes +1 and shots - k outcomes -1."""
    return (2 * k - shots) / shots


def _estimate(k: int, shots: int, seed: int, label: str) -> SampleEstimate:
    """A step's SampleEstimate from its count k of +1 shots: the one place its value and std error are formed."""
    std_error = 2.0 * math.sqrt(k * (shots - k)) / shots**1.5
    return SampleEstimate(_mean(k, shots), shots, std_error, seed, label)


def _project(x: float, y: float, z: float) -> tuple[tuple[float, float, float], bool]:
    """((x, y, z), projected): a Bloch vector beyond 1 + DEFAULT_TOL scaled onto the sphere.

    Exact round trips of physical states never move. The squared norm must
    not overflow: the core's vectors lie in [-1, 1]^3, and `reconstruct`
    rejects any other vector first.
    """
    norm = math.sqrt(x * x + y * y + z * z)
    if norm > 1.0 + DEFAULT_TOL:
        return (x / norm, y / norm, z / norm), True
    return (x, y, z), False


def reconstruct(s: StokesVector) -> tuple[np.ndarray, bool]:
    """(rho, projected): the density matrix of s, its Bloch vector projected as `_project` does.

    Scaling a Bloch vector beyond the ball onto the sphere gives the physical
    state nearest (I + s.sigma)/2 in Frobenius norm, the least-squares
    estimate: that state's eigenvalues are the projection of (1 +- |s|)/2
    onto the probability simplex, (1, 0), with the eigenvectors kept (Smolin,
    Gambetta & Smith, PRL 108, 070502 (2012)). A vector whose norm overflows
    raises ValueError; `bloch_norm` sums the same squares in the same order
    as `_project`, so nothing after this check overflows.
    """
    if not math.isfinite(s.bloch_norm()):
        raise ValueError("Bloch vector norm overflows")
    t, projected = _project(s.s1, s.s2, s.s3)
    return density_from_stokes(StokesVector(s.s0, *t)), projected


# One state drawn at `shots` per step, each field a plain Python value: its three +1 counts and
# step seeds, in protocol order; its exact and sampled Bloch readouts and the sample projected into
# the ball (bloch_hat), three floats each; then the projected flag and the two scores.
_Run = namedtuple("_Run", "shots counts step_seeds exact estimate bloch_hat projected fidelity trace_distance")


def _row(truth_row: list[float], shots: int, seed: int) -> _Run:
    """The protocol on one Bloch vector (three floats) under state seed `seed`; shots and seed are already checked.

    The step seeds derive_seed(seed, j) are mixed by the unchecked
    `_splitmix`. The estimate holds the step means in Bloch order. The scores
    read t back from rho_hat = (I + t.sigma)/2 as `_pauli_stokes` does (s3 as
    (1 + t3)/2 - (1 - t3)/2), so they equal `fidelity(q, rho_hat)` bit for bit.
    """
    step_seeds = [_splitmix(seed, 0), _splitmix(seed, 1), _splitmix(seed, 2)]
    p, _, exact = _readout(*truth_row)
    counts = _draw(p, shots, step_seeds)
    k1, k2, k3 = _IN_BLOCH_ORDER(counts)
    estimate = (_mean(k1, shots), _mean(k2, shots), _mean(k3, shots))
    t, projected = _project(*estimate)
    t1, t2, t3 = t
    t_hat = (0.5 * (0.0 + t1) - 0.5 * (0.0 - t1), 0.5 * (0.0 + t2) - 0.5 * (0.0 - t2),
             0.5 * (1.0 + t3) - 0.5 * (1.0 - t3))
    return _Run(shots, counts, step_seeds, exact, estimate, t, projected,
                _bloch_fidelity(t_hat, truth_row), _bloch_trace_distance(t_hat, truth_row))


def _result(run: _Run, **reconstruction) -> TomographyResult:
    """A run as a TomographyResult, SampleEstimates built from its counts, plus any reconstruction fields."""
    per_step = tuple(map(_estimate, run.counts, repeat(run.shots), run.step_seeds, _LABELS))
    return TomographyResult(StokesVector(1.0, *run.estimate), per_step,
                            stokes_exact=StokesVector(1.0, *run.exact), **reconstruction)


def _scored(run: _Run) -> TomographyResult:
    """A run with its reconstruction and scores; `_project` has put bloch_hat in the ball."""
    return _result(run, rho_hat=_stokes_density(1.0, *run.bloch_hat), projected=run.projected,
                   fidelity=run.fidelity, trace_dist=run.trace_distance)


def estimate_stokes(rho: np.ndarray, shots: int, seed: int) -> TomographyResult:
    """Sample all three steps with shots each, 1 to 2**63 - 1, and read them out exactly too.

    The three step seeds derive_seed(seed, i) together seed the one generator
    that draws the three counts, in protocol order.
    """
    s = stokes_of(rho)
    return _result(_row([s.s1, s.s2, s.s3], _check_shots(shots), _check_seed(seed)))


def run_tomography(q: PureQubit, shots: int, seed: int) -> TomographyResult:
    """Full pipeline: estimate, reconstruct with projection, score against truth.

    shots, per step, must be an integer from 1 to 2**63 - 1, and seed an
    unsigned 64-bit integer; anything else raises ValueError (TypeError for
    a non-integer).

    The truth is read by `_pure_rows` (no density check); the scores equal
    `fidelity(q, rho_hat)` and `trace_distance(pure_density(q), rho_hat)`.
    """
    return _scored(_row(_pure_rows([(q.theta, q.phi)])[0], _check_shots(shots), _check_seed(seed)))
