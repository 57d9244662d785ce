"""The three-step tomography protocol, exact and finite-shot.

Each step pins the two players' strategy parameters so that Alice's payoff
equals one Stokes parameter of the unknown qubit; running all three steps
therefore reads the full Bloch vector. Steps are listed in protocol order
(the first measures s2, the second s1, the third s3) and every step carries
an explicit label, so nothing downstream depends on position.

Step k pays Alice +1 with probability P(+1) = a_k . (1, s1, s2, s3); the rows
a_k, derived at import from the steps' strategies and payoffs, form the 3x4
instrument matrix, so no 4x4 state is built (the 4x4 route in `game` is the
paper's derivation and the tests' oracle). A step's m-shot estimate
(2k - m)/m needs one draw of the count k ~ Binomial(m, P(+1)) of +1 shots.
All randomness flows from one 64-bit master seed through a splitmix-style
derivation, so every result is reproducible bit for bit.

The sampler, `SAMPLER` = "binomial-count-v2", gives each state one
generator: state seed s draws its three counts, in protocol order, from
`np.random.default_rng([derive_seed(s, 0), derive_seed(s, 1),
derive_seed(s, 2)])`. A step's reported `seed` is its word of that
generator's entropy, so the three step seeds together reproduce the draw.

One array core, `_tomography`, runs the protocol on n Bloch vectors at once:
one generator per state, then readouts, projection and scores as arrays. The
batch keeps the counts: a row's `SampleEstimate`s are built by `_estimate`
only when the row becomes a result. `run_tomography` is its n = 1 case and a
CLI sweep or trial set is one call; `_pure_rows` reads the batch's pure
truths in one array pass, equal bit for bit to reading them one at a time.
A (1, s) is summed elementwise in a fixed order, not as a matrix product,
whose rounding depends on the number of rows: a state's numbers do not
depend on the size of its batch.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .game import PayoffMatrix, Strategy, strategy_unitary
from .linalg import DEFAULT_TOL
from .states import (
    PAULIS,
    PureQubit,
    StokesVector,
    _amplitudes,
    _bloch_fidelity,
    _bloch_rows,
    _bloch_trace_distance,
    _entry_stokes,
    density_from_stokes,
    stokes_of,
)

HALF_PI = math.pi / 2.0

ALICE_PAYOFF = PayoffMatrix(1.0, -1.0, 1.0, -1.0)
BOB_PAYOFF = PayoffMatrix(-1.0, 1.0, -1.0, 1.0)

# The count sampler's id, recorded in the sample and sweep reports: one
# generator per state, seeded with its three step seeds.
SAMPLER = "binomial-count-v2"

_MASK64 = (1 << 64) - 1
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
    step's derive_seed(state seed, step index): one of the three entropy
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
    """The shot count as a Python int; raises unless it is an integer >= 1."""
    shots = operator.index(shots)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return shots


def _plus_outcomes(p: PayoffMatrix) -> np.ndarray:
    """Mask of the outcomes |00>, |01>, |10>, |11> that pay +1; every entry must be +-1."""
    entries = np.array(p.entries())
    if not np.all(np.abs(entries) == 1.0):
        raise ValueError("payoff entries must all be +1 or -1")
    return entries == 1.0


def _instrument_row(sa: Strategy, sb: Strategy, p: PayoffMatrix) -> np.ndarray:
    """The row a with P(+1) = a . (1, s1, s2, s3) for one strategy pair and +-1 payoff.

    Outcome |ij> has probability |U_A|0>|^2_i times entry j of the diagonal of
    U_B rho U_B^dagger = (1/2) sum_k s_k U_B sigma_k U_B^dagger; summing over
    the outcomes that pay +1 gives a. Stacked over the protocol steps the rows
    form the measurement matrix of linear-inversion tomography (James, Kwiat,
    Munro & White, PRA 64, 052312 (2001)).
    """
    plus = _plus_outcomes(p).reshape(2, 2)
    ancilla = np.abs(strategy_unitary(sa)[:, 0]) ** 2
    ub = strategy_unitary(sb)
    qubit = np.array([np.diagonal(ub @ sigma @ ub.conj().T).real for sigma in PAULIS])
    return 0.5 * qubit @ (ancilla @ plus)


_INSTRUMENT = np.array([_instrument_row(s.strategy_a, s.strategy_b, s.payoff_a) for s in _PROTOCOL_STEPS])
_INSTRUMENT.setflags(write=False)
_LABELS = tuple(step.label for step in _PROTOCOL_STEPS)
_STEPS = range(len(_LABELS))
_BLOCH_ORDER = [_LABELS.index(label) for label in ("S1", "S2", "S3")]  # the steps reading s1, s2, s3
_E3 = np.array([0.0, 0.0, 1.0])


def _plus_probabilities(truth: np.ndarray) -> np.ndarray:
    """P(+1) = a0 + a1 s1 + a2 s2 + a3 s3, clipped to [0, 1]: a row per Bloch vector, a column per step."""
    terms = truth.T[:, :, None] * _INSTRUMENT.T[1:, None, :]  # terms[c, i, k] = a_k,c+1 s_c+1 of row i
    p = _INSTRUMENT[:, 0] + terms[0] + terms[1] + terms[2]
    return np.minimum(np.maximum(p, 0.0), 1.0)


def step_payoffs(rho: np.ndarray) -> tuple[StepPayoffs, ...]:
    """Exact payoffs of both players at each canonical step: Alice 2 P(+1) - 1, Bob its negative."""
    alice = (2.0 * _plus_probabilities(_bloch_rows(stokes_of(rho))) - 1.0)[0].tolist()
    return tuple(StepPayoffs(label, a, -a) for label, a in zip(_LABELS, alice))


def exact_stokes(rho: np.ndarray) -> StokesVector:
    """Stokes vector read off from Alice's exact payoffs over the three steps."""
    alice = {sp.label: sp.alice for sp in step_payoffs(rho)}
    return StokesVector(1.0, alice["S1"], alice["S2"], alice["S3"])


def _draw(p_row: list[float], shots: int, step_seeds: list[int]) -> list[int]:
    """A state's three counts k ~ Binomial(shots, P(+1)) of +1 shots, in protocol order.

    One generator per state, seeded with the state's three step seeds; three
    scalar draws cost less than one array draw. Inputs are already checked.
    """
    rng = np.random.default_rng(step_seeds)
    return [int(rng.binomial(shots, p)) for p in p_row]


def _mean(k: int, shots: int) -> float:
    """The mean of k outcomes +1 and shots - k outcomes -1."""
    return (2 * k - shots) / shots


def _estimate(k: int, shots: int, seed: int, label: str) -> SampleEstimate:
    """A step's SampleEstimate from its count k of +1 shots: the one place its value and std error are formed."""
    std_error = 2.0 * math.sqrt(k * (shots - k)) / shots**1.5
    return SampleEstimate(_mean(k, shots), shots, std_error, seed, label)


def _project(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, projected): each row of an (n, 3) Bloch array beyond 1 + DEFAULT_TOL scaled onto the sphere.

    Exact round trips of physical states never move; a norm that overflows raises ValueError.
    """
    with np.errstate(over="ignore"):
        sq = t * t
    norm = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    if not np.isfinite(norm).all():
        raise ValueError("Bloch vector norm overflows")
    projected = norm > 1.0 + DEFAULT_TOL
    return t / np.where(projected, norm, 1.0)[:, None], projected


def _pure_rows(states) -> np.ndarray:
    """The Bloch vectors of the given `PureQubit`s, as the rows of an (n, 3) array.

    One array pass: each |psi><psi| is the numpy product of the amplitudes
    that `pure_density` forms, and `_entry_stokes` reads its entries as
    `_pauli_stokes` does, so each row equals `_pauli_stokes(pure_density(q))`
    bit for bit. The products stay in numpy: Python's complex product rounds
    b * conj(b) differently in the last bit. No density check: `PureQubit`
    has checked the angles, so each |psi><psi| is a valid pure state.
    """
    psi = np.array([_amplitudes(q) for q in states], dtype=np.complex128)
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    s = _entry_stokes(rho[:, 0, 0], rho[:, 0, 1], rho[:, 1, 0], rho[:, 1, 1])
    return np.array(s[1:]).T


def reconstruct(s: StokesVector) -> tuple[np.ndarray, bool]:
    """(rho, projected): the density matrix of s, its Bloch vector projected as `_project` does.

    Scaling a Bloch vector beyond the ball onto the sphere gives the physical
    state nearest (I + s.sigma)/2 in Frobenius norm, the least-squares
    estimate: that state's eigenvalues are the projection of (1 +- |s|)/2
    onto the probability simplex, (1, 0), with the eigenvectors kept (Smolin,
    Gambetta & Smith, PRL 108, 070502 (2012)).
    """
    (t,), (projected,) = _project(_bloch_rows(s))
    return density_from_stokes(StokesVector(s.s0, *t.tolist())), bool(projected)


# A batch of n states drawn at `shots` per step: n lists of the three steps' +1 counts and of their
# seeds, in protocol order; (n, 3) Bloch arrays of the exact and sampled readouts and of the sample
# projected into the ball (bloch_hat); then (n,) flags and scores.
_Batch = namedtuple("_Batch", "shots counts step_seeds exact estimate bloch_hat projected fidelity trace_distance")


def _tomography(truth: np.ndarray, shots: int, seeds: list[int]) -> _Batch:
    """The protocol on each row of an (n, 3) Bloch array; row i draws from the generator of its step seeds.

    Row i's step seeds are derive_seed(seeds[i], j) for the steps j, and
    `_draw` seeds the row's one generator with all three.

    The batch keeps counts, not SampleEstimates: only a row turned into a
    result (`_result`) builds its three. The scores read t back from
    rho_hat = (I + t.sigma)/2 as `_pauli_stokes` does (s3 as
    (1 + t3)/2 - (1 - t3)/2), so they equal `fidelity(q, rho_hat)` bit for bit.
    """
    shots = _check_shots(shots)
    p = _plus_probabilities(truth)
    step_seeds = [list(map(derive_seed, repeat(seed), _STEPS)) for seed in seeds]
    counts = list(map(_draw, p.tolist(), repeat(shots), step_seeds))
    estimate = np.array([[_mean(row[j], shots) for j in _BLOCH_ORDER] for row in counts])
    t, projected = _project(estimate)
    t_hat = 0.5 * (_E3 + t) - 0.5 * (_E3 - t)  # t as `_pauli_stokes` reads it back from rho_hat
    exact = (2.0 * p - 1.0).take(_BLOCH_ORDER, axis=1)
    fid, dist = _bloch_fidelity(t_hat, truth), _bloch_trace_distance(t_hat, truth)
    return _Batch(shots, counts, step_seeds, exact, estimate, t, projected, fid, dist)


def _result(batch: _Batch, i: int, **reconstruction) -> TomographyResult:
    """Row i of a batch as a TomographyResult, SampleEstimates built from its counts, plus any reconstruction fields."""
    est = StokesVector(1.0, *batch.estimate[i].tolist())
    per_step = tuple(map(_estimate, batch.counts[i], repeat(batch.shots), batch.step_seeds[i], _LABELS))
    return TomographyResult(est, per_step, stokes_exact=StokesVector(1.0, *batch.exact[i].tolist()), **reconstruction)


def _scored(batch: _Batch, i: int) -> TomographyResult:
    """Row i of a batch with its reconstruction and scores."""
    rho_hat = density_from_stokes(StokesVector(1.0, *batch.bloch_hat[i].tolist()))
    return _result(batch, i, rho_hat=rho_hat, projected=bool(batch.projected[i]),
                   fidelity=float(batch.fidelity[i]), trace_dist=float(batch.trace_distance[i]))


def estimate_stokes(rho: np.ndarray, shots: int, seed: int) -> TomographyResult:
    """Sample all three steps with shots each, sub-seed i driving step i, and read them out exactly too."""
    return _result(_tomography(_bloch_rows(stokes_of(rho)), shots, [seed]), 0)


def run_tomography(q: PureQubit, shots: int, seed: int) -> TomographyResult:
    """Full pipeline: estimate, reconstruct with projection, score against truth.

    The n = 1 case of `_tomography`, with the truth read by `_pure_rows`
    (no density check); the scores equal `fidelity(q, rho_hat)` and
    `trace_distance(pure_density(q), rho_hat)`.
    """
    return _scored(_tomography(_pure_rows([q]), shots, [seed]), 0)
