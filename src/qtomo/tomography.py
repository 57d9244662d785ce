"""The three-step tomography protocol, exact and finite-shot.

Each step pins the two players' strategy parameters so that Alice's payoff
equals one Stokes parameter of the unknown qubit; running all three steps
therefore reads the full Bloch vector. Steps are listed in protocol order
(the first measures s2, the second s1, the third s3) and every step carries
an explicit label, so nothing downstream depends on position.

The appended state |0><0| kron rho and the joint unitary U_A kron U_B are
both products, so each step's outcome distribution is the ancilla's
distribution times the unknown qubit's, and exact readout and sampling work
on the qubit alone; the 4x4 route in `game` is the paper's derivation and
the tests' oracle. Each shot pays Alice +-1, so a step's m-shot estimate
(2k - m)/m needs one draw of the count k ~ Binomial(m, P(+1)) of +1 shots.
All randomness flows from one 64-bit master seed through a splitmix-style
derivation, so every result is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .game import GameRun, PayoffMatrix, Strategy, strategy_unitary
from .linalg import DEFAULT_TOL, _require_density
from .states import (
    PureQubit,
    StokesVector,
    _bloch_fidelity,
    _bloch_trace_distance,
    _pauli_stokes,
    density_from_stokes,
    pure_density,
)

HALF_PI = math.pi / 2.0

ALICE_PAYOFF = PayoffMatrix(1.0, -1.0, 1.0, -1.0)
BOB_PAYOFF = PayoffMatrix(-1.0, 1.0, -1.0, 1.0)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ProtocolStep:
    """One canonical measurement setting; label names the Stokes parameter it reads."""

    label: str
    strategy_a: Strategy
    strategy_b: Strategy
    payoff_a: PayoffMatrix
    payoff_b: PayoffMatrix


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
    sqrt(m), which for +-1 outcomes never exceeds 1/sqrt(m).
    """

    value: float
    shots: int
    std_error: float
    seed: int
    step_label: str = ""


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Output of an estimation run; reconstruction fields stay None until filled.

    stokes_exact is the exact readout of the same three outcome distributions
    the estimates were drawn from, equal bit for bit to `exact_stokes(rho)`.
    """

    stokes_est: StokesVector
    per_step: tuple[SampleEstimate, ...] | None = None
    rho_hat: np.ndarray | None = None
    projected: bool = False
    fidelity: float | None = None
    trace_dist: float | None = None
    stokes_exact: StokesVector | None = None


_PROTOCOL_STEPS = (
    ProtocolStep("S2", Strategy(HALF_PI, 0.0), Strategy(HALF_PI, HALF_PI), ALICE_PAYOFF, BOB_PAYOFF),
    ProtocolStep("S1", Strategy(HALF_PI, 0.0), Strategy(HALF_PI, 0.0), ALICE_PAYOFF, BOB_PAYOFF),
    ProtocolStep("S3", Strategy(0.0, 0.0), Strategy(0.0, 0.0), ALICE_PAYOFF, BOB_PAYOFF),
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
    _check_seed(master)
    if index < 0:
        raise ValueError("index must be non-negative")
    x = (master + (index + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _check_seed(seed: int) -> None:
    if not 0 <= int(seed) <= _MASK64:
        raise ValueError("seed must be an unsigned 64-bit integer")


def _factors(sa: Strategy, sb: Strategy) -> tuple[np.ndarray, np.ndarray]:
    """The ancilla's probabilities |U_A|0>|^2 and U_B; built once for each fixed protocol step."""
    return np.abs(strategy_unitary(sa)[:, 0]) ** 2, strategy_unitary(sb)


_STEP_FACTORS = tuple(_factors(step.strategy_a, step.strategy_b) for step in _PROTOCOL_STEPS)


def _outcome_probabilities(rho: np.ndarray, ancilla: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Probabilities of the outcomes |00>, |01>, |10>, |11> for the factors of `_factors`.

    (U_A kron U_B)(|0><0| kron rho)(U_A kron U_B)^dagger is the product of
    U_A|0><0|U_A^dagger and U_B rho U_B^dagger, so its diagonal is the
    ancilla's probabilities |U_A|0>|^2 times the diagonal of U_B rho U_B^dagger.
    rho must already be a valid 2x2 density matrix.
    """
    qubit = np.diagonal(ub @ rho @ ub.conj().T).real
    return np.clip(np.outer(ancilla, qubit).ravel(), 0.0, 1.0)


def _expected_payoff(probs: np.ndarray, p: PayoffMatrix) -> float:
    """sum_i e_i probs[i], added in basis order as in the trace tr(P rho_f)."""
    return float(sum(e * q for e, q in zip(p.entries(), probs.tolist())))


def _stokes_readout(alice: dict[str, float]) -> StokesVector:
    """The Stokes vector from Alice's per-step values, keyed by step label."""
    return StokesVector(1.0, alice["S1"], alice["S2"], alice["S3"])


def step_payoffs(rho: np.ndarray) -> tuple[StepPayoffs, ...]:
    """Exact payoffs of both players at each canonical step, for a given state."""
    _require_density(rho, 2)
    out = []
    for step, factors in zip(_PROTOCOL_STEPS, _STEP_FACTORS):
        probs = _outcome_probabilities(rho, *factors)
        out.append(
            StepPayoffs(
                label=step.label,
                alice=_expected_payoff(probs, step.payoff_a),
                bob=_expected_payoff(probs, step.payoff_b),
            )
        )
    return tuple(out)


def exact_stokes(rho: np.ndarray) -> StokesVector:
    """Stokes vector read off from Alice's exact payoffs over the three steps."""
    return _stokes_readout({sp.label: sp.alice for sp in step_payoffs(rho)})


def measurement_distribution(run: GameRun) -> np.ndarray:
    """Computational-basis outcome probabilities: the clamped real diagonal of rho_f.

    The imaginary part is rounding plus rho_in's Hermiticity residue, which
    `evolve`'s check bounds by DEFAULT_TOL; `sample_payoff` checks the sum.
    """
    return np.clip(np.diagonal(run.rho_f).real, 0.0, 1.0)


def sample_payoff(
    probs: np.ndarray, p: PayoffMatrix, shots: int, seed: int, label: str = ""
) -> SampleEstimate:
    """Monte Carlo payoff estimate from m = shots seeded computational-basis draws.

    probs holds the probabilities of the outcomes |00>, |01>, |10>, |11>, as
    returned by `measurement_distribution`; entries within DEFAULT_TOL below
    zero count as zero. Payoff entries must be exactly +-1, so the mean is
    (2k - m)/m for k ~ Binomial(m, p_plus) +1 draws: one draw at any m.
    Identical (probs, p, shots, seed) reproduce the identical estimate.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_seed(seed)
    entries = np.array(p.entries())
    if not np.all(np.abs(entries) == 1.0):
        raise ValueError("payoff entries must all be +1 or -1 for sampling")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (4,):
        raise ValueError(f"expected 4 outcome probabilities, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ValueError("outcome probabilities must be finite")
    if probs.min() < -DEFAULT_TOL:
        raise ValueError("outcome probabilities must be non-negative")
    if abs(float(probs.sum()) - 1.0) > DEFAULT_TOL:
        raise ValueError("outcome probabilities must sum to 1")
    # Rounding can put the normalized sum just above 1, which binomial rejects.
    p_plus = min(float(np.maximum(probs, 0.0)[entries == 1.0].sum() / probs.sum()), 1.0)
    k = int(np.random.default_rng(seed).binomial(shots, p_plus))
    return SampleEstimate(
        value=(2 * k - shots) / shots,
        shots=shots,
        std_error=2.0 * math.sqrt(k * (shots - k)) / shots**1.5,
        seed=int(seed),
        step_label=label,
    )


def estimate_stokes(rho: np.ndarray, shots: int, seed: int) -> TomographyResult:
    """Sample all three steps with shots each; sub-seed i drives step i.

    Returns the estimates and the exact readout of the distributions they
    were drawn from; reconstruction is a separate concern.
    """
    _require_density(rho, 2)
    estimates = []
    exact = {}
    for i, (step, factors) in enumerate(zip(_PROTOCOL_STEPS, _STEP_FACTORS)):
        probs = _outcome_probabilities(rho, *factors)
        exact[step.label] = _expected_payoff(probs, step.payoff_a)
        estimates.append(
            sample_payoff(probs, step.payoff_a, shots, derive_seed(seed, i), label=step.label)
        )
    return TomographyResult(
        stokes_est=_stokes_readout({e.step_label: e.value for e in estimates}),
        per_step=tuple(estimates),
        stokes_exact=_stokes_readout(exact),
    )


def reconstruct(s: StokesVector) -> tuple[np.ndarray, bool]:
    """Rebuild a density matrix from Stokes parameters.

    A Bloch vector outside the unit ball (beyond DEFAULT_TOL, so exact round
    trips of physical states never trigger this) is rescaled radially onto
    the sphere; a norm that overflows raises ValueError. Returns (rho, projected).
    """
    norm = s.bloch_norm()
    if not math.isfinite(norm):
        raise ValueError("Bloch vector norm overflows")
    projected = norm > 1.0 + DEFAULT_TOL
    if projected:
        s = StokesVector(s.s0, s.s1 / norm, s.s2 / norm, s.s3 / norm)
    return density_from_stokes(s), projected


def run_tomography(q: PureQubit, shots: int, seed: int) -> TomographyResult:
    """Full pipeline: estimate, reconstruct with projection, score against truth.

    Only `estimate_stokes` checks the true state; the scores compare the
    Bloch vectors of matrices built here, so they equal `fidelity(q, rho_hat)`
    and `trace_distance(pure_density(q), rho_hat)` without re-checking them.
    """
    rho_true = pure_density(q)
    est = estimate_stokes(rho_true, shots, seed)
    rho_hat, projected = reconstruct(est.stokes_est)
    truth, s_hat = _pauli_stokes(rho_true), _pauli_stokes(rho_hat)
    return replace(
        est,
        rho_hat=rho_hat,
        projected=projected,
        fidelity=_bloch_fidelity(s_hat, truth),
        trace_dist=_bloch_trace_distance(s_hat, truth),
    )

