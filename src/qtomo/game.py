"""Two-player strategy unitaries, appended-state evolution, and payoffs.

The unknown qubit rides in the second tensor slot: the known ancilla |0><0|
is appended as the first factor, player A's unitary acts on the ancilla and
player B's on the unknown qubit. A payoff is the expectation tr(P rho_f) of
a diagonal payoff operator P in the evolved state (`measurement_distribution`
gives its four outcome probabilities), and the same number is
available in closed form as a trigonometric function of the strategy angles
and the state angles. The two routes agree to ~1e-12 and are tested against
each other. This module is the paper's derivation and the tests' oracle: the
package exports only `Strategy` and `PayoffMatrix` from it, and the hot path
in `tomography` reads the same payoffs through the 3x4 instrument matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _require_density, cmatrix, kron
from .states import TWO_PI, PureQubit

KET0_PROJECTOR = cmatrix([[1, 0], [0, 0]])


@dataclass(frozen=True)
class Strategy:
    """Player unitary parameters.

    beta in [0, pi] mixes the phase rotation into the flip (out-of-range
    values are an error); alpha is the rotation phase, normalized to
    [0, 2 pi).
    """

    beta: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and math.isfinite(self.alpha)):
            raise ValueError("strategy angles must be finite")
        if not 0.0 <= self.beta <= math.pi:
            raise ValueError(f"beta must be in [0, pi], got {self.beta}")
        object.__setattr__(self, "alpha", self.alpha % TWO_PI)


@dataclass(frozen=True)
class PayoffMatrix:
    """Real payoff entries e_ij awarded for the measured outcome |ij>."""

    e00: float
    e01: float
    e10: float
    e11: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.entries())):
            raise ValueError("payoff entries must be finite")

    def entries(self) -> tuple[float, float, float, float]:
        """Entries in basis order |00>, |01>, |10>, |11>."""
        return (self.e00, self.e01, self.e10, self.e11)


@dataclass(frozen=True, eq=False)
class GameRun:
    """One evolution rho_f = (U_A kron U_B) rho_in (U_A kron U_B)^dagger."""

    rho_in: np.ndarray
    strategy_a: Strategy
    strategy_b: Strategy
    rho_f: np.ndarray


def strategy_unitary(s: Strategy) -> np.ndarray:
    """Materialize the strategy as a 2x2 unitary.

    Columns are U|0> = e^{i alpha} cos(beta/2)|0> - sin(beta/2)|1> and
    U|1> = sin(beta/2)|0> + e^{-i alpha} cos(beta/2)|1>.
    """
    c = math.cos(s.beta / 2.0)
    si = math.sin(s.beta / 2.0)
    ph = cmath.exp(1j * s.alpha)
    return cmatrix([[ph * c, si], [-si, ph.conjugate() * c]])


def initial_state(rho: np.ndarray) -> np.ndarray:
    """Append the ancilla: the 4x4 product state |0><0| kron rho."""
    _require_density(rho, 2)
    return kron(KET0_PROJECTOR, rho)


def evolve(rho_in: np.ndarray, sa: Strategy, sb: Strategy) -> GameRun:
    """Conjugate a 4x4 density matrix by the joint strategy unitary.

    The conjugation preserves the checked trace of rho_in up to rounding, so
    rho_f is not checked again.
    """
    _require_density(rho_in, 4)
    u = kron(strategy_unitary(sa), strategy_unitary(sb))
    rho_f = cmatrix(u @ rho_in @ u.conj().T)
    return GameRun(rho_in=rho_in, strategy_a=sa, strategy_b=sb, rho_f=rho_f)


def measurement_distribution(run: GameRun) -> np.ndarray:
    """Computational-basis outcome probabilities: the clamped real diagonal of rho_f.

    The imaginary part is rounding plus rho_in's Hermiticity residue, which
    `evolve`'s check bounds by DEFAULT_TOL.
    """
    return np.clip(np.diagonal(run.rho_f).real, 0.0, 1.0)


def payoff_exact(run: GameRun, p: PayoffMatrix) -> float:
    """Payoff Re tr(P rho_f) of the diagonal observable P = diag(e00, e01, e10, e11).

    The imaginary part, sum_i e_i Im rho_f[i, i], is rounding plus the
    Hermiticity residue of rho_in that `evolve`'s density check bounds by
    DEFAULT_TOL, both scaled by the payoff entries, so only the real part is
    read.
    """
    return complex(np.trace(cmatrix(np.diag(p.entries())) @ run.rho_f)).real


def payoff_closed_form(p: PayoffMatrix, sa: Strategy, sb: Strategy, q: PureQubit) -> float:
    """Closed-form payoff for a pure input state, bypassing any matrix work.

    Both angular brackets (the cos(alpha_B) one and the sin(alpha_B) one)
    carry the same phi_coef/theta_coef weights; the result is independent of
    alpha_A, which cancels exactly in the expectation. The four quadratic
    weights chi, xi, omega, eta partition unity; phi_coef and theta_coef
    carry the interference terms that expose the off-diagonal of the state.
    """
    ca2 = math.cos(sa.beta / 2.0) ** 2
    sa2 = math.sin(sa.beta / 2.0) ** 2
    cb2 = math.cos(sb.beta / 2.0) ** 2
    sb2 = math.sin(sb.beta / 2.0) ** 2
    sin_bb = math.sin(sb.beta)
    chi, xi, omega, eta = ca2 * cb2, ca2 * sb2, sa2 * sb2, sa2 * cb2
    phi_coef, theta_coef = 0.5 * ca2 * sin_bb, 0.5 * sa2 * sin_bb
    cos_half_sq = math.cos(q.theta / 2.0) ** 2
    sin_half_sq = math.sin(q.theta / 2.0) ** 2
    sin_theta = math.sin(q.theta)
    edge = (p.e00 - p.e01) * phi_coef + (p.e10 - p.e11) * theta_coef
    return (
        (p.e00 * chi + p.e11 * omega + p.e01 * xi + p.e10 * eta) * cos_half_sq
        + (p.e00 * xi + p.e11 * eta + p.e01 * chi + p.e10 * omega) * sin_half_sq
        + edge * math.cos(sb.alpha) * sin_theta * math.cos(q.phi)
        + edge * math.sin(sb.alpha) * sin_theta * math.sin(q.phi)
    )
