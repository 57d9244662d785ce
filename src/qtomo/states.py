"""Single-qubit state representations and conversions.

A qubit density matrix decomposes over the Pauli basis as
rho = (1/2) sum_i s_i sigma_i with s0 = 1; the real coefficients
(s1, s2, s3) form the Bloch vector, which sits on the unit sphere for pure
states and strictly inside the ball for mixed ones. Pure states carry the
usual polar parameterization |psi> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.
`pure_density` and the unchecked batch reader `_pure_rows` both form
|psi><psi| through `_pure_densities`, so they agree bit for bit. The batch
reader returns each Bloch vector as a row of three floats, which the
tomography core reads out per row in floats. It takes (theta, phi) pairs
of floats: a `PureQubit` passes
`(q.theta, q.phi)`, and a CLI sweep passes the angles of its grid as it
built them, with no `PureQubit` per cell. The reverse map, rho from
(s0, s1, s2, s3), is formed only by `_stokes_density`: `density_from_stokes`
calls it after its checks, and the tomography core calls it for a
reconstruction it has already put in the ball.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, _freeze, _require_density, cmatrix

TWO_PI = 2.0 * math.pi

SIGMA0 = cmatrix([[1, 0], [0, 1]])
SIGMA1 = cmatrix([[0, 1], [1, 0]])
SIGMA2 = cmatrix([[0, -1j], [1j, 0]])
SIGMA3 = cmatrix([[1, 0], [0, -1]])
PAULIS = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)


def _wrap_angle(x: float) -> float:
    """x reduced into [0, 2 pi).

    Python's `x % TWO_PI` lies in [0, 2 pi] for finite x: for a tiny negative
    x the sum that brings it into range rounds up to 2 pi itself, read as 0.
    """
    r = x % TWO_PI
    return 0.0 if r == TWO_PI else r


@dataclass(frozen=True)
class PureQubit:
    """Bloch-sphere angles of a pure state.

    theta must lie in [0, pi] (out-of-range values are an error, not wrapped)
    and is stored as theta + 0.0, so -0.0 reads as 0.0; phi is normalized into
    [0, 2 pi).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("angles must be finite")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", self.theta + 0.0)
        object.__setattr__(self, "phi", _wrap_angle(self.phi))


@dataclass(frozen=True)
class StokesVector:
    """Pauli-basis coefficients (s0, s1, s2, s3) of a qubit state.

    s0 is 1 for normalized states. Finite-shot estimates may land slightly
    outside the unit ball, so ball membership is checked where a density
    matrix is actually built, not here.
    """

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.s0, self.s1, self.s2, self.s3))):
            raise ValueError("Stokes parameters must be finite")

    def bloch_norm(self) -> float:
        return math.sqrt(self.s1 * self.s1 + self.s2 * self.s2 + self.s3 * self.s3)


def _amplitudes(theta: float, phi: float) -> tuple[float, complex]:
    """The amplitudes (cos(theta/2), e^{i phi} sin(theta/2)) of |psi> on |0> and |1>."""
    return math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0)


def _pure_densities(angles) -> np.ndarray:
    """|psi><psi| at each (theta, phi) pair, an (n, 2, 2) array: the one place the products are formed.

    Unchecked: each theta must lie in [0, pi] and each phi in [0, 2 pi), as
    `PureQubit` stores them. The products stay in numpy: Python's complex
    product rounds b * conj(b) differently in the last bit.
    """
    psi = np.array([_amplitudes(theta, phi) for theta, phi in angles], dtype=np.complex128)
    return psi[:, :, None] * psi.conj()[:, None, :]


def pure_density(q: PureQubit) -> np.ndarray:
    """Density matrix |psi><psi| of the pure state at (theta, phi)."""
    return cmatrix(_pure_densities([(q.theta, q.phi)])[0])


def _entry_stokes(r00, r01, r10, r11):
    """(s0, s1, s2, s3) = Re tr(sigma_i rho) from the entries of rho, scalars or equal-shape arrays.

    Each trace is a sum or difference of two entries, so no product sigma_i rho
    is formed; adding 0.0 reads a zero trace as +0.0, as that product does when
    an entry is -0.0 (a subnormal Bloch coordinate halves to -0.0).
    """
    return (
        (r00 + r11).real + 0.0,
        (r10 + r01).real + 0.0,
        (1j * r01 - 1j * r10).real + 0.0,
        (r00 - r11).real + 0.0,
    )


def _pauli_stokes(rho: np.ndarray) -> StokesVector:
    """s_i = Re tr(sigma_i rho), unchecked: rho must be a valid 2x2 density matrix.

    The imaginary part of tr(sigma_i rho) is tr(sigma_i (rho - rho^dagger))/2i,
    at most the Hermiticity residual that the caller's density check already
    bounds by DEFAULT_TOL, so only the real part is read, by `_entry_stokes`.
    """
    (r00, r01), (r10, r11) = rho.tolist()
    return StokesVector(*_entry_stokes(r00, r01, r10, r11))


def _pure_rows(angles) -> list[list[float]]:
    """The Bloch vectors of the pure states at the given (theta, phi) pairs, as rows [s1, s2, s3] of floats.

    One array pass: `_entry_stokes` reads the entries of `_pure_densities`
    as `_pauli_stokes` does, so the row of `(q.theta, q.phi)` equals
    `_pauli_stokes(pure_density(q))` bit for bit. No density check: the
    angles are in range (`PureQubit` has checked them, or the caller built
    them so), so each |psi><psi| is a valid pure state.
    """
    rho = _pure_densities(angles)
    s = _entry_stokes(rho[:, 0, 0], rho[:, 0, 1], rho[:, 1, 0], rho[:, 1, 1])
    return np.array(s[1:]).T.tolist()


def stokes_of(rho: np.ndarray) -> StokesVector:
    """Stokes parameters s_i = Re tr(sigma_i rho) of a 2x2 density matrix."""
    _require_density(rho, 2)
    return _pauli_stokes(rho)


def density_from_stokes(s: StokesVector) -> np.ndarray:
    """Rebuild rho = (1/2) sum_i s_i sigma_i; the input must lie in the Bloch ball."""
    if abs(s.s0 - 1.0) > DEFAULT_TOL:
        raise ValueError(f"s0 must be 1 for a normalized state, got {s.s0}")
    norm = s.bloch_norm()
    if norm > 1.0 + DEFAULT_TOL:
        raise ValueError(f"Bloch norm {norm:.6g} exceeds 1; project the vector first")
    return _stokes_density(s.s0, s.s1, s.s2, s.s3)


def _stokes_density(s0: float, s1: float, s2: float, s3: float) -> np.ndarray:
    """rho = (1/2) sum_i s_i sigma_i as a read-only array, unchecked: the one place it is formed.

    The four entries are written out, equal bit for bit to the Pauli sum
    0.5 * (s0 SIGMA0 + s1 SIGMA1 + s2 SIGMA2 + s3 SIGMA3): adding 0.0 turns
    a -0.0 into the +0.0 that sum gives where a sigma's zero entry is added.
    """
    return _freeze(np.array([
        [0.5 * (s0 + s3) + 0j, complex(0.5 * (s1 + 0.0), 0.5 * (0.0 - s2))],
        [complex(0.5 * (s1 + 0.0), 0.5 * (s2 + 0.0)), 0.5 * (s0 - s3) + 0j],
    ]))


def _bloch_fidelity(s, t) -> float:
    """(1 + s.t)/2 of two Bloch vectors, clipped to [0, 1]: the fidelity when one state is pure."""
    s1, s2, s3 = s
    t1, t2, t3 = t
    return min(max(0.5 * (1.0 + (s1 * t1 + s2 * t2 + s3 * t3)), 0.0), 1.0)


def _bloch_trace_distance(s, t) -> float:
    """|s - t|/2 of two Bloch vectors: the trace distance of two qubit states."""
    s1, s2, s3 = s
    t1, t2, t3 = t
    d1, d2, d3 = s1 - t1, s2 - t2, s3 - t3
    return 0.5 * math.sqrt(d1 * d1 + d2 * d2 + d3 * d3)


def fidelity(q: PureQubit, rho: np.ndarray) -> float:
    """Overlap <psi| rho |psi> between a pure target and a density matrix, as (1 + s.t)/2."""
    _require_density(rho, 2)
    s = _pauli_stokes(rho)
    return _bloch_fidelity((s.s1, s.s2, s.s3), _pure_rows([(q.theta, q.phi)])[0])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b): half the Euclidean distance between the Bloch vectors."""
    _require_density(a, 2)
    _require_density(b, 2)
    s, t = _pauli_stokes(a), _pauli_stokes(b)
    return _bloch_trace_distance((s.s1, s.s2, s.s3), (t.s1, t.s2, t.s3))
