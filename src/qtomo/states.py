"""Single-qubit state representations and conversions.

A qubit density matrix decomposes over the Pauli basis as
rho = (1/2) sum_i s_i sigma_i with s0 = 1; the real coefficients
(s1, s2, s3) form the Bloch vector, which sits on the unit sphere for pure
states and strictly inside the ball for mixed ones. Pure states carry the
usual polar parameterization |psi> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, _require_density, cmatrix

TWO_PI = 2.0 * math.pi

SIGMA0 = cmatrix([[1, 0], [0, 1]])
SIGMA1 = cmatrix([[0, 1], [1, 0]])
SIGMA2 = cmatrix([[0, -1j], [1j, 0]])
SIGMA3 = cmatrix([[1, 0], [0, -1]])
PAULIS = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)


@dataclass(frozen=True)
class PureQubit:
    """Bloch-sphere angles of a pure state.

    theta must lie in [0, pi] (out-of-range values are an error, not wrapped);
    phi is normalized into [0, 2 pi).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("angles must be finite")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)


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


def _amplitudes(q: PureQubit) -> np.ndarray:
    return np.array(
        [math.cos(q.theta / 2.0), cmath.exp(1j * q.phi) * math.sin(q.theta / 2.0)],
        dtype=np.complex128,
    )


def pure_density(q: PureQubit) -> np.ndarray:
    """Density matrix |psi><psi| of the pure state at (theta, phi)."""
    psi = _amplitudes(q)
    return cmatrix(np.outer(psi, psi.conj()))


def _pauli_stokes(rho: np.ndarray) -> StokesVector:
    """s_i = Re tr(sigma_i rho), unchecked: rho must be a valid 2x2 density matrix.

    The imaginary part of tr(sigma_i rho) is tr(sigma_i (rho - rho^dagger))/2i,
    at most the Hermiticity residual that the caller's density check already
    bounds by DEFAULT_TOL, so only the real part is read. Each trace is a sum
    or difference of two entries of rho, so no product sigma_i rho is formed;
    adding 0.0 reads a zero trace as +0.0, as that product does when an entry
    is -0.0 (a subnormal Bloch coordinate halves to -0.0).
    """
    (r00, r01), (r10, r11) = rho.tolist()
    traces = (r00 + r11, r10 + r01, 1j * r01 - 1j * r10, r00 - r11)
    return StokesVector(*(t.real + 0.0 for t in traces))


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
    rho = 0.5 * (s.s0 * SIGMA0 + s.s1 * SIGMA1 + s.s2 * SIGMA2 + s.s3 * SIGMA3)
    return cmatrix(rho)


def _bloch_rows(*vectors: StokesVector) -> np.ndarray:
    """The Bloch vectors (s1, s2, s3) of the given Stokes vectors, as the rows of an (n, 3) array."""
    return np.array([(v.s1, v.s2, v.s3) for v in vectors])


def _bloch_fidelity(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1 + s.t)/2 per row of two (n, 3) Bloch arrays, in [0, 1]: the fidelity when one state is pure."""
    st = s * t
    return np.minimum(np.maximum(0.5 * (1.0 + (st[:, 0] + st[:, 1] + st[:, 2])), 0.0), 1.0)


def _bloch_trace_distance(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|s - t|/2 per row of two (n, 3) Bloch arrays: the trace distance of two qubit states."""
    d = s - t
    dd = d * d
    return 0.5 * np.sqrt(dd[:, 0] + dd[:, 1] + dd[:, 2])


def fidelity(q: PureQubit, rho: np.ndarray) -> float:
    """Overlap <psi| rho |psi> between a pure target and a density matrix, as (1 + s.t)/2."""
    _require_density(rho, 2)
    s = _bloch_rows(_pauli_stokes(rho), _pauli_stokes(pure_density(q)))
    return float(_bloch_fidelity(s[:1], s[1:])[0])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b): half the Euclidean distance between the Bloch vectors."""
    _require_density(a, 2)
    _require_density(b, 2)
    s = _bloch_rows(_pauli_stokes(a), _pauli_stokes(b))
    return float(_bloch_trace_distance(s[:1], s[1:])[0])
