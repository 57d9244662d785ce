"""Single-qubit states: pure-state angles, Stokes vectors, and the two scores.

A qubit density matrix decomposes over the Pauli basis as
rho = (1/2) sum_i s_i sigma_i with s0 = tr rho = 1; the real coefficients
(s1, s2, s3) form the Bloch vector, which sits on the unit sphere for pure
states and strictly inside the ball for mixed ones. Pure states carry the
usual polar parameterization |psi> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.
Each map is formed in one place, so every reader of it agrees bit for bit:
rho of a pure state, the Stokes parameters of rho, rho of its Stokes
parameters, and the fidelity to a pure target and the trace distance as
closed forms in Bloch vectors. Public functions check the matrices they are
given; the tomography core reads states it built or whose angles are checked.
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


def _set_angles(obj, polar: str, azimuth: str, what: str) -> None:
    """Check and store a frozen dataclass's angle pair: the one rule for `PureQubit` and `Strategy`.

    Both angles must be finite (else "<what> must be finite") and the polar
    angle must lie in [0, pi]; it is stored as polar + 0.0, so -0.0 reads as
    0.0, and the azimuth is reduced into [0, 2 pi). Python's `x % TWO_PI`
    lies in [0, 2 pi] for finite x: for a tiny negative x the sum that brings
    it into range rounds up to 2 pi itself, stored as 0.
    """
    theta, phi = getattr(obj, polar), getattr(obj, azimuth)
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"{what} must be finite")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"{polar} must be in [0, pi], got {theta}")
    phi %= TWO_PI
    object.__setattr__(obj, polar, theta + 0.0)
    object.__setattr__(obj, azimuth, 0.0 if phi == TWO_PI else phi)


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
        _set_angles(self, "theta", "phi", "angles")


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
    product rounds b * conj(b) differently in the last bit. numpy's own
    rounds differently with FMA than without: this is where seeded outputs
    come to depend on numpy's SIMD level.
    """
    psi = np.array([_amplitudes(theta, phi) for theta, phi in angles], dtype=np.complex128)
    return psi[:, :, None] * psi.conj()[:, None, :]


def pure_density(q: PureQubit) -> np.ndarray:
    """Density matrix |psi><psi| of the pure state at (theta, phi)."""
    return _freeze(_pure_densities([(q.theta, q.phi)]))[0]


def _entry_stokes(re00, re01, re10, re11, im01, im10):
    """The Bloch vector (s1, s2, s3), s_i = Re tr(sigma_i rho), from the parts of rho's entries: the one place it is formed.

    The parts are the real parts of the four entries and the imaginary parts
    of the two off the diagonal, all floats or all equal-shape float arrays.
    Each trace is a sum or difference of two parts, s1 = Re r10 + Re r01,
    s2 = Im r10 - Im r01 and s3 = Re r00 - Re r11, so no product sigma_i rho
    is formed, nor a complex sum or 1j * r product; these equal the real parts
    of the complex forms bit for bit. Adding 0.0 reads a zero trace as +0.0,
    as that product does when an entry is -0.0 (a subnormal Bloch coordinate
    halves to -0.0). s0 = tr rho is not a Bloch coordinate: `_pauli_stokes`,
    the one reader that reports it, sums the diagonal itself.
    """
    return re10 + re01 + 0.0, im10 - im01 + 0.0, re00 - re11 + 0.0


def _pauli_stokes(rho: np.ndarray) -> StokesVector:
    """s_i = Re tr(sigma_i rho), unchecked: rho must be a valid 2x2 density matrix.

    The imaginary part of tr(sigma_i rho) is tr(sigma_i (rho - rho^dagger))/2i,
    at most the Hermiticity residual that the caller's density check already
    bounds by DEFAULT_TOL, so only the real part is read: s0 = tr rho here,
    within DEFAULT_TOL of 1 and so never -0.0, the Bloch vector by
    `_entry_stokes`.
    """
    (r00, r01), (r10, r11) = rho.tolist()
    bloch = _entry_stokes(r00.real, r01.real, r10.real, r11.real, r01.imag, r10.imag)
    return StokesVector(r00.real + r11.real, *bloch)


def _pure_rows(angles) -> list[list[float]]:
    """The Bloch vectors of the pure states at the given (theta, phi) pairs, as rows [s1, s2, s3] of floats.

    One array pass: `_entry_stokes` reads the parts of `_pure_densities`'
    entries as `_pauli_stokes` does, a column of n floats per part, so the
    row of `(q.theta, q.phi)` equals the Bloch vector of
    `_pauli_stokes(pure_density(q))` bit for bit; the rows are zipped from
    its three columns as lists. No density check: the angles are in range
    (`PureQubit` has checked them, or the caller built them so), so each
    |psi><psi| is a valid pure state.
    """
    rho = _pure_densities(angles)
    re, im = rho.real, rho.imag
    s1, s2, s3 = _entry_stokes(re[:, 0, 0], re[:, 0, 1], re[:, 1, 0], re[:, 1, 1], im[:, 0, 1], im[:, 1, 0])
    return list(map(list, zip(s1.tolist(), s2.tolist(), s3.tolist())))


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

    The four entries are written one by one into a fresh complex128 array
    (no dtype is inferred and no view is taken, so no writable base stays
    behind), equal bit for bit to the Pauli sum
    0.5 * (s0 SIGMA0 + s1 SIGMA1 + s2 SIGMA2 + s3 SIGMA3): adding 0.0 turns
    a -0.0 into the +0.0 that sum gives where a sigma's zero entry is added.
    Every caller's s0 lies within DEFAULT_TOL of 1, so a diagonal entry is
    never -0.0, and numpy stores a float with imaginary part +0.0.
    """
    rho = np.empty((2, 2), np.complex128)
    rho[0, 0] = 0.5 * (s0 + s3)
    rho[0, 1] = complex(0.5 * (s1 + 0.0), 0.5 * (0.0 - s2))
    rho[1, 0] = complex(0.5 * (s1 + 0.0), 0.5 * (s2 + 0.0))
    rho[1, 1] = 0.5 * (s0 - s3)
    return _freeze(rho)


def _bloch_fidelity(s, t) -> float:
    """(1 + s.t)/2 of two Bloch vectors, clipped to [0, 1] as `_readout` clips: the fidelity when one state is pure."""
    s1, s2, s3 = s
    t1, t2, t3 = t
    f = 0.5 * (1.0 + (s1 * t1 + s2 * t2 + s3 * t3))
    return 0.0 if f < 0.0 else 1.0 if f > 1.0 else f


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
