"""Validated complex matrices of the fixed 2x2 and 4x4 sizes used here.

Constructors, the tensor product and the density predicate behind every
input check, as pure functions over read-only numpy arrays of complex128;
nothing mutates its inputs. DEFAULT_TOL is the package's one tolerance: only
`is_density` takes a `tol`, and every density check elsewhere goes through
`_require_density` at DEFAULT_TOL. Products, adjoints and traces
are plain numpy (`@`, `.conj().T`, `np.trace`). Only dimensions 2 and 4
exist in this problem, so the constructors reject anything else.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9

_SUPPORTED_DIMS = (2, 4)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def cmatrix(entries) -> np.ndarray:
    """Build a validated, read-only complex matrix of dimension 2 or 4."""
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in _SUPPORTED_DIMS:
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return _freeze(a)


def dim_of(a: np.ndarray) -> int:
    """Matrix dimension (2 or 4); rejects any other shape."""
    shape = getattr(a, "shape", None)
    if getattr(a, "ndim", 0) != 2 or shape[0] != shape[1] or shape[0] not in _SUPPORTED_DIMS:
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {shape}")
    return shape[0]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two 2x2 matrices, basis order |00>, |01>, |10>, |11>."""
    if dim_of(a) != 2 or dim_of(b) != 2:
        raise ValueError("kron takes two 2x2 operands")
    return _freeze(np.kron(a, b))


def max_abs(a: np.ndarray) -> float:
    """Max-entry norm; the norm behind every tolerance check in this package."""
    return float(np.max(np.abs(a)))


def is_density(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff a is Hermitian, has unit trace, and is PSD, all within tol (max-entry norm)."""
    dim_of(a)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_abs(a - a.conj().T) > tol:
        return False
    if abs(complex(np.trace(a)) - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh(a)[0] >= -tol)


def _require_density(rho: np.ndarray, dim: int) -> None:
    """Raise ValueError unless rho is a valid dim x dim density matrix within DEFAULT_TOL."""
    if dim_of(rho) != dim or not is_density(rho):
        raise ValueError(f"expected a valid {dim}x{dim} density matrix")
