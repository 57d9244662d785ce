"""Shared fixtures."""

import sys

import numpy as np
import pytest

import qtomo.linalg


@pytest.fixture
def is_density_calls(monkeypatch):
    """Count calls to `is_density` through every qtomo module that binds it.

    Returns a list that grows by one entry per call.
    """
    calls = []
    original = qtomo.linalg.is_density

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name == "qtomo" or name.startswith("qtomo.")) and getattr(mod, "is_density", None) is original:
            monkeypatch.setattr(mod, "is_density", counting)
    return calls


@pytest.fixture
def non_finite_states():
    """Matrices that are invalid states only through a NaN or inf entry, keyed by dimension.

    Built with `np.array`, since `cmatrix` rejects them first. A NaN fails every
    comparison and `eigvalsh` reads only the lower triangle, so without its own
    finiteness check `is_density` would pass the NaN ones; inf - inf in the
    Hermitian residual would warn. Each 4x4 is |0><0| kron its 2x2, set block-wise
    so that 0 * NaN does not spread the NaN.
    """
    nan, inf = float("nan"), float("inf")
    two = [
        np.array([[nan, 0], [0, 1]], dtype=complex),  # NaN on the diagonal
        np.array([[0.5, nan], [0.5, 0.5]], dtype=complex),  # only NaN above the diagonal
        np.array([[inf, 0], [0, 1]], dtype=complex),
    ]
    four = [np.zeros((4, 4), dtype=complex) for _ in two]
    for big, small in zip(four, two):
        big[:2, :2] = small
    return {2: two, 4: four}
