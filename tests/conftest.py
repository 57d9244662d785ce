"""Shared fixtures."""

import sys

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
