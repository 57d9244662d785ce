"""Tests for the package's public name list and signatures."""

import inspect

import qtomo


def test_all_names_resolve_without_repeats():
    assert len(set(qtomo.__all__)) == len(qtomo.__all__)
    for name in qtomo.__all__:
        assert hasattr(qtomo, name), name


def test_only_the_linalg_predicates_take_a_tolerance():
    # DEFAULT_TOL is the package's one tolerance; reconstruct always projects.
    takes_tol = set()
    for name in qtomo.__all__:
        obj = getattr(qtomo, name)
        if inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters:
            takes_tol.add(name)
    assert takes_tol == {"is_density", "is_hermitian", "is_unitary"}
    assert list(inspect.signature(qtomo.reconstruct).parameters) == ["s"]
