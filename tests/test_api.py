"""Tests for the package's public name list."""

import qtomo


def test_all_names_resolve_without_repeats():
    assert len(set(qtomo.__all__)) == len(qtomo.__all__)
    for name in qtomo.__all__:
        assert hasattr(qtomo, name), name
