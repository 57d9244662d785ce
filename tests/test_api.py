"""Tests for the package's public name list and signatures."""

import ast
import inspect
from pathlib import Path

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


def test_src_has_no_assert_statements():
    # Checks in the package must raise; `python -O` strips assert statements.
    for path in sorted(Path(qtomo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_one_generator_call_site():
    # Every draw in the package comes from one generator site, so a batch path
    # cannot grow a second sampler beside the one behind sample_payoff.
    sites = []
    for path in sorted(Path(qtomo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)  # a chained call such as rng(...).binomial holds "("
                if "(" not in func and ("random." in func or func.endswith("default_rng")):
                    sites.append((path.name, node.lineno, func))
    assert [func for _, _, func in sites] == ["np.random.default_rng"], sites
