"""Tests for the package's public name list and signatures."""

import ast
import importlib
import inspect
import math
import pkgutil
import re
import shlex
from pathlib import Path

import qtomo
import qtomo.cli
from qtomo import PureQubit, protocol_steps, pure_density, step_payoffs, stokes_of

TESTS = Path(__file__).parent

PIPELINE = {
    # states
    "PureQubit", "StokesVector", "pure_density", "stokes_of", "density_from_stokes",
    # protocol
    "Strategy", "PayoffMatrix", "ProtocolStep", "ALICE_PAYOFF", "BOB_PAYOFF", "protocol_steps",
    "StepPayoffs", "step_payoffs", "exact_stokes",
    # sampling
    "SampleEstimate", "estimate_stokes", "derive_seed",
    # reconstruction and scores
    "TomographyResult", "reconstruct", "run_tomography", "fidelity", "trace_distance",
}


def test_all_names_resolve_without_repeats():
    assert len(set(qtomo.__all__)) == len(qtomo.__all__)
    for name in qtomo.__all__:
        assert hasattr(qtomo, name), name


def test_public_surface_is_the_pipeline():
    # The package exports the pipeline; the oracle and the matrix helpers stay
    # importable from their own modules, where the acceptance suite imports them.
    assert len(qtomo.__all__) == 22
    assert set(qtomo.__all__) == PIPELINE
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    qtomo_imports = [node for node in imports if node.module.startswith("qtomo.")]
    assert qtomo_imports
    for node in qtomo_imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_only_the_linalg_predicates_take_a_tolerance():
    # DEFAULT_TOL is the package's one tolerance; is_density is the one
    # predicate, and reconstruct always projects.
    takes_tol = set()
    for info in pkgutil.iter_modules(qtomo.__path__):
        mod = importlib.import_module(f"qtomo.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if "tol" in inspect.signature(obj).parameters:
                takes_tol.add(name)
    assert takes_tol == {"is_density"}
    assert list(inspect.signature(qtomo.reconstruct).parameters) == ["s"]


def test_readme_library_example_runs(capsys):
    # The README's example names only exports that exist, and it runs.
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def _readme_section(heading: str) -> str:
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index(heading + "\n")
    end = readme.find("\n## ", start)
    return readme[start:] if end == -1 else readme[start:end]


# The angles the README's step table writes, as the strategies store them.
README_ANGLES = {"0": 0.0, "π/2": math.pi / 2}


def test_readme_step_table_is_the_protocol():
    # One row per protocol step, in order: its label, both strategies, Alice's
    # payoff matrix, and the Stokes parameter her exact payoff equals.
    rows = [line for line in _readme_section("## The protocol").splitlines() if line.startswith("| S")]
    rho = pure_density(PureQubit(1.1, 0.7))  # s1, s2 and s3 all differ
    s = stokes_of(rho)
    assert len(rows) == len(protocol_steps())
    for row, step, paid in zip(rows, protocol_steps(), step_payoffs(rho)):
        label, alice, bob, matrix, reads = [cell.strip() for cell in row.strip().strip("|").split("|")]
        assert label == step.label
        for cell, strategy in ((alice, step.strategy_a), (bob, step.strategy_b)):
            assert tuple(README_ANGLES[a.strip()] for a in cell.strip("()").split(",")) == (strategy.beta, strategy.alpha)
        e00, e01, e10, e11 = step.payoff_a.entries()
        assert ast.literal_eval(matrix) == [[e00, e01], [e10, e11]]
        assert abs(paid.alice - getattr(s, reads)) <= 1e-12, row


def test_readme_cli_commands_run(capsys):
    # Each command in the README's CLI section runs and exits 0; together they cover every subcommand.
    blocks = re.findall(r"```sh\n(.*?)```", _readme_section("## CLI"), re.DOTALL)
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines() if line.startswith("qtomo ")]
    assert {argv[0] for argv in commands} == set(qtomo.cli._HANDLERS)
    for argv in commands:
        assert qtomo.cli.main(argv) == 0, argv
        assert capsys.readouterr().out, argv


def test_src_has_no_assert_statements():
    # Checks in the package must raise; `python -O` strips assert statements.
    for path in sorted(Path(qtomo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_one_generator_call_site():
    # Every draw in the package comes from one generator site, the one line in
    # the core's per-state `_draw` that builds Generator(PCG64(...)), so no
    # path can grow a second sampler beside it.
    sites = []
    for path in sorted(Path(qtomo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)  # a chained call such as rng(...).binomial holds "("
                if "(" not in func and ("random." in func or func.endswith("default_rng")):
                    sites.append((path.name, node.lineno, func))
    assert [func for _, _, func in sites] == ["np.random.Generator", "np.random.PCG64"], sites
    assert len({(name, line) for name, line, _ in sites}) == 1, sites


def _is_number(node, value):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == value


def _forms_a_payoff(node):
    """Whether node is 2 x - 1, the payoff of a +-1 outcome that pays +1 with probability x."""
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and _is_number(node.right, 1)
        and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
        and (_is_number(node.left.left, 2) or _is_number(node.left.right, 2))
    )


def test_one_readout():
    # Alice's payoff 2 P(+1) - 1 is formed in one function, the core's scalar
    # `_readout`, so no path can grow a second readout beside it.
    sites = []
    for path in sorted(Path(qtomo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in filter(_forms_a_payoff, ast.walk(tree)):
            while node in parents and not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                node = parents[node]
            sites.append(f"{path.stem}.{getattr(node, 'name', '<' + type(node).__name__ + '>')}")
    assert sites == ["tomography._readout"]
