"""Outside-in tracer for qtomo: spans around calls into each module's public functions.

Nothing inside qtomo is edited. qtomo modules import each other's functions
by name (``from .linalg import is_density``), so a wrapper installed only in
the function's home module would miss every call made through another
module's binding. ``rebind`` therefore replaces every module-level name in the
``qtomo`` package that holds the original function, and ``Tracer`` puts every
one of those bindings back when it is uninstalled.

Each span records its function, start, end and parent span. Spans stay in
flat in-memory arrays while the run is timed and are written out afterwards.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from array import array

PACKAGE = "qtomo"

# (home module, function): the public calls the traced run times, per layer.
TARGETS = (
    ("linalg", "is_density"),
    ("linalg", "hermitian_eig"),
    ("linalg", "kron"),
    ("linalg", "matmul"),
    ("linalg", "cmatrix"),
    ("states", "pure_density"),
    ("states", "density_from_stokes"),
    ("states", "fidelity"),
    ("states", "trace_distance"),
    ("game", "initial_state"),
    ("game", "evolve"),
    ("game", "strategy_unitary"),
    ("game", "payoff_exact"),
    ("tomography", "run_tomography"),
    ("tomography", "estimate_stokes"),
    ("tomography", "exact_stokes"),
    ("tomography", "sample_payoff"),
    ("tomography", "measurement_distribution"),
    ("tomography", "reconstruct"),
    ("cli", "main"),
)
MODULES = tuple(dict.fromkeys(m for m, _ in TARGETS))

# Values read off a traced call's result and summed per function.
OBSERVERS = {
    "tomography.sample_payoff": lambda result: result.shots,
    "tomography.reconstruct": lambda result: 1 if result[1] else 0,
}

WRAPPER_MARK = "__perfbench_wrapper__"


def package_modules() -> list:
    """Every imported module of the qtomo package."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Point every module-level qtomo name that holds `original` at `replacement`."""
    hits = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits.append((mod, attr))
    return hits


def wrapped_bindings() -> list[str]:
    """Names in qtomo modules that still hold a benchmark wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in package_modules()
        for attr, value in list(vars(mod).items())
        if getattr(value, WRAPPER_MARK, False)
    ]


class _Patch:
    """Rebinds a set of functions; `restore` puts every original binding back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, original, wrapper) -> None:
        setattr(wrapper, WRAPPER_MARK, True)
        for mod, attr in rebind(original, wrapper):
            self._undo.append((mod, attr, original))

    def restore(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


def _home_function(module: str, name: str):
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    return getattr(mod, name, None) if mod is not None else None


class Tracer:
    """Records one span per call into each target, plus the benchmark's op intervals.

    Use as a context manager: entering wraps every target that exists in the
    imported qtomo modules, leaving restores all original bindings. A target
    the code no longer has is skipped and reports zero calls.
    """

    def __init__(self):
        self.names = [f"{m}.{n}" for m, n in TARGETS]
        self.fid = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.totals = [0] * len(self.names)
        self.op_start = array("q")
        self.op_end = array("q")
        self.op_first_span = array("q")
        self._stack = [-1]
        self._patch = _Patch()

    def __enter__(self):
        for i, (module, name) in enumerate(TARGETS):
            fn = _home_function(module, name)
            if fn is not None:
                self._patch.wrap(fn, self._wrapper(i, fn, OBSERVERS.get(self.names[i])))
        return self

    def __exit__(self, *exc):
        self._patch.restore()
        return False

    def _wrapper(self, i, fn, observe):
        fid, parent, start, end, stack = self.fid, self.parent, self.start, self.end, self._stack
        totals = self.totals
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(fid)
            fid.append(i)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                totals[i] += observe(result)
            return result

        return traced

    def add_op(self, first_span: int, t0: int, t1: int) -> None:
        """Record one benchmark op: its interval and the index of its first span."""
        self.op_first_span.append(first_span)
        self.op_start.append(t0)
        self.op_end.append(t1)

    def summary(self) -> dict:
        """Per-function calls and self time, plus trace-wide shares, over the recorded ops."""
        n = len(self.fid)
        child = [0] * n
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        top_ns = 0
        for k in range(n):
            dur = end[k] - start[k]
            p = parent[k]
            if p >= 0:
                child[p] += dur
            else:
                top_ns += dur
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for k in range(n):
            calls[fid[k]] += 1
            self_ns[fid[k]] += end[k] - start[k] - child[k]
        op_ns = sum(e - s for s, e in zip(self.op_start, self.op_end))
        return {
            "ops": len(self.op_start),
            "op_ns": op_ns,
            "covered_ns": top_ns,
            "functions": {
                name: {"calls": calls[i], "self_ns": self_ns[i], "observed": self.totals[i]}
                for i, name in enumerate(self.names)
            },
        }

    def write(self, path) -> None:
        """Write every span and op interval as column arrays in one JSON file."""
        doc = {
            "names": self.names,
            "spans": {
                "name": self.fid.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
            },
            "ops": {
                "start_ns": self.op_start.tolist(),
                "end_ns": self.op_end.tolist(),
                "first_span": self.op_first_span.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class AllocProbe:
    """Peak bytes that tracemalloc sees allocated inside one function's calls.

    Kept apart from the timed traced phase: tracemalloc slows every
    allocation, so it would distort the self times.
    """

    def __init__(self, module: str, name: str):
        self.peak_bytes = 0
        self._target = (module, name)
        self._patch = _Patch()

    def __enter__(self):
        fn = _home_function(*self._target)
        if fn is not None:
            self._patch.wrap(fn, self._wrapper(fn))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        self._patch.restore()
        return False

    def _wrapper(self, fn):
        def probed(*args, **kwargs):
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
            self.peak_bytes = max(self.peak_bytes, peak - base)
            return result

        return probed
