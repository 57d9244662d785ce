"""Benchmark for qtomo, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one process, one caller, closed loop; the next op starts when the
previous one returns. Every op's output is checked outside its timed
interval, and failures count against ops attempted.

--trace 0 prints the end-to-end metrics: ops_per_ref, op_cost_p50 and
op_cost_p90 (from each op's CPU time over that of a fixed reference
computation run beside it, see reference_kernel), peak_rss_mb and setup_s
(the fastest of SETUP_RUNS fresh interpreters importing qtomo.cli, spread
over the run). --trace 1 alternates untraced and traced passes over the
workload's input pool and prints the per-layer metrics; the spans are written
to .bench_build/perfbench/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

qtomo is imported from the checkout's src/ and nowhere else, so the benchmark
fails without printing a result when src/qtomo is absent.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_OPS = 200  # at least twenty op costs beyond p90 in every run
REF_BLOCK_NS = 20_000_000  # op CPU time between two runs of the reference kernel
REF_WINDOW = 3  # reference runs whose median an op's CPU time is divided by
REF_SHOTS = 50_000
REF_SMALL_CALLS = 50
WARMUP_OPS = 5
SETUP_RUNS = 30
PROBE_OPS = 4
EXIT_NO_RESULT = 2


def time_import() -> float:
    """Wall time for a fresh interpreter to import qtomo.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qtomo.cli"], env=dict(os.environ, PYTHONPATH=SRC),
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


_REF_RHO = np.array([[0.625, 0.25 - 0.125j], [0.25 + 0.125j, 0.375]])
_REF_CDF = np.array([0.125, 0.5, 0.75, 1.0])
_REF_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def reference_kernel() -> float:
    """A fixed computation that uses no qtomo code: the yardstick for the machine's speed.

    It does the two kinds of work qtomo ops are made of, in equal parts of
    time: many small numpy calls from Python (2x2 eigensolves, 4x4 Kronecker
    products) and one inverse-CDF pass over a large array of seeded draws.
    Every op cost is in units of this kernel, so changing it rescales them
    all: change it only together with a new baseline.
    """
    acc = 0.0
    for _ in range(REF_SMALL_CALLS):
        acc += float(np.linalg.eigvalsh(_REF_RHO)[0]) + float(np.kron(_REF_RHO, _REF_RHO).trace().real)
    draws = np.random.default_rng(12345).random(REF_SHOTS)
    z = _REF_SIGNS[np.minimum(np.searchsorted(_REF_CDF, draws, side="right"), 3)]
    return acc + float(z.mean()) + float(z.std())


def reference_cpu_ns() -> int:
    """Process CPU time of one run of the reference kernel."""
    c0 = time.process_time_ns()
    reference_kernel()
    return time.process_time_ns() - c0


class CostMeter:
    """Op costs: each op's CPU time over the reference kernel's, measured beside it.

    The kernel runs after every REF_BLOCK_NS of op CPU time (and on flush);
    the ops of a block are divided by the median of the kernel's last
    REF_WINDOW CPU times. The median damps the noise of single kernel runs
    and still follows the CPU's speed within a few hundred milliseconds.
    """

    def __init__(self):
        self.costs: list[float] = []
        self._block: list[int] = []
        self._refs: collections.deque = collections.deque(maxlen=REF_WINDOW)

    def add(self, op_cpu_ns: int) -> None:
        self._block.append(op_cpu_ns)
        if sum(self._block) >= REF_BLOCK_NS:
            self.flush()

    def flush(self) -> None:
        if self._block:
            self._refs.append(reference_cpu_ns())
            ref = statistics.median(self._refs)
            self.costs += [c / ref for c in self._block]
            self._block = []


def run_untraced(wl, inputs, seconds: float) -> tuple[float, list[float], int]:
    """Run the workload for `seconds` in SETUP_RUNS slices, each opened by one timed fresh import.

    The imports are spread over the whole run, so they see every speed the
    CPU passes through, as the ops do; setup_s is the fastest of them, the
    import undisturbed by the machine's slow spells. Returns setup_s, the
    per-op costs relative to the reference kernel and the failed count.
    """
    time_import()  # the first import may write the bytecode cache; a user pays that once
    reference_cpu_ns()  # the first run of the kernel is not paired with any op
    start = time.perf_counter()
    setup: list[float] = []
    meter = CostMeter()
    failed = 0
    for i in range(SETUP_RUNS):
        setup.append(time_import())
        left = start + seconds * (i + 1) / SETUP_RUNS - time.perf_counter()
        _, f = run_phase(wl, inputs, max(left, 0.0), min_ops=-(-MIN_OPS // SETUP_RUNS), meter=meter)
        failed += f
    meter.flush()
    return min(setup), meter.costs, failed


def run_phase(wl, inputs, seconds: float = 0.0, n_ops=None, tr=None,
              min_ops: int = MIN_OPS, meter=None) -> tuple[list[int], int]:
    """Run ops in a closed loop; return per-op wall latencies (ns) and the failed count.

    Runs `n_ops` ops if given, else at least `min_ops` and until `seconds`
    have passed, cycling over the input pool from its start. Each op's
    process CPU time goes to `meter`, if given, after its output is checked.
    """
    clock, cpu = time.perf_counter_ns, time.process_time_ns
    deadline = clock() + int(seconds * 1e9)
    latencies: list[int] = []
    failed = 0
    k = 0
    while (k < n_ops) if n_ops is not None else (k < min_ops or clock() < deadline):
        inp = inputs[k % len(inputs)]
        first_span = len(tr.fid) if tr is not None else 0
        t0, c0 = clock(), cpu()
        try:
            out = wl.op(inp)
        except Exception as exc:  # a failed op is counted, and the run goes on
            out = exc
        c1, t1 = cpu(), clock()
        if tr is not None:
            tr.add_op(first_span, t0, t1)
        latencies.append(t1 - t0)
        if isinstance(out, Exception):
            errors = [f"raised {out!r}"]
        else:
            try:
                errors = wl.check(inp, out)
            except Exception as exc:  # malformed output
                errors = [f"check raised {exc!r}"]
        if errors:
            failed += 1
            if failed <= 5:
                print(f"{wl.name} op {k}: {'; '.join(errors[:3])}", file=sys.stderr)
        k += 1
        if meter is not None:
            meter.add(c1 - c0)
    return latencies, failed


def run_traced(wl, inputs, seconds: float, tr) -> tuple[list[int], list[int], int]:
    """Alternate untraced and traced passes over the whole input pool.

    Whole passes make the traced calls per op repeat exactly between runs with
    the same seed; alternating them makes both halves see the same machine
    speed, so their ratio is the tracing overhead and not drift.
    Returns untraced latencies, traced latencies and the failed count.
    """
    deadline = time.perf_counter() + seconds
    untraced: list[int] = []
    traced: list[int] = []
    failed = 0
    while min(len(untraced), len(traced)) < MIN_OPS or time.perf_counter() < deadline:
        lat, f = run_phase(wl, inputs, n_ops=len(inputs))
        untraced += lat
        failed += f
        with tr:
            lat, f = run_phase(wl, inputs, n_ops=len(inputs), tr=tr)
        traced += lat
        failed += f
    return untraced, traced, failed


def end_to_end(costs: list[float], setup_s: float) -> dict:
    return {
        "ops_per_ref": (len(costs) / sum(costs), "1/ref"),
        "op_cost_p50": (statistics.median(costs), "ref"),
        "op_cost_p90": (statistics.quantiles(costs, n=10)[-1], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(summary: dict, untraced: list[int], peak_alloc_bytes: int) -> dict:
    ops, op_ns = summary["ops"], summary["op_ns"]
    fns = summary["functions"]
    out = {}
    for name, f in fns.items():
        out[f"{name}.calls_per_op"] = (f["calls"] / ops, "count")
        out[f"{name}.self_us_per_op"] = (f["self_ns"] / ops / 1e3, "us")
    for module in tracer.MODULES:
        self_ns = sum(f["self_ns"] for name, f in fns.items() if name.split(".")[0] == module)
        out[f"{module}.self_share"] = (self_ns / op_ns, "ratio")
    sample, rec = fns["tomography.sample_payoff"], fns["tomography.reconstruct"]
    out["tomography.sample_payoff.shots_per_op"] = (sample["observed"] / ops, "count")
    out["tomography.sample_payoff.peak_alloc_kb"] = (peak_alloc_bytes / 1024.0, "KiB")
    out["tomography.reconstruct.projected_ratio"] = (
        rec["observed"] / rec["calls"] if rec["calls"] else 0.0,
        "ratio",
    )
    out["trace.untraced_share"] = (1.0 - summary["covered_ns"] / op_ns, "ratio")
    out["trace.overhead_ratio"] = ((op_ns / ops) / (sum(untraced) / len(untraced)), "ratio")
    # Whole-op numbers from the untraced passes: unbounded, see DESIGN.md.
    out["op.ops_per_s"] = (len(untraced) / (sum(untraced) / 1e9), "1/s")
    out["op.latency_p50_ms"] = (statistics.median(untraced) / 1e6, "ms")
    return out


def import_qtomo():
    """Import qtomo from the checkout's src/; fail if it would come from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qtomo", "__init__.py")):
        raise ImportError(f"no qtomo package under {SRC}")
    sys.path.insert(0, SRC)
    import qtomo
    import qtomo.cli  # noqa: F401  (the cli layer is traced on every workload)

    if os.path.dirname(os.path.dirname(os.path.abspath(qtomo.__file__))) != SRC:
        raise ImportError(f"qtomo imported from {qtomo.__file__}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_qtomo()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return EXIT_NO_RESULT
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(args.workload, OUT_DIR)
    inputs = wl.inputs(args.seed)
    for inp in inputs[:WARMUP_OPS]:  # let lazy set-up inside numpy finish before timing
        wl.op(inp)

    if not args.trace:
        setup_s, costs, failed = run_untraced(wl, inputs, args.seconds)
        attempted = len(costs)
        metrics = end_to_end(costs, setup_s)
    else:
        tr = tracer.Tracer()
        untraced, traced, failed = run_traced(wl, inputs, args.seconds, tr)
        with tracer.AllocProbe("tomography", "sample_payoff") as probe:
            probed, failed_p = run_phase(wl, inputs, n_ops=PROBE_OPS)
        left = tracer.wrapped_bindings()
        if left:
            print(f"error: wrappers left bound after tracing: {left}", file=sys.stderr)
            return 1
        tr.write(os.path.join(OUT_DIR, f"spans-{args.workload}.json"))
        attempted = len(untraced) + len(traced) + len(probed)
        failed += failed_p
        metrics = per_layer(tr.summary(), untraced, probe.peak_bytes)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
