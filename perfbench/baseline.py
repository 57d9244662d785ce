"""Run the benchmark over seeds 1-10 per workload and summarize it, from the checkout root:

    python3 perfbench/baseline.py [--out FILE]

Every workload in BENCHMARK.json runs for its run_seconds. For each, this
prints each end-to-end metric's median, quartiles and quartile spread (as a
share of the median, beside a third of the metric's bound), then the
per-layer metrics of one traced run with seed 1. With --out, it also writes
the numbers and the machine facts to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops\n{proc.stderr}")
    return result


def machine() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"machine": machine(), "run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    print(json.dumps(report["machine"]))
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        entry = {"attempted": [r["attempted"] for r in runs], "end_to_end": {}}
        print(f"\n{name}: {len(runs)} runs of {seconds} s, ops per run {entry['attempted']}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            entry["end_to_end"][metric] = {
                "unit": unit, "median": q2, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            flag = "" if spread < bound / 3 else "  <-- spread above a third of the bound"
            print(f"  {metric:16s} {q2:12.5g} {unit:5s} q1 {q1:.5g} q3 {q3:.5g}"
                  f"  spread {spread:.3f} (bound/3 {bound / 3:.3f}){flag}")
        traced = run(name, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  traced run, seed {SEEDS[0]}:")
        for metric, m in traced["metrics"].items():
            if m["value"]:
                print(f"    {metric:52s} {m['value']:12.5g} {m['unit']}")
        report["workloads"][name] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
