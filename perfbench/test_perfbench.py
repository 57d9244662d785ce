"""Self-tests of the benchmark, run from the checkout root:

    python3 -m pytest perfbench -q

They sit outside the repository's own test suite so that benchmark timing
never runs in it. The short runs here check behaviour, never speed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer

run.import_qtomo()
import workloads  # noqa: E402  (imports qtomo, which import_qtomo puts on the path)

ROOT = run.ROOT


def bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def bindings() -> dict:
    return {
        (mod.__name__, attr): value
        for mod in tracer.package_modules()
        for attr, value in vars(mod).items()
    }


def test_tracer_wraps_every_binding_and_restores_them():
    before = bindings()
    wl = workloads.make("tomo_16shots", "unused")
    tr = tracer.Tracer()
    with tr:
        wrapped = tracer.wrapped_bindings()
        run.run_phase(wl, wl.inputs(5), n_ops=3, tr=tr)
    # Imported names are rebound too, not only each function's home module.
    assert "qtomo.states.is_density" in wrapped
    assert "qtomo.tomography.is_density" in wrapped
    assert "qtomo.run_tomography" in wrapped
    assert tracer.wrapped_bindings() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.summary()["functions"]["linalg.is_density"]["calls"] == 3 * 8


@pytest.mark.parametrize("name", workloads.NAMES)
def test_short_run_has_no_failed_ops_and_declared_metrics(name):
    result = bench("--workload", name, "--seed", "11", "--seconds", "0.1", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["tomo_16shots", "tomo_100kshots"])
def test_traced_calls_per_op_repeat_exactly(name):
    runs = [bench("--workload", name, "--seed", "7", "--seconds", s, "--trace", "1") for s in ("0", "1")]
    for result in runs:
        assert result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith("calls_per_op")} for r in runs]
    assert calls[0] == calls[1]
    assert calls[0]["linalg.hermitian_eig.calls_per_op"] > 0


def test_tomography_check_catches_a_wrong_result():
    wl = workloads.make("tomo_16shots", "unused")
    inp = wl.inputs(3)[0]
    res = wl.op(inp)
    assert wl.check(inp, res) == []
    assert wl.check(inp, dataclasses.replace(res, fidelity=res.fidelity + 1e-6))
    assert wl.check(inp, dataclasses.replace(res, trace_dist=res.trace_dist + 1e-6))
    step = dataclasses.replace(res.per_step[0], seed=res.per_step[0].seed + 1)
    assert wl.check(inp, dataclasses.replace(res, per_step=(step,) + res.per_step[1:]))


def test_cli_check_catches_a_wrong_report(tmp_path):
    wl = workloads.make("cli_sweep", str(tmp_path))
    master = wl.inputs(3)[0]
    assert wl.op(master) == 0
    with open(wl.out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert wl.check(master, 0) == []
    assert wl.check(master, 0), "a report left by an earlier op must not pass"
    doc["steps"][7]["s2"] += 1e-9
    with open(wl.out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert wl.check(master, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tomo_16shots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
