"""Record or check the output corpus: the sha256 of each case's output bytes.

A case is either a `qtomo` command run in process, its bytes being what it
wrote to stdout or to its --out file, or a library call whose results are
written as text with every float as `float.hex`. A command that fails is
recorded as "exit <code>" and its stderr. `corpus.json`, beside this file,
maps each case name to the sha256 of its bytes, so the hash of a
successful command's case equals `qtomo <argv> | sha256sum`.

    python tests/golden/record_corpus.py           # rewrite corpus.json
    python tests/golden/record_corpus.py --check   # name every case that moved, exit 1 if any

A deliberate output change re-records the corpus in the same commit, so
that commit's diff of corpus.json names each case that moved. The tier-1
test `tests/test_corpus.py` recomputes every hash.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("corpus.json")

# Angle pairs as given on the command line: cardinal and generic states,
# signed zeros, subnormals and a wrapped phi; "--degrees" reads the pair in degrees.
ANGLES = {
    "generic": ["1.234567", "4.2"],
    "golden": ["0.7", "2.1"],
    "pole": ["0", "0"],
    "south": ["3.141592653589793", "0"],
    "equator-y": ["1.5707963267948966", "1.5707963267948966"],
    "neg-zero": ["-0.0", "-0.0"],
    "subnormal": ["5e-324", "5e-324"],
    "tiny-theta": ["1e-300", "-0.0"],
    "wrapped-phi": ["2.5", "-7.5"],
    "degrees": ["45", "-30", "--degrees"],
    "degrees-south": ["180", "359.9", "--degrees"],
}
SAMPLE_ANGLES = ("generic", "golden", "pole", "neg-zero", "subnormal", "degrees")
STOKES = {
    "inside": ["0.6", "0.8", "0.3"],
    "outside": ["1.2", "0.3", "-0.4"],
    "origin": ["0", "0", "0"],
    "signed": ["-0.0", "5e-324", "1.0"],
    "far": ["3", "-4", "12"],
}
# Sweep grids from 2x2 to 20x20 (theta steps, phi steps).
SWEEPS = ((2, 2), (2, 3), (3, 2), (3, 7), (4, 9), (5, 5), (7, 3), (10, 10), (2, 20), (20, 2), (13, 17), (20, 20))
FAILURES = {
    "sample-zero-shots": ["sample", "--theta", "1", "--phi", "2", "--shots", "0", "--seed", "1"],
    "sample-too-many-trials": ["sample", "--theta", "1", "--phi", "2", "--trials", "10001", "--seed", "1"],
    "sweep-one-step": ["sweep", "--theta-steps", "1", "--phi-steps", "5", "--seed", "1"],
    "sweep-too-many-cells": ["sweep", "--theta-steps", "101", "--phi-steps", "100", "--seed", "1"],
    "exact-theta-out-of-range": ["exact", "--theta", "4", "--phi", "0"],
    "reconstruct-overflow": ["reconstruct", "--s1", "1e200", "--s2", "0", "--s3", "0"],
    "seed-out-of-range": ["sample", "--theta", "1", "--phi", "2", "--seed", str(2**64)],
    "out-unwritable": ["exact", "--theta", "1", "--phi", "2", "--out", "{tmp}/missing/report.json"],
}


def _angle_args(name: str) -> list[str]:
    theta, phi, *flags = ANGLES[name]
    return ["--theta", theta, "--phi", phi, *flags]


def cli_cases() -> dict[str, list[str]]:
    """Case name -> argv (no --format, no --out) of every successful command case."""
    cases = {}
    for name in ANGLES:
        cases[f"exact/{name}"] = ["exact", *_angle_args(name), "--seed", "7"]
        cases[f"bloch/{name}"] = ["bloch", *_angle_args(name), "--seed", "7"]
    cases["exact/generic/no-seed"] = ["exact", *_angle_args("generic")]
    cases["bloch/generic/no-seed"] = ["bloch", *_angle_args("generic")]
    for name, (s1, s2, s3) in STOKES.items():
        cases[f"reconstruct/{name}"] = ["reconstruct", "--s1", s1, "--s2", s2, "--s3", s3, "--seed", "7"]
    for name in SAMPLE_ANGLES:
        for shots in ("1", "16", "8192"):
            cases[f"sample/{name}/{shots}"] = ["sample", *_angle_args(name), "--shots", shots, "--seed", "42"]
        cases[f"sample/{name}/16/trials-7"] = ["sample", *_angle_args(name), "--shots", "16", "--trials", "7",
                                               "--seed", "42"]
    cases["sample/generic/16/trials-1"] = ["sample", *_angle_args("generic"), "--shots", "16", "--trials", "1",
                                           "--seed", "42"]
    cases["sample/generic/64/trials-50"] = ["sample", *_angle_args("generic"), "--shots", "64", "--trials", "50",
                                            "--seed", "0"]
    cases["sample/golden/default-shots/max-seed"] = ["sample", *_angle_args("golden"), "--seed", str(2**64 - 1)]
    for n, m in SWEEPS:
        cases[f"sweep/{n}x{m}/16"] = ["sweep", "--theta-steps", str(n), "--phi-steps", str(m), "--shots", "16",
                                      "--seed", "42"]
    for n, m in ((2, 2), (5, 5), (20, 20)):
        cases[f"sweep/{n}x{m}/default-shots"] = ["sweep", "--theta-steps", str(n), "--phi-steps", str(m),
                                                 "--seed", "42"]
    return cases


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout bytes, stderr bytes) of one in-process `qtomo` run."""
    from qtomo.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed argument
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def _case_bytes(code: int, out: bytes, err: bytes) -> bytes:
    return out if code == 0 else b"exit %d\n" % code + err


def _cli_outputs(tmp: str) -> dict[str, bytes]:
    outputs = {}
    out_path = str(Path(tmp) / "report")
    for name, argv in cli_cases().items():
        for fmt in ("json", "csv"):
            outputs[f"cli/{name}/{fmt}/stdout"] = _case_bytes(*_run([*argv, "--format", fmt]))
            code, out, err = _run([*argv, "--format", fmt, "--out", out_path])
            if code == 0 and out == b"":
                out = Path(out_path).read_bytes()
            outputs[f"cli/{name}/{fmt}/out"] = _case_bytes(code, out, err)
    for name, argv in FAILURES.items():
        code, out, err = _run([a.replace("{tmp}", tmp) for a in argv])
        outputs[f"cli/fail/{name}"] = _case_bytes(code, out, err.replace(tmp.encode(), b"<tmp>"))
    return outputs


def _text(x) -> str:
    """x as text with every float written as float.hex, so equal text means equal bits and types."""
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, complex):
        return f"({x.real.hex()}, {x.imag.hex()})"
    if isinstance(x, (bool, int, str)) or x is None:
        return repr(x)
    if dataclasses.is_dataclass(x):
        fields = ", ".join(f"{f.name}={_text(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({fields})"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(_text, x)) + "]"
    if type(x).__module__ == "numpy" and hasattr(x, "tolist"):  # an array: dtype and shape, then entries
        return f"{x.dtype}{list(x.shape)}{_text(x.tolist())}"
    raise TypeError(f"cannot write {type(x).__name__}")


def _states() -> dict[str, list[tuple[float, float]]]:
    """(theta, phi) of the library cases' pure states, by kind."""
    rng = random.Random(13)
    haar = [(math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random()) for _ in range(24)]
    half = math.pi / 2.0
    cardinal = [(half, 0.0), (half, math.pi), (half, half), (half, 1.5 * math.pi), (0.0, 0.0), (math.pi, 0.0)]
    corner = [(1e-300, -0.0), (5e-324, 5e-324), (0.0, -0.0), (math.pi, math.pi), (half, -0.0), (1.1, 2.3)]
    return {"cardinal": cardinal, "corner": corner, "haar": haar}


def _mixed_vectors() -> list[tuple[float, float, float]]:
    rng = random.Random(17)
    vectors = [(0.0, 0.0, 0.0), (-0.0, 0.5, -0.0), (0.3, -0.4, 0.5), (1e-310, -1e-310, 0.9)]
    while len(vectors) < 16:
        v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        r = rng.random() / max(math.sqrt(sum(c * c for c in v)), 1e-12)
        vectors.append(tuple(c * r for c in v))
    return vectors


def _library_outputs() -> dict[str, bytes]:
    from qtomo import (
        PureQubit,
        StokesVector,
        density_from_stokes,
        derive_seed,
        estimate_stokes,
        exact_stokes,
        pure_density,
        run_tomography,
        step_payoffs,
    )

    outputs = {}
    mixed = [density_from_stokes(StokesVector(1.0, *v)) for v in _mixed_vectors()]
    for kind, angles in _states().items():
        qubits = [PureQubit(theta, phi) for theta, phi in angles]
        for shots in (1, 16, 4096, 10**6):
            lines = [_text(run_tomography(q, shots, derive_seed(shots, k))) for k, q in enumerate(qubits)]
            lines += [_text(run_tomography(q, shots, seed)) for q in qubits[:2] for seed in (0, 2**64 - 1)]
            outputs[f"lib/run_tomography/{kind}/{shots}"] = "\n".join(lines).encode()
        rhos = [pure_density(q) for q in qubits]
        outputs[f"lib/exact_stokes/{kind}"] = "\n".join(_text(exact_stokes(r)) for r in rhos).encode()
        outputs[f"lib/step_payoffs/{kind}"] = "\n".join(_text(step_payoffs(r)) for r in rhos).encode()
        for shots in (1, 16, 4096):
            lines = [_text(estimate_stokes(r, shots, derive_seed(7 * shots, k))) for k, r in enumerate(rhos)]
            outputs[f"lib/estimate_stokes/{kind}/{shots}"] = "\n".join(lines).encode()
    outputs["lib/exact_stokes/mixed"] = "\n".join(_text(exact_stokes(r)) for r in mixed).encode()
    outputs["lib/step_payoffs/mixed"] = "\n".join(_text(step_payoffs(r)) for r in mixed).encode()
    for shots in (1, 16, 4096):
        lines = [_text(estimate_stokes(r, shots, derive_seed(11 * shots, k))) for k, r in enumerate(mixed)]
        outputs[f"lib/estimate_stokes/mixed/{shots}"] = "\n".join(lines).encode()
    return outputs


def outputs() -> dict[str, bytes]:
    """Every case's output bytes, by case name."""
    with tempfile.TemporaryDirectory() as tmp:
        cases = _cli_outputs(tmp)
    cases.update(_library_outputs())
    return cases


def hashes() -> dict[str, str]:
    """Every case's sha256, by case name, sorted."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs().items())}


def main(argv: list[str]) -> int:
    current = hashes()
    if argv == ["--check"]:
        recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
        moved = sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))
        for name in moved:
            print(f"moved: {name}")
        print(f"{len(current)} cases, {len(moved)} moved")
        return 1 if moved else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    CORPUS.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
    print(f"{len(current)} cases written to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    raise SystemExit(main(sys.argv[1:]))
