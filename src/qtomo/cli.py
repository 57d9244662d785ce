"""qtomo command line: exact and sampled tomography, sweeps, reconstruction,
and Bloch plane geometry, reported as JSON (default) or CSV.

Every report carries the same top-level JSON keys (command, inputs, steps,
stokes, reconstruction, metrics, seed); sections that do not apply are null.
Floats are serialized with 17 significant digits so that reports round-trip
exactly and repeated seeded runs are byte-identical.

The argument parser is built once per process (`build_parser` is cached),
so a driver that calls `main` many times in one process pays for it once.
A sweep builds its grid as (theta, phi) pairs of Python floats
(`_sweep_angles`), equal bit for bit to the angles `PureQubit` stores for
numpy's `linspace`/`arange` grid, and builds no `PureQubit`: the angles are
in range by construction. It reads their pure states in one array pass
(`_pure_rows`) as rows of floats, samples them in one batch that keeps
counts, building no per-step `SampleEstimate`, and writes each cell from the
batch's columns of plain Python numbers. A JSON trial set builds only trial 0's
`TomographyResult` and reads every trial's scores from the same columns; a
CSV trial set reuses it for trial 0's row and builds no JSON report.
`exact`, `bloch`, `sample` and `sweep` read each state out through the one
exact readout, `_readout`, per Bloch vector in floats. No command
eigen-checks a state it built or `PureQubit` checked.
The one emitter, `_dumps`, writes each dict through a `%` template cached
per shape (keys, exact value types, indent level): the template formats the
numbers of exact type float or int itself, so a sweep cell is one C call,
and every other value fills a slot with its text. Scalars of exact type
float, int, str, bool or None come from a table keyed by that type, each
list is one join, numpy scalars and subclasses take an isinstance chain that
gives them the same text, and CSV cells reuse the same scalar formatter.
`sample` and `sweep` derive their trial and cell seeds from the checked
master with the unchecked `_splitmix`, and build their CSV rows only when
CSV is written. A sample report's step seeds are the PCG64 state words of
its generator (`inputs.sampler` "binomial-count-v3"), so they reproduce it.

Exit codes: 0 success, 2 validation/usage error, 3 I/O error (the --out
file or stdout cannot be written). An --out file is written in binary
mode, as the UTF-8 bytes of the report's text.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii

import numpy as np

from .states import TWO_PI, PureQubit, StokesVector, _pauli_stokes, _pure_rows, pure_density
from .tomography import SAMPLER, _IN_BLOCH_ORDER, _readout, _scored, _splitmix, _tomography, protocol_steps, reconstruct

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

_U64_MAX = (1 << 64) - 1

# Documented upper limits on work requested from the command line, checked
# before any work starts. A step's sampling costs the same at any shot count.
MAX_SHOTS = 10_000_000
MAX_TRIALS = 10_000
MAX_CELLS = 10_000


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# JSON text of a scalar by its exact type; `_scalar` handles every other scalar.
_SCALARS = {
    float: _fmt,
    int: int.__repr__,
    str: encode_basestring_ascii,  # what json.dumps returns for a str
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _scalar(x) -> str:
    """JSON text of a scalar: through `_SCALARS` by exact type, else by isinstance (numpy scalars, subclasses)."""
    emit = _SCALARS.get(type(x))
    if emit is not None:
        return emit(x)
    if isinstance(x, (int, np.integer)):  # bool and None cannot be subclassed: the table has them
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _fmt(x)
    return json.dumps(x)


# Values a dict template formats itself, by exact type: a `%.17g` slot prints
# what `format(x, ".17g")` does and a `%d` slot what `int.__repr__` does.
_SLOTS = {float: "%.17g", int: "%d"}


@functools.lru_cache(maxsize=256)
def _template(keys: tuple, types: tuple, level: int) -> tuple[str, bool, bool]:
    """The text of a dict of this shape with one `%` slot per value, and how to fill it.

    A float or int value fills its own slot; any other value fills a `%s`
    slot with its text. Keys of exact type str are written in, `%` escaped as
    `%%`. A dict with any other key gets a `%s` slot per key, filled per call,
    as equal keys of other types (1, True, 1.0, -0.0) print differently.
    Returns (template, every value fills its own slot, keys are written in).
    """
    pad = "\n" + "  " * level
    inner = pad + "  "
    str_keys = all(type(k) is str for k in keys)
    heads = [encode_basestring_ascii(k).replace("%", "%%") for k in keys] if str_keys else ["%s"] * len(keys)
    items = [f"{head}: {_SLOTS.get(t, '%s')}" for head, t in zip(heads, types)]
    return "{" + inner + ("," + inner).join(items) + pad + "}", all(t in _SLOTS for t in types), str_keys


def _dumps(obj, level: int = 0) -> str:
    """Deterministic JSON with two-space indents and 17-significant-digit floats.

    Scalars of exact type float, int, str, bool and None are emitted straight
    from `_SCALARS`; each dict is one `%` through the template of its shape,
    and each list one join.
    """
    emit = _SCALARS.get(type(obj))
    if emit is not None:
        return emit(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # Each tuple is built from a sized sequence: `tuple()` of an iterator
        # allocates ten slots and shrinks them, which would add a tuple of the
        # dict's size to CPython's free list on every call, up to 2000 a size.
        values = tuple(obj.values())
        template, native, str_keys = _template(tuple(obj), (*map(type, values),), level)
        if not native:
            values = tuple([v if type(v) in _SLOTS else _dumps(v, level + 1) for v in values])
        if not str_keys:
            values = tuple([x for k, v in zip(obj, values) for x in (json.dumps(k), v)])
        return template % values
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        pad = "\n" + "  " * level
        inner = pad + "  "
        items = [emit(v) if (emit := _SCALARS.get(type(v))) else _dumps(v, level + 1) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _scalar(obj)


def _csv_cell(v) -> str:
    """A number as the JSON report writes it; anything else as str(v)."""
    return _scalar(v) if isinstance(v, (int, float, np.integer, np.floating)) else str(v)


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _check_count(name: str, value: int, limit: int) -> None:
    if not 1 <= value <= limit:
        raise ValueError(f"{name} must be between 1 and {limit}, got {value}")


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value <= _U64_MAX:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _resolve_seed(args) -> int:
    """--seed wins; then QTOMO_SEED; otherwise fresh entropy (still echoed)."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("QTOMO_SEED")
    if env is not None:
        try:
            return _u64(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"QTOMO_SEED: {exc}") from None
    return int.from_bytes(os.urandom(8), "little")


def _angles(args) -> PureQubit:
    theta, phi = args.theta, args.phi
    if args.degrees:
        theta, phi = math.radians(theta), math.radians(phi)
    return PureQubit(theta, phi)


def _stokes_json(s: StokesVector) -> dict:
    return {"s0": s.s0, "s1": s.s1, "s2": s.s2, "s3": s.s3}


def _rho_json(rho: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(rho)]


def _rho_cells(rho: np.ndarray) -> list[float]:
    return [x for row in _rho_json(rho) for cell in row for x in cell]


_RHO_COLUMNS = [
    "rho00_re", "rho00_im", "rho01_re", "rho01_im",
    "rho10_re", "rho10_im", "rho11_re", "rho11_im",
]


def _cmd_exact(args):
    q = _angles(args)
    # Unchecked, as PureQubit has checked q; read off the matrix, so that the
    # residual keeps s0 = tr rho, which can sit one ulp below 1.
    reference = _pauli_stokes(pure_density(q))
    _, alice, bloch = _readout(reference.s1, reference.s2, reference.s3)
    exact = StokesVector(1.0, *bloch)
    residual = max(abs(getattr(exact, k) - getattr(reference, k)) for k in ("s0", "s1", "s2", "s3"))
    steps = []
    for i, (step, a) in enumerate(zip(protocol_steps(), alice)):
        steps.append(
            {
                "step": i + 1,
                "label": step.label,
                "beta_a": step.strategy_a.beta,
                "alpha_a": step.strategy_a.alpha,
                "beta_b": step.strategy_b.beta,
                "alpha_b": step.strategy_b.alpha,
                "alice": a,
                "bob": -a,
            }
        )
    report = {
        "command": "exact",
        "inputs": {"theta": q.theta, "phi": q.phi},
        "steps": steps,
        "stokes": _stokes_json(exact),
        "reconstruction": None,
        "metrics": {"stokes_residual": residual},
        "seed": args.seed,
    }
    header = ["theta", "phi", "s1", "s2", "s3",
              "alice_s1", "bob_s1", "alice_s2", "bob_s2", "alice_s3", "bob_s3", "residual"]
    row = [q.theta, q.phi, exact.s1, exact.s2, exact.s3,
           exact.s1, -exact.s1, exact.s2, -exact.s2, exact.s3, -exact.s3, residual]
    return report, header, [row]


def _sample_row(q: PureQubit, result, trial: int, seed: int) -> list:
    est = _IN_BLOCH_ORDER(result.per_step)
    s = result.stokes_est
    return (
        [trial, q.theta, q.phi, est[0].shots, seed, s.s1, s.s2, s.s3]
        + [e.std_error for e in est]
        + _rho_cells(result.rho_hat)
        + [result.projected, result.fidelity, result.trace_dist]
    )


def _cmd_sample(args):
    _check_count("shots", args.shots, MAX_SHOTS)
    _check_count("trials", args.trials, MAX_TRIALS)
    q = _angles(args)
    master = _resolve_seed(args)
    trial_seeds = [master] if args.trials == 1 else [_splitmix(master, t) for t in range(args.trials)]
    batch = _tomography(_pure_rows([(q.theta, q.phi)]) * args.trials, args.shots, trial_seeds)
    first = _scored(batch, 0)
    header = (
        ["trial", "theta", "phi", "shots", "seed", "s1_hat", "s2_hat", "s3_hat",
         "stderr_s1", "stderr_s2", "stderr_s3"]
        + _RHO_COLUMNS
        + ["projected", "fidelity", "trace_distance"]
    )
    rows = (_sample_row(q, _scored(batch, t) if t else first, t, ts) for t, ts in enumerate(trial_seeds))
    if args.format == "csv":  # the rows need no report
        return None, header, rows
    steps = [
        {
            "step": i + 1,
            "label": e.step_label,
            "shots": e.shots,
            "seed": e.seed,
            "value": e.value,
            "std_error": e.std_error,
        }
        for i, e in enumerate(first.per_step)
    ]
    metrics = {"fidelity": first.fidelity, "trace_distance": first.trace_dist}
    if args.trials > 1:
        metrics["trials"] = args.trials
        metrics["median_fidelity"] = float(np.median(batch.fidelity))
        metrics["min_fidelity"] = min(batch.fidelity)
        metrics["per_trial"] = [
            {"trial": t, "seed": ts, "fidelity": fid, "trace_distance": dist, "projected": projected}
            for t, (ts, fid, dist, projected) in enumerate(
                zip(trial_seeds, batch.fidelity, batch.trace_distance, batch.projected)
            )
        ]
    report = {
        "command": "sample",
        "inputs": {"theta": q.theta, "phi": q.phi, "shots": args.shots, "trials": args.trials, "sampler": SAMPLER},
        "steps": steps,
        "stokes": _stokes_json(first.stokes_est),
        "reconstruction": {
            "rho": _rho_json(first.rho_hat),
            "projected": first.projected,
            "bloch_norm": first.stokes_est.bloch_norm(),
        },
        "metrics": metrics,
        "seed": master,
    }
    return report, header, rows


_SWEEP_KEYS = ["theta", "phi", "s1", "s2", "s3", "s1_hat", "s2_hat", "s3_hat", "fidelity", "seed"]


def _sweep_angles(theta_steps: int, phi_steps: int) -> list[tuple[float, float]]:
    """The sweep grid's (theta, phi) pairs, theta-major, as Python floats.

    theta_i = i * (pi / (n - 1)) for i < n - 1, then pi itself, as
    `np.linspace(0.0, pi, n)` gives; phi_j = j * (2 pi / m), as
    `np.arange(m) * (2 pi / m)` gives. Every theta lies in [0, pi] and is
    never -0.0, and (m - 1) * fl(2 pi / m) < 2 pi, so these are the angles
    `PureQubit` would store: no cell needs a check or a wrap.
    """
    dtheta, dphi = math.pi / (theta_steps - 1), TWO_PI / phi_steps
    thetas = [i * dtheta for i in range(theta_steps - 1)] + [math.pi]
    phis = [j * dphi for j in range(phi_steps)]
    return [(theta, phi) for theta in thetas for phi in phis]


def _cmd_sweep(args):
    if args.theta_steps < 2 or args.phi_steps < 2:
        raise ValueError("sweep needs at least 2 grid steps per axis")
    _check_count("grid cells", args.theta_steps * args.phi_steps, MAX_CELLS)
    _check_count("shots", args.shots, MAX_SHOTS)
    master = _resolve_seed(args)
    angles = _sweep_angles(args.theta_steps, args.phi_steps)
    seeds = [_splitmix(master, k) for k in range(len(angles))]
    batch = _tomography(_pure_rows(angles), args.shots, seeds)
    columns = zip(angles, batch.exact, batch.estimate, batch.fidelity, seeds)
    cells = [
        dict(zip(_SWEEP_KEYS, [theta, phi, *exact, *est, fid, seed]))
        for (theta, phi), exact, est, fid, seed in columns
    ]
    report = {
        "command": "sweep",
        "inputs": {
            "theta_steps": args.theta_steps, "phi_steps": args.phi_steps, "shots": args.shots, "sampler": SAMPLER,
        },
        "steps": cells,
        "stokes": None,
        "reconstruction": None,
        "metrics": {"cells": len(cells)},
        "seed": master,
    }
    header = _SWEEP_KEYS[:-1]
    return report, header, ([cell[k] for k in header] for cell in cells)


def _cmd_reconstruct(args):
    raw = StokesVector(1.0, args.s1, args.s2, args.s3)
    rho_hat, projected = reconstruct(raw)
    report = {
        "command": "reconstruct",
        "inputs": {"s1": args.s1, "s2": args.s2, "s3": args.s3},
        "steps": None,
        "stokes": _stokes_json(_pauli_stokes(rho_hat)),  # reconstruct built a valid rho_hat
        "reconstruction": {
            "rho": _rho_json(rho_hat),
            "projected": projected,
            "bloch_norm": raw.bloch_norm(),
        },
        "metrics": None,
        "seed": args.seed,
    }
    header = ["s1", "s2", "s3"] + _RHO_COLUMNS + ["projected", "bloch_norm"]
    row = [args.s1, args.s2, args.s3] + _rho_cells(rho_hat) + [projected, raw.bloch_norm()]
    return report, header, [row]


def _cmd_bloch(args):
    q = _angles(args)
    s = StokesVector(1.0, *_readout(*_pure_rows([(q.theta, q.phi)])[0])[2])
    # Each step's plane pins one Bloch coordinate (x = s1, y = s2, z = s3);
    # the three planes meet at the Bloch point.
    point = [s.s1, s.s2, s.s3]
    report = {
        "command": "bloch",
        "inputs": {"theta": q.theta, "phi": q.phi},
        "steps": None,
        "stokes": _stokes_json(s),
        "reconstruction": None,
        "metrics": {"plane_x": s.s1, "plane_y": s.s2, "plane_z": s.s3, "point": point},
        "seed": args.seed,
    }
    header = ["theta", "phi", "plane_x", "plane_y", "plane_z", "x", "y", "z"]
    return report, header, [[q.theta, q.phi, *point, *point]]


# Each handler returns (report, CSV header, CSV rows); sample and sweep return
# their rows as a generator, which only a CSV report runs, and sample builds
# no report for CSV.
_HANDLERS = {
    "exact": _cmd_exact,
    "sample": _cmd_sample,
    "sweep": _cmd_sweep,
    "reconstruct": _cmd_reconstruct,
    "bloch": _cmd_bloch,
}


def _add_angle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, required=True, help="polar angle in radians")
    p.add_argument("--phi", type=float, required=True, help="azimuthal angle in radians")
    p.add_argument("--degrees", action="store_true", help="interpret --theta/--phi in degrees")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qtomo argument parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, so repeated in-process `main` calls
    (a sweep driver, the tests) reuse it rather than rebuild six parsers.
    """
    ap = argparse.ArgumentParser(
        prog="qtomo",
        description="Single-qubit tomography via a two-player game protocol.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact per-step payoffs and Stokes vector")
    _add_angle_args(p)
    p.add_argument("--seed", type=_u64, default=None, help="echoed in the report; unused")
    _add_output_args(p)

    p = sub.add_parser("sample", help="finite-shot tomography of one pure state")
    _add_angle_args(p)
    p.add_argument("--shots", type=int, default=8192, help="shots per step (default 8192)")
    p.add_argument("--seed", type=_u64, default=None)
    p.add_argument("--trials", type=int, default=1, help="independent repetitions")
    _add_output_args(p)

    p = sub.add_parser("sweep", help="exact + sampled Stokes over a (theta, phi) grid")
    p.add_argument("--theta-steps", type=int, default=5)
    p.add_argument("--phi-steps", type=int, default=5)
    p.add_argument("--shots", type=int, default=8192, help="shots per step per cell")
    p.add_argument("--seed", type=_u64, default=None)
    _add_output_args(p)

    p = sub.add_parser("reconstruct", help="density matrix from given Stokes values")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--s3", type=float, required=True)
    p.add_argument("--seed", type=_u64, default=None, help="echoed in the report; unused")
    _add_output_args(p)

    p = sub.add_parser("bloch", help="measurement planes and Bloch point of a pure state")
    _add_angle_args(p)
    p.add_argument("--seed", type=_u64, default=None, help="echoed in the report; unused")
    _add_output_args(p)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, header, rows = _HANDLERS[args.command](args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = _dumps(report) + "\n" if args.format == "json" else _csv_text(header, rows)
    try:
        if args.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(args.out, "wb") as fh:
                fh.write(text.encode())
    except OSError as exc:
        target = "stdout" if args.out is None else args.out
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
