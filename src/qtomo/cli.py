"""qtomo command line: exact and sampled tomography, sweeps, reconstruction,
and Bloch plane geometry, reported as JSON (default) or CSV.

Every report carries the same top-level JSON keys (command, inputs, steps,
stokes, reconstruction, metrics, seed), written in that order only by
`_report`; each handler passes the sections that apply, and the rest are null.
Floats are serialized with 17 significant digits so that reports round-trip
exactly and repeated seeded runs are byte-identical.

The argument parser is built once per process (`build_parser` is cached),
so a driver that calls `main` many times in one process pays for it once.
Every command takes `--seed`, declared once beside `--format` and `--out`, and
reads a token that starts with `-<digit>` or `-.<digit>` as a value, so a
negative number in exponent form, as reports print it, parses.
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
and every other value fills a slot with its text. Each list is one join.
A report holds only lists, dicts with str keys, and scalars of exact type
float, int, str, bool or None; one table keyed by exact type, `_SCALARS`,
gives every scalar's text, in JSON and in CSV cells alike, and a value of
any other type (a numpy scalar, a subclass) raises KeyError there.
Each handler returns (report, rows), each CSV row a dict that names every
column beside its value; `_csv_text` writes the first row's keys as the
header, then each row's cells, which need no quoting. A sweep's CSV rows are
its JSON cells without `seed`. `sample` and `sweep` derive their trial and
cell seeds from the checked master with the unchecked `_splitmix`, and build
their CSV rows only when CSV is written. A sample report's step seeds are
the PCG64 state words of its generator (`inputs.sampler`
"binomial-count-v3"), so they reproduce it.

Exit codes: 0 success, 2 validation/usage error, 3 I/O error (the --out
file or stdout cannot be written). An --out file is written in binary
mode, as the UTF-8 bytes of the report's text.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii

import numpy as np

from .states import TWO_PI, PureQubit, StokesVector, _pauli_stokes, _pure_rows, pure_density
from .tomography import SAMPLER, _IN_BLOCH_ORDER, _bob, _readout, _scored, _splitmix, _tomography, protocol_steps, reconstruct

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

_U64_MAX = (1 << 64) - 1

# Documented upper limits on work requested from the command line, checked
# before any work starts. A step's sampling costs the same at any shot count.
MAX_SHOTS = 10_000_000
MAX_TRIALS = 10_000
MAX_CELLS = 10_000


# Values a dict template formats itself, by exact type: a `%.17g` slot prints
# what `format(x, ".17g")` does and a `%d` slot what `int.__repr__` does.
_SLOTS = {float: "%.17g", int: "%d"}

# JSON text of a scalar by its exact type, the one table for every scalar a
# report or CSV row holds; a value of any other type raises KeyError.
_SCALARS = {
    **{t: spec.__mod__ for t, spec in _SLOTS.items()},
    str: encode_basestring_ascii,  # what json.dumps returns for a str
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


@functools.lru_cache(maxsize=256)
def _template(keys: tuple, types: tuple, level: int) -> tuple[str, bool]:
    """The text of a dict of this shape with one `%` slot per value, and how to fill it.

    A float or int value fills its own slot; any other value fills a `%s`
    slot with its text. The keys, which must be str, are written in, `%`
    escaped as `%%`. Returns (template, every value fills its own slot).
    """
    pad = "\n" + "  " * level
    inner = pad + "  "
    heads = [encode_basestring_ascii(k).replace("%", "%%") for k in keys]
    items = [f"{head}: {_SLOTS.get(t, '%s')}" for head, t in zip(heads, types)]
    return "{" + inner + ("," + inner).join(items) + pad + "}", all(t in _SLOTS for t in types)


def _dumps(obj, level: int = 0) -> str:
    """Deterministic JSON with two-space indents and 17-significant-digit floats.

    Each dict is one `%` through the template of its shape, each list one
    join, and each scalar its text from `_SCALARS`.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # Each tuple is built from a sized sequence: `tuple()` of an iterator
        # allocates ten slots and shrinks them, which would add a tuple of the
        # dict's size to CPython's free list on every call, up to 2000 a size.
        values = tuple(obj.values())
        template, native = _template(tuple(obj), (*map(type, values),), level)
        if not native:
            values = tuple([v if type(v) in _SLOTS else _dumps(v, level + 1) for v in values])
        return template % values
    if isinstance(obj, list):
        if not obj:
            return "[]"
        pad = "\n" + "  " * level
        inner = pad + "  "
        items = [emit(v) if (emit := _SCALARS.get(type(v))) else _dumps(v, level + 1) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _SCALARS[type(obj)](obj)


def _csv_text(rows: Iterable[dict]) -> str:
    """CSV text: the first row's keys as the header, then each row's cells from `_SCALARS`."""
    lines = []
    for row in rows:
        if not lines:
            lines.append(",".join(row))
        lines.append(",".join([_SCALARS[type(v)](v) for v in row.values()]))
    return "".join(line + "\n" for line in lines)


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
    if args.seed is not None:
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


def _report(command: str, inputs: dict, seed, *, steps=None, stokes=None, reconstruction=None, metrics=None) -> dict:
    """A JSON report: the one place its seven top-level keys are written, in their order."""
    return {
        "command": command,
        "inputs": inputs,
        "steps": steps,
        "stokes": stokes,
        "reconstruction": reconstruction,
        "metrics": metrics,
        "seed": seed,
    }


def _stokes_json(s: StokesVector) -> dict:
    return {"s0": s.s0, "s1": s.s1, "s2": s.s2, "s3": s.s3}


def _reconstruction_json(rho: np.ndarray, projected: bool, bloch_norm: float) -> dict:
    return {"rho": _rho_json(rho), "projected": projected, "bloch_norm": bloch_norm}


def _rho_json(rho: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in rho.tolist()]


def _rho_cells(rho: np.ndarray) -> dict:
    (r00, r01), (r10, r11) = rho.tolist()
    return {
        "rho00_re": r00.real, "rho00_im": r00.imag, "rho01_re": r01.real, "rho01_im": r01.imag,
        "rho10_re": r10.real, "rho10_im": r10.imag, "rho11_re": r11.real, "rho11_im": r11.imag,
    }


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
                "bob": _bob(a),
            }
        )
    report = _report(
        "exact", {"theta": q.theta, "phi": q.phi}, args.seed,
        steps=steps, stokes=_stokes_json(exact), metrics={"stokes_residual": residual},
    )
    row = {
        "theta": q.theta, "phi": q.phi, "s1": exact.s1, "s2": exact.s2, "s3": exact.s3,
        "alice_s1": exact.s1, "bob_s1": _bob(exact.s1), "alice_s2": exact.s2, "bob_s2": _bob(exact.s2),
        "alice_s3": exact.s3, "bob_s3": _bob(exact.s3), "residual": residual,
    }
    return report, [row]


def _sample_row(q: PureQubit, result, trial: int, seed: int) -> dict:
    x, y, z = _IN_BLOCH_ORDER(result.per_step)
    s = result.stokes_est
    return {
        "trial": trial, "theta": q.theta, "phi": q.phi, "shots": x.shots, "seed": seed,
        "s1_hat": s.s1, "s2_hat": s.s2, "s3_hat": s.s3,
        "stderr_s1": x.std_error, "stderr_s2": y.std_error, "stderr_s3": z.std_error,
        **_rho_cells(result.rho_hat),
        "projected": result.projected, "fidelity": result.fidelity, "trace_distance": result.trace_dist,
    }


def _cmd_sample(args):
    _check_count("shots", args.shots, MAX_SHOTS)
    _check_count("trials", args.trials, MAX_TRIALS)
    q = _angles(args)
    master = _resolve_seed(args)
    trial_seeds = [master] if args.trials == 1 else [_splitmix(master, t) for t in range(args.trials)]
    batch = _tomography(_pure_rows([(q.theta, q.phi)]) * args.trials, args.shots, trial_seeds)
    first = _scored(batch, 0)
    rows = (_sample_row(q, _scored(batch, t) if t else first, t, ts) for t, ts in enumerate(trial_seeds))
    if args.format == "csv":  # the rows need no report
        return None, rows
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
    report = _report(
        "sample", {"theta": q.theta, "phi": q.phi, "shots": args.shots, "trials": args.trials, "sampler": SAMPLER},
        master, steps=steps, stokes=_stokes_json(first.stokes_est), metrics=metrics,
        reconstruction=_reconstruction_json(first.rho_hat, first.projected, first.stokes_est.bloch_norm()),
    )
    return report, rows


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
        {"theta": theta, "phi": phi, "s1": s1, "s2": s2, "s3": s3,
         "s1_hat": e1, "s2_hat": e2, "s3_hat": e3, "fidelity": fid, "seed": seed}
        for (theta, phi), (s1, s2, s3), (e1, e2, e3), fid, seed in columns
    ]
    inputs = {"theta_steps": args.theta_steps, "phi_steps": args.phi_steps, "shots": args.shots, "sampler": SAMPLER}
    report = _report("sweep", inputs, master, steps=cells, metrics={"cells": len(cells)})
    return report, ({k: v for k, v in cell.items() if k != "seed"} for cell in cells)


def _cmd_reconstruct(args):
    raw = StokesVector(1.0, args.s1, args.s2, args.s3)
    rho_hat, projected = reconstruct(raw)
    norm = raw.bloch_norm()
    report = _report(
        "reconstruct", {"s1": args.s1, "s2": args.s2, "s3": args.s3}, args.seed,
        stokes=_stokes_json(_pauli_stokes(rho_hat)),  # reconstruct built a valid rho_hat
        reconstruction=_reconstruction_json(rho_hat, projected, norm),
    )
    row = {"s1": args.s1, "s2": args.s2, "s3": args.s3, **_rho_cells(rho_hat),
           "projected": projected, "bloch_norm": norm}
    return report, [row]


def _cmd_bloch(args):
    q = _angles(args)
    s = StokesVector(1.0, *_readout(*_pure_rows([(q.theta, q.phi)])[0])[2])
    # Each step's plane pins one Bloch coordinate (x = s1, y = s2, z = s3);
    # the three planes meet at the Bloch point.
    planes = {"plane_x": s.s1, "plane_y": s.s2, "plane_z": s.s3}
    report = _report(
        "bloch", {"theta": q.theta, "phi": q.phi}, args.seed,
        stokes=_stokes_json(s), metrics={**planes, "point": [s.s1, s.s2, s.s3]},
    )
    return report, [{"theta": q.theta, "phi": q.phi, **planes, "x": s.s1, "y": s.s2, "z": s.s3}]


# Each handler returns (report, CSV rows), each row a dict of column name to
# value; sample and sweep return their rows as a generator, which only a CSV
# report runs, and sample builds no report for CSV.
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


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", type=_u64, default=None,
        help="unsigned 64-bit seed, echoed in the report; sample and sweep draw from it, "
        "else from QTOMO_SEED, else from fresh entropy",
    )
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
    _add_common_args(p)

    p = sub.add_parser("sample", help="finite-shot tomography of one pure state")
    _add_angle_args(p)
    p.add_argument("--shots", type=int, default=8192, help="shots per step (default 8192)")
    p.add_argument("--trials", type=int, default=1, help="independent repetitions")
    _add_common_args(p)

    p = sub.add_parser("sweep", help="exact + sampled Stokes over a (theta, phi) grid")
    p.add_argument("--theta-steps", type=int, default=5)
    p.add_argument("--phi-steps", type=int, default=5)
    p.add_argument("--shots", type=int, default=8192, help="shots per step per cell")
    _add_common_args(p)

    p = sub.add_parser("reconstruct", help="density matrix from given Stokes values")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--s3", type=float, required=True)
    _add_common_args(p)

    p = sub.add_parser("bloch", help="measurement planes and Bloch point of a pure state")
    _add_angle_args(p)
    _add_common_args(p)

    # No option starts with -<digit>, so read such a token as a value: argparse's
    # own test takes -1.5 but not -1e-3, which reports print.
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, rows = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = _dumps(report) + "\n" if args.format == "json" else _csv_text(rows)
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
