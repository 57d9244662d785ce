"""The benchmark's workloads: seeded inputs, one op each, and independent output checks.

Inputs come from the benchmark seed alone; qtomo receives only the generated
angles, shot counts and per-op seeds. Each workload cycles over a fixed pool
of inputs, so a traced run over whole passes of the pool makes the same calls
per op on every run with the same seed.

The checks compare each output against closed forms computed here, not with
qtomo. They never pin a seeded sample value, so a different (correct) sampler
passes them.
"""

from __future__ import annotations

import json
import math
import os
import random

import qtomo
import qtomo.cli

BOUND_SIGMAS = 6.0  # allowed |s_hat - s| in units of the 1/sqrt(shots) worst-case error
PHYS_TOL = 1e-9  # trace, hermiticity, ball, fidelity and trace-distance identities
EXACT_TOL = 1e-12  # exact readout against the Bloch vector of the input angles

SWEEP_STEPS = 5
SWEEP_SHOTS = 8192
REPORT_KEYS = {"command", "inputs", "steps", "stokes", "reconstruction", "metrics", "seed"}

_MASK64 = (1 << 64) - 1

# +-z, +-x, +-y: one outcome distribution per step is degenerate, so the
# sampled Bloch vector can leave the ball and the projection path runs.
CARDINAL = (
    (0.0, 0.0),
    (math.pi, 0.0),
    (math.pi / 2, 0.0),
    (math.pi / 2, math.pi),
    (math.pi / 2, math.pi / 2),
    (math.pi / 2, 3 * math.pi / 2),
)


def splitmix_seed(master: int, index: int) -> int:
    """The documented per-step / per-cell seed derivation, written out independently."""
    x = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def bloch(theta: float, phi: float) -> tuple[float, float, float]:
    return (
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    )


def _norm(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _projected(v) -> tuple[float, ...]:
    n = _norm(v)
    return tuple(x / n for x in v) if n > 1.0 + PHYS_TOL else tuple(v)


def _sampling_errors(truth, est, shots: int) -> list[str]:
    bound = BOUND_SIGMAS / math.sqrt(shots)
    return [
        f"|s{i + 1}_hat - s{i + 1}| = {abs(e - t):.3g} > {bound:.3g}"
        for i, (t, e) in enumerate(zip(truth, est))
        if abs(e - t) > bound
    ]


class Tomography:
    """`run_tomography` on Haar-random pure states plus the six cardinal states."""

    pool_size = 64

    def __init__(self, name: str, shots: int):
        self.name = name
        self.shots = shots

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        angles = list(CARDINAL)
        while len(angles) < self.pool_size:
            angles.append((math.acos(1.0 - 2.0 * rng.random()), 2.0 * math.pi * rng.random()))
        rng.shuffle(angles)
        return [(qtomo.PureQubit(t, p), rng.getrandbits(64)) for t, p in angles]

    def op(self, inp):
        q, seed = inp
        return qtomo.run_tomography(q, self.shots, seed)

    def check(self, inp, res) -> list[str]:
        q, seed = inp
        errors = []
        steps = res.per_step
        if len(steps) != 3:
            return [f"{len(steps)} protocol steps, expected 3"]
        for i, e in enumerate(steps):
            if e.shots != self.shots:
                errors.append(f"step {i} ran {e.shots} shots, asked for {self.shots}")
            if e.seed != splitmix_seed(seed, i):
                errors.append(f"step {i} seed {e.seed} is not derive_seed(seed, {i})")
        rho = res.rho_hat
        r00, r01, r10, r11 = complex(rho[0, 0]), complex(rho[0, 1]), complex(rho[1, 0]), complex(rho[1, 1])
        if abs(r00 + r11 - 1.0) > PHYS_TOL:
            errors.append(f"trace of rho_hat is {r00 + r11}")
        herm = max(abs(r00.imag), abs(r11.imag), abs(r01 - r10.conjugate()))
        if herm > PHYS_TOL:
            errors.append(f"rho_hat is not Hermitian (residual {herm:.3g})")
        t_hat = (2.0 * r01.real, -2.0 * r01.imag, (r00 - r11).real)
        if _norm(t_hat) > 1.0 + PHYS_TOL:
            errors.append(f"rho_hat Bloch norm {_norm(t_hat)!r} exceeds 1")
        s_est = (res.stokes_est.s1, res.stokes_est.s2, res.stokes_est.s3)
        if max(abs(a - b) for a, b in zip(t_hat, _projected(s_est))) > PHYS_TOL:
            errors.append("rho_hat is not the radial projection of the estimate")
        s = bloch(q.theta, q.phi)
        fid = (1.0 + _dot(s, t_hat)) / 2.0
        if abs(res.fidelity - fid) > PHYS_TOL:
            errors.append(f"fidelity {res.fidelity!r} != (1 + s.t)/2 = {fid!r}")
        dist = _norm([a - b for a, b in zip(s, t_hat)]) / 2.0
        if abs(res.trace_dist - dist) > PHYS_TOL:
            errors.append(f"trace_dist {res.trace_dist!r} != |s - t|/2 = {dist!r}")
        return errors + _sampling_errors(s, s_est, self.shots)


class CliSweep:
    """One in-process `qtomo sweep` over the default 5x5 grid, JSON written to a file."""

    pool_size = 16

    def __init__(self, name: str, out_path: str):
        self.name = name
        self.out_path = out_path

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [rng.getrandbits(64) for _ in range(self.pool_size)]

    def op(self, master: int):
        return qtomo.cli.main([
            "sweep",
            "--theta-steps", str(SWEEP_STEPS),
            "--phi-steps", str(SWEEP_STEPS),
            "--shots", str(SWEEP_SHOTS),
            "--seed", str(master),
            "--out", self.out_path,
        ])

    def check(self, master: int, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(self.out_path)  # so a later op that writes nothing cannot pass
        except (OSError, ValueError) as exc:
            return [f"unreadable report: {exc}"]
        if set(doc) != REPORT_KEYS:
            return [f"top-level keys {sorted(doc)}"]
        errors = []
        if doc["seed"] != master:
            errors.append(f"report seed {doc['seed']} != {master}")
        cells = doc["steps"]
        if doc["metrics"]["cells"] != SWEEP_STEPS**2 or len(cells) != SWEEP_STEPS**2:
            return errors + [f"metrics.cells {doc['metrics']['cells']}, {len(cells)} cells"]
        for idx, cell in enumerate(cells):
            i, j = divmod(idx, SWEEP_STEPS)
            theta = math.pi * i / (SWEEP_STEPS - 1)
            phi = 2.0 * math.pi * j / SWEEP_STEPS
            if abs(cell["theta"] - theta) > EXACT_TOL or abs(cell["phi"] - phi) > EXACT_TOL:
                errors.append(f"cell {idx} at ({cell['theta']}, {cell['phi']}), not on the grid")
                continue
            s = bloch(theta, phi)
            exact = (cell["s1"], cell["s2"], cell["s3"])
            if max(abs(a - b) for a, b in zip(exact, s)) > EXACT_TOL:
                errors.append(f"cell {idx} exact Stokes {exact} != {s}")
            if cell["seed"] != splitmix_seed(master, idx):
                errors.append(f"cell {idx} seed is not derive_seed(master, {idx})")
            s_est = (cell["s1_hat"], cell["s2_hat"], cell["s3_hat"])
            fid = (1.0 + _dot(s, _projected(s_est))) / 2.0
            if abs(cell["fidelity"] - fid) > PHYS_TOL:
                errors.append(f"cell {idx} fidelity {cell['fidelity']!r} != {fid!r}")
            errors += [f"cell {idx}: {e}" for e in _sampling_errors(s, s_est, SWEEP_SHOTS)]
        return errors


def make(name: str, out_dir: str):
    """The named workload; `out_dir` is where a workload may write its files."""
    if name == "tomo_16shots":
        return Tomography(name, 16)
    if name == "tomo_100kshots":
        return Tomography(name, 100_000)
    if name == "cli_sweep":
        # One file per process, so concurrent benchmark runs in one checkout cannot collide.
        return CliSweep(name, os.path.join(out_dir, f"sweep-{os.getpid()}.json"))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("tomo_16shots", "tomo_100kshots", "cli_sweep")
