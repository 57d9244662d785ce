"""Tests for the qtomo command line: schemas, determinism, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtomo
import qtomo.cli
import qtomo.tomography
from qtomo.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, _HANDLERS, _SCALARS, _csv_cell, _dumps, _template, build_parser, main
from qtomo.states import PureQubit, pure_density
from qtomo.tomography import derive_seed, estimate_stokes, exact_stokes, run_tomography

TOP_KEYS = {"command", "inputs", "steps", "stokes", "reconstruction", "metrics", "seed"}

HALF_PI = math.pi / 2


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("QTOMO_SEED", raising=False)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestExact:
    def test_equator_report(self, capsys):
        report = run_json(capsys, ["exact", "--theta", repr(HALF_PI), "--phi", repr(HALF_PI)])
        assert set(report) == TOP_KEYS
        assert report["command"] == "exact"
        s = report["stokes"]
        np.testing.assert_allclose([s["s0"], s["s1"], s["s2"], s["s3"]], [1, 0, 1, 0], atol=1e-12)
        assert report["metrics"]["stokes_residual"] <= 1e-12
        assert {step["label"] for step in report["steps"]} == {"S1", "S2", "S3"}

    def test_negative_zero_angles_echo_as_zero(self, capsys):
        for command in ("exact", "bloch", "sample"):
            code, out, err = run_cli(capsys, [command, "--theta", "-0.0", "--phi", "-0.0", "--seed", "1"])
            assert code == EXIT_OK, err
            assert '"inputs": {\n    "theta": 0,\n    "phi": 0' in out, command

    def test_pole_report(self, capsys):
        report = run_json(capsys, ["exact", "--theta", "0", "--phi", "0"])
        s = report["stokes"]
        np.testing.assert_allclose([s["s0"], s["s1"], s["s2"], s["s3"]], [1, 0, 0, 1], atol=1e-12)

    def test_bob_is_minus_alice(self, capsys):
        report = run_json(capsys, ["exact", "--theta", "1.1", "--phi", "2.2"])
        for step in report["steps"]:
            assert step["bob"] == -step["alice"]

    def test_range_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["exact", "--theta", "4.0", "--phi", "0"])
        assert code == EXIT_USAGE
        assert "theta" in err

    def test_missing_phi_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--theta", "1.0"])
        assert exc.value.code == 2

    def test_degrees_flag(self, capsys):
        report = run_json(capsys, ["exact", "--theta", "90", "--phi", "0", "--degrees"])
        assert report["stokes"]["s1"] == pytest.approx(1.0, abs=1e-12)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--theta", "0", "--phi", "0", "--format", "csv"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("theta,phi,s1,s2,s3,")
        assert len(lines) == 2


class TestSample:
    def test_seeded_runs_are_byte_identical(self, capsys):
        argv = ["sample", "--theta", "0.8", "--phi", "0.3", "--shots", "500", "--seed", "7"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        argv_csv = argv + ["--format", "csv"]
        _, first_csv, _ = run_cli(capsys, argv_csv)
        _, second_csv, _ = run_cli(capsys, argv_csv)
        assert first_csv == second_csv

    def test_pole_report(self, capsys):
        report = run_json(capsys, ["sample", "--theta", "0", "--phi", "0", "--shots", "1000", "--seed", "7"])
        assert set(report) == TOP_KEYS
        assert report["seed"] == 7
        assert report["stokes"]["s3"] == 1.0
        # The radial projection at the pole, within 6 sigma per fair-coin step (1 - F <= 18/m).
        fidelity = report["metrics"]["fidelity"]
        assert fidelity == (1.0 + 1.0 / report["reconstruction"]["bloch_norm"]) / 2.0
        assert 1.0 - fidelity <= 18.0 / 1000
        for step, index in zip(report["steps"], range(3)):
            assert step["seed"] == derive_seed(7, index)
            assert step["shots"] == 1000
            assert step["std_error"] <= 1.0 / math.sqrt(1000) + 1e-12

    def test_reconstruction_section(self, capsys):
        report = run_json(capsys, ["sample", "--theta", "1.2", "--phi", "4.0", "--shots", "4096", "--seed", "3"])
        rho = report["reconstruction"]["rho"]
        assert len(rho) == 2 and all(len(row) == 2 and len(cell) == 2 for row in rho for cell in row)
        trace = rho[0][0][0] + rho[1][1][0]
        assert trace == pytest.approx(1.0, abs=1e-9)

    def test_trials_aggregate(self, capsys):
        report = run_json(
            capsys,
            ["sample", "--theta", "0.9", "--phi", "1.0", "--shots", "256", "--seed", "11", "--trials", "3"],
        )
        metrics = report["metrics"]
        assert metrics["trials"] == 3
        assert len(metrics["per_trial"]) == 3
        assert 0.0 <= metrics["median_fidelity"] <= 1.0
        seeds = [t["seed"] for t in metrics["per_trial"]]
        assert seeds == [derive_seed(11, t) for t in range(3)]
        code, out, _ = run_cli(
            capsys,
            ["sample", "--theta", "0.9", "--phi", "1.0", "--shots", "256", "--seed", "11",
             "--trials", "3", "--format", "csv"],
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 4  # header + one row per trial

    def test_trials_match_the_library_bit_for_bit(self, capsys):
        argv = ["sample", "--theta", "2.9", "--phi", "3.0", "--shots", "64", "--seed", "5", "--trials", "5"]
        q = PureQubit(2.9, 3.0)
        results = [run_tomography(q, 64, derive_seed(5, t)) for t in range(5)]
        per_trial = run_json(capsys, argv)["metrics"]["per_trial"]
        assert [(t["fidelity"], t["trace_distance"], t["projected"]) for t in per_trial] == [
            (r.fidelity, r.trace_dist, r.projected) for r in results
        ]
        assert any(r.projected for r in results) and not all(r.projected for r in results)
        code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
        assert code == EXIT_OK
        rows = list(csv.reader(out.splitlines()))[1:]
        for t, (row, r) in enumerate(zip(rows, results, strict=True)):
            e = {est.step_label: est for est in r.per_step}
            floats = (
                [q.theta, q.phi, r.stokes_est.s1, r.stokes_est.s2, r.stokes_est.s3]
                + [e["S1"].std_error, e["S2"].std_error, e["S3"].std_error]
                + [x for z in r.rho_hat.ravel() for x in (z.real, z.imag)]
                + [r.fidelity, r.trace_dist]
            )
            assert [int(row[0]), int(row[3]), int(row[4])] == [t, 64, derive_seed(5, t)]
            assert [float(x) for x in row[1:3] + row[5:19] + row[20:]] == floats
            assert row[19] == ("true" if r.projected else "false")

    def test_builds_the_report_only_for_json(self, capsys, monkeypatch):
        calls = []
        original = qtomo.cli._stokes_json
        monkeypatch.setattr(qtomo.cli, "_stokes_json", lambda s: calls.append(s) or original(s))
        argv = ["sample", "--theta", "0.9", "--phi", "1.0", "--shots", "64", "--seed", "11", "--trials", "3"]
        assert run_cli(capsys, argv + ["--format", "csv"])[0] == EXIT_OK
        assert calls == []
        run_json(capsys, argv)
        assert len(calls) == 1

    def test_shot_validation_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["sample", "--theta", "0.1", "--phi", "0", "--shots", "0"])
        assert code == EXIT_USAGE
        assert "shots" in err

    @pytest.mark.parametrize(
        "flag, value", [("--shots", "10000001"), ("--shots", "10000000000"), ("--trials", "10001")]
    )
    def test_oversized_request_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, ["sample", "--theta", "0.1", "--phi", "0", "--seed", "1", flag, value])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and flag[2:] in err

    def test_limits_themselves_pass_validation(self, capsys):
        # The bad theta is checked after shots and trials, so an error that
        # names theta shows that both limits were accepted.
        code, _, err = run_cli(
            capsys, ["sample", "--theta", "4.0", "--phi", "0", "--shots", "10000000", "--trials", "10000"]
        )
        assert code == EXIT_USAGE
        assert "theta" in err


class TestSweep:
    def test_csv_contract(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--theta-steps", "3", "--phi-steps", "3", "--shots", "64",
             "--seed", "11", "--format", "csv", "--out", str(out_path)],
        )
        assert code == EXIT_OK
        text = out_path.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "theta,phi,s1,s2,s3,s1_hat,s2_hat,s3_hat,fidelity"
        assert len(lines) == 10
        rows = list(csv.DictReader(lines))
        for row in rows:
            theta, phi = float(row["theta"]), float(row["phi"])
            assert abs(float(row["s1"]) - math.sin(theta) * math.cos(phi)) <= 1e-12
            assert abs(float(row["s2"]) - math.sin(theta) * math.sin(phi)) <= 1e-12
            assert abs(float(row["s3"]) - math.cos(theta)) <= 1e-12

    def test_cell_seeds_differ_pairwise(self, capsys):
        report = run_json(capsys, ["sweep", "--theta-steps", "3", "--phi-steps", "3", "--shots", "16", "--seed", "2"])
        assert set(report) == TOP_KEYS
        cells = report["steps"]
        seeds = [c["seed"] for c in cells]
        assert len(set(seeds)) == len(seeds) == 9
        assert seeds == [derive_seed(2, k) for k in range(9)]

    def test_cells_match_the_library_bit_for_bit(self, capsys):
        report = run_json(capsys, ["sweep", "--theta-steps", "3", "--phi-steps", "3", "--shots", "256", "--seed", "8"])
        assert len(report["steps"]) == 9
        for idx, cell in enumerate(report["steps"]):
            q = PureQubit(cell["theta"], cell["phi"])
            exact = exact_stokes(pure_density(q))
            res = run_tomography(q, 256, derive_seed(8, idx))
            assert (cell["s1"], cell["s2"], cell["s3"]) == (exact.s1, exact.s2, exact.s3)
            s = res.stokes_est
            assert (cell["s1_hat"], cell["s2_hat"], cell["s3_hat"]) == (s.s1, s.s2, s.s3)
            assert cell["fidelity"] == res.fidelity
            assert cell["seed"] == derive_seed(8, idx)

    def test_grid_validation_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["sweep", "--theta-steps", "1", "--phi-steps", "3", "--seed", "1"])
        assert code == EXIT_USAGE

    def test_oversized_grid_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--theta-steps", "100", "--phi-steps", "101", "--seed", "1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "grid cells" in err

    def test_oversized_shots_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--shots", "10000001", "--seed", "1"])
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "shots" in err

    def test_limits_themselves_pass_validation(self, capsys, monkeypatch):
        # Shots are checked after the grid, and QTOMO_SEED after both, so an
        # error that names the later check shows the earlier limit was accepted.
        code, _, err = run_cli(capsys, ["sweep", "--theta-steps", "100", "--phi-steps", "100", "--shots", "0"])
        assert code == EXIT_USAGE
        assert "shots" in err
        monkeypatch.setenv("QTOMO_SEED", "not-a-number")
        code, _, err = run_cli(capsys, ["sweep", "--shots", "10000000"])
        assert code == EXIT_USAGE
        assert "QTOMO_SEED" in err

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _, err = run_cli(
            capsys,
            ["sweep", "--theta-steps", "2", "--phi-steps", "2", "--shots", "8",
             "--seed", "1", "--out", str(blocker / "grid.csv")],
        )
        assert code == EXIT_IO
        assert "cannot write" in err


class TestReconstructCommand:
    def test_pole(self, capsys):
        report = run_json(capsys, ["reconstruct", "--s1", "0", "--s2", "0", "--s3", "1"])
        assert set(report) == TOP_KEYS
        rho = report["reconstruction"]["rho"]
        np.testing.assert_allclose(rho, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], atol=1e-15)
        assert report["reconstruction"]["projected"] is False

    def test_projection(self, capsys):
        report = run_json(capsys, ["reconstruct", "--s1", "1.2", "--s2", "0", "--s3", "0"])
        rec = report["reconstruction"]
        assert rec["projected"] is True
        assert rec["bloch_norm"] == pytest.approx(1.2)
        np.testing.assert_allclose(rec["rho"], [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]], atol=1e-12)

    def test_maximally_mixed(self, capsys):
        report = run_json(capsys, ["reconstruct", "--s1", "0", "--s2", "0", "--s3", "0"])
        np.testing.assert_allclose(
            report["reconstruction"]["rho"], [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], atol=1e-15
        )

    def test_zero_readout_prints_positive_zero(self, capsys):
        # Halving a negative subnormal leaves -0.0 entries in rho; the
        # reported Stokes vector still reads those traces as +0.
        code, out, _ = run_cli(capsys, ["reconstruct", "--s1=-5e-324", "--s2=-0.0", "--s3", "0"])
        assert code == EXIT_OK
        stokes = out[out.index('"stokes"'):out.index('"reconstruction"')]
        assert '"s1": 0,' in stokes and '"s2": 0,' in stokes and "-0" not in stokes

    def test_non_finite_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["reconstruct", "--s1", "nan", "--s2", "0", "--s3", "0"])
        assert code == EXIT_USAGE

    def test_overflowing_norm_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["reconstruct", "--s1", "1e200", "--s2", "0", "--s3", "0"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")


class TestBloch:
    def test_planes_on_equator(self, capsys):
        report = run_json(capsys, ["bloch", "--theta", repr(HALF_PI), "--phi", repr(HALF_PI)])
        assert set(report) == TOP_KEYS
        metrics = report["metrics"]
        assert abs(metrics["plane_z"]) <= 1e-12
        assert abs(metrics["plane_y"] - 1.0) <= 1e-12
        assert abs(metrics["plane_x"]) <= 1e-12

    def test_pole_point(self, capsys):
        report = run_json(capsys, ["bloch", "--theta", "0", "--phi", "0"])
        np.testing.assert_allclose(report["metrics"]["point"], [0, 0, 1], atol=1e-12)

    def test_matches_exact_to_the_last_digit(self, capsys):
        argv_tail = ["--theta", "1.234567", "--phi", "4.2"]
        exact = run_json(capsys, ["exact", *argv_tail])
        bloch = run_json(capsys, ["bloch", *argv_tail])
        for key in ("s1", "s2", "s3"):
            assert exact["stokes"][key] == bloch["stokes"][key]
        assert bloch["metrics"]["point"] == [bloch["stokes"]["s1"], bloch["stokes"]["s2"], bloch["stokes"]["s3"]]


class TestSeedSources:
    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv("QTOMO_SEED", "123")
        report = run_json(capsys, ["sample", "--theta", "0.2", "--phi", "0.1", "--shots", "64"])
        assert report["seed"] == 123

    def test_cli_seed_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QTOMO_SEED", "123")
        report = run_json(capsys, ["sample", "--theta", "0.2", "--phi", "0.1", "--shots", "64", "--seed", "9"])
        assert report["seed"] == 9

    def test_invalid_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QTOMO_SEED", "not-a-number")
        code, _, err = run_cli(capsys, ["sample", "--theta", "0.2", "--phi", "0.1", "--shots", "64"])
        assert code == EXIT_USAGE
        assert "QTOMO_SEED" in err

    def test_unseeded_run_echoes_entropy(self, capsys):
        report = run_json(capsys, ["sample", "--theta", "0.2", "--phi", "0.1", "--shots", "64"])
        assert isinstance(report["seed"], int)
        assert 0 <= report["seed"] < 2**64

    def test_seed_out_of_range_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--theta", "0.2", "--phi", "0.1", "--seed", str(2**64)])
        assert exc.value.code == 2

    def test_import_loads_no_openssl(self):
        # Fresh entropy comes from os.urandom: importing the CLI pulls in
        # neither `secrets` nor the hashlib modules it imports. A command that
        # draws nothing does not load numpy's generators either.
        src = str(Path(qtomo.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = (
            "import os, sys, qtomo.cli\n"
            "modules = {'secrets', 'hashlib', '_hashlib', 'numpy.random'}\n"
            "print(sorted(modules & set(sys.modules)))\n"
            "assert qtomo.cli.main(['exact', '--theta', '1', '--phi', '2', '--out', os.devnull]) == 0\n"
            "print(sorted(modules & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[]\n"


class TestOutputFile:
    def test_json_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["exact", "--theta", "0.5", "--phi", "0.5", "--out", str(out_path)])
        assert code == EXIT_OK
        assert out == ""
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["command"] == "exact"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_file_holds_the_bytes_written_to_stdout(self, capsys, tmp_path, fmt):
        argv = ["sweep", "--theta-steps", "3", "--phi-steps", "2", "--shots", "16", "--seed", "5", "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_OK, err
        out_path = tmp_path / "report"
        out_path.write_bytes(b"stale text, longer than nothing")
        assert run_cli(capsys, argv + ["--out", str(out_path)]) == (EXIT_OK, "", "")
        assert out_path.read_bytes() == out.encode()


GOLDEN = Path(__file__).parent / "golden"

# One seeded report per command in the default JSON format, plus a sweep
# over a non-square odd grid, which pins the last bits of its interior
# angles. A deliberate change to a report regenerates its file with the same
# arguments plus `--out tests/golden/<key>.json`.
GOLDEN_ARGS = {
    "exact": ["exact", "--theta", "1.234567", "--phi", "4.2", "--seed", "7"],
    "sample": ["sample", "--theta", "0.7", "--phi", "2.1", "--shots", "16", "--seed", "42"],
    "sweep": ["sweep", "--theta-steps", "2", "--phi-steps", "2", "--seed", "42"],
    "sweep_3x7": ["sweep", "--theta-steps", "3", "--phi-steps", "7", "--shots", "16", "--seed", "42"],
    "reconstruct": ["reconstruct", "--s1", "0.6", "--s2", "0.8", "--s3", "0.3", "--seed", "7"],
    "bloch": ["bloch", "--theta", "1.234567", "--phi", "4.2", "--seed", "7"],
}


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_seeded_report_matches_golden_text(capsys, command):
    code, out, err = run_cli(capsys, GOLDEN_ARGS[command])
    assert code == EXIT_OK, err
    assert out == (GOLDEN / f"{command}.json").read_text(encoding="utf-8")


CHECK_FREE_ARGS = {
    "exact": ["exact", "--theta", "1.1", "--phi", "2.2"],
    "bloch": ["bloch", "--theta", "1.1", "--phi", "2.2"],
    "reconstruct": ["reconstruct", "--s1", "1.2", "--s2", "0.3", "--s3", "-0.4"],
    "sample": ["sample", "--theta", "0.9", "--phi", "1.0", "--shots", "16", "--seed", "4", "--trials", "3"],
    "sweep": ["sweep", "--theta-steps", "2", "--phi-steps", "2", "--shots", "16", "--seed", "4"],
}


@pytest.mark.parametrize("command", sorted(CHECK_FREE_ARGS))
def test_no_command_checks_a_density_matrix(capsys, is_density_calls, command):
    # PureQubit has checked the angles, and reconstruct reads back the matrix
    # it has just built, so no command eigen-checks a density matrix.
    run_json(capsys, CHECK_FREE_ARGS[command])
    assert is_density_calls == []


def json_text(capsys, argv):
    """The JSON report with every number left as its text."""
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_OK, err
    return json.loads(out, parse_float=str, parse_int=str)


def csv_row(capsys, argv):
    """The one CSV row of a report, as a dict of column name to cell text."""
    code, out, err = run_cli(capsys, argv + ["--format", "csv"])
    assert code == EXIT_OK, err
    header, row = csv.reader(io.StringIO(out))
    return dict(zip(header, row))


class TestCsvMatchesJson:
    """Each CSV column equals, as text, the JSON value it restates."""

    @pytest.mark.parametrize("theta, phi", [("1.234567", "4.2"), ("0", "0"), (repr(math.pi), "-0.0")])
    def test_exact_payoff_columns(self, capsys, theta, phi):
        argv = ["exact", "--theta", theta, "--phi", phi]
        report, row = json_text(capsys, argv), csv_row(capsys, argv)
        assert {step["label"] for step in report["steps"]} == {"S1", "S2", "S3"}
        for step in report["steps"]:
            k = step["label"][1]
            alice, bob = row[f"alice_s{k}"], row[f"bob_s{k}"]
            assert (alice, bob) == (step["alice"], step["bob"])
            assert bob == (alice[1:] if alice.startswith("-") else "-" + alice)

    @pytest.mark.parametrize("theta, phi", [("1.234567", "4.2"), ("0", "0")])
    def test_bloch_row(self, capsys, theta, phi):
        argv = ["bloch", "--theta", theta, "--phi", phi]
        report, row = json_text(capsys, argv), csv_row(capsys, argv)
        m = report["metrics"]
        assert [row[k] for k in ("plane_x", "plane_y", "plane_z")] == [m["plane_x"], m["plane_y"], m["plane_z"]]
        assert [row[k] for k in ("x", "y", "z")] == m["point"]
        assert [row["theta"], row["phi"]] == [report["inputs"]["theta"], report["inputs"]["phi"]]

    @pytest.mark.parametrize("s", [("1.2", "0.3", "-0.4"), ("-5e-324", "-0.0", "0"), ("0.6", "0.8", "0.3")])
    def test_reconstruct_row(self, capsys, s):
        argv = ["reconstruct", "--s1=" + s[0], "--s2=" + s[1], "--s3=" + s[2]]
        report, row = json_text(capsys, argv), csv_row(capsys, argv)
        rec = report["reconstruction"]
        cells = [row[f"rho{i}{j}_{part}"] for i in "01" for j in "01" for part in ("re", "im")]
        assert cells == [x for rho_row in rec["rho"] for z in rho_row for x in z]
        assert row["projected"] == ("true" if rec["projected"] else "false")
        assert row["bloch_norm"] == rec["bloch_norm"]


class _FailingStdout(io.StringIO):
    """A stdout whose `write` or `flush` (the method named) raises OSError, as on a full disk."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


class TestStdoutErrors:
    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_unwritable_stdout_exits_3(self, capsys, monkeypatch, failing):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(failing))
        code = main(["exact", "--theta", "1", "--phi", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith("error: cannot write stdout")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_3(self):
        # The whole process, interpreter shutdown included: no traceback and
        # no second failed flush at exit.
        src = str(Path(qtomo.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "qtomo.cli", "exact", "--theta", "1", "--phi", "1"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert proc.returncode == EXIT_IO
        assert proc.stderr.startswith("error: cannot write stdout")
        assert "Traceback" not in proc.stderr


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_exits_do_not_break_later_calls(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--theta-steps", "x"])
        assert exc.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        capsys.readouterr()
        code, out, err = run_cli(capsys, GOLDEN_ARGS["sweep"])
        assert code == EXIT_OK, err
        assert out == (GOLDEN / "sweep.json").read_text(encoding="utf-8")


class TestLazyPerStep:
    """A sweep keeps counts; only rows turned into results build `SampleEstimate`s."""

    @pytest.fixture
    def estimates_built(self, monkeypatch):
        calls = []
        original = qtomo.tomography._estimate

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(qtomo.tomography, "_estimate", counting)
        return calls

    def test_sweep_builds_no_sample_estimate(self, capsys, estimates_built):
        run_json(capsys, ["sweep", "--theta-steps", "5", "--phi-steps", "5", "--seed", "3"])
        assert estimates_built == []

    def test_each_result_builds_three(self, capsys, estimates_built):
        run_tomography(PureQubit(0.3, 0.4), 16, 1)
        assert len(estimates_built) == 3
        # A JSON trial set builds trial 0's result only; its per-trial scores are batch columns.
        run_json(capsys, ["sample", "--theta", "0.3", "--phi", "0.4", "--trials", "4", "--seed", "3"])
        assert len(estimates_built) == 3 + 3
        # CSV writes a row per trial, each from its own result, trial 0's built once.
        argv = ["sample", "--theta", "0.3", "--phi", "0.4", "--trials", "4", "--seed", "3", "--format", "csv"]
        assert run_cli(capsys, argv)[0] == EXIT_OK
        assert len(estimates_built) == 3 + 3 + 4 * 3


def _numbers(obj):
    """Every value in a report that is not a dict, list, str or None, found through its dicts and lists."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _numbers(v)
    elif obj is not None and not isinstance(obj, str):
        yield obj


class TestNativeNumbers:
    """Results and reports hold numbers of exact type float, int or bool, which the emitter's slots format."""

    def test_result_fields(self):
        results = [
            run_tomography(PureQubit(0.0, 0.0), 16, 7),  # projected
            run_tomography(PureQubit(1.1, 2.3), 4096, 8),
            estimate_stokes(pure_density(PureQubit(2.0, 0.5)), 16, 9),
        ]
        for res in results:
            fields = [(bool, res.projected)]
            fields += [(float, x) for v in (res.stokes_est, res.stokes_exact) for x in dataclasses.astuple(v)]
            fields += [(t, x) for e in res.per_step for t, x in zip((float, int, float, int), dataclasses.astuple(e))]
            if res.fidelity is not None:
                fields += [(float, res.fidelity), (float, res.trace_dist)]
            assert [type(x) for _, x in fields] == [t for t, _ in fields], res

    @pytest.mark.parametrize("argv", [
        ["sample", "--theta", "0", "--phi", "0", "--shots", "16", "--seed", "7"],
        ["sample", "--theta", "2.9", "--phi", "3.0", "--shots", "64", "--seed", "5", "--trials", "5"],
        ["sweep", "--theta-steps", "3", "--phi-steps", "2", "--shots", "16", "--seed", "3"],
    ])
    def test_report_numbers(self, argv):
        args = build_parser().parse_args(argv)
        report, _, rows = _HANDLERS[args.command](args)
        numbers = list(_numbers(report)) + list(_numbers(list(rows)))
        assert numbers and {type(x) for x in numbers} <= {float, int, bool}


# The emitter before scalars were dispatched by exact type, kept as the oracle.
def _reference_fmt(x: float) -> str:
    return format(float(x), ".17g")


def _reference_dumps(obj, level: int = 0) -> str:
    """Minimal deterministic JSON emitter with 17-significant-digit floats."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {_reference_dumps(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_reference_dumps(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_fmt(obj)
    return json.dumps(obj)


def _reference_csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _reference_fmt(v)
    return str(v)


class _Int(int):
    pass


class _Float(float):
    pass


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1)
_EDGE_TEXT = ('"', "\\", '\\"\n\t\r\x00\x1f\x7f', "caf\u00e9 \u03c8 \U0001f600", "\u2028\u2029")
json_scalars = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-(2**100), 2**100),
    st.integers(-(2**100), 2**100).map(_Int),
    st.floats().map(_Float),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(_EDGE_TEXT),
)
json_keys = st.one_of(st.text(), st.sampled_from(_EDGE_TEXT), st.integers())
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(json_keys, children, max_size=5),
    ),
    max_leaves=40,
)


class TestEmitter:
    """`_dumps` writes the bytes of the emitter it replaced, for every value a report can hold."""

    @settings(deadline=None, max_examples=250)
    @given(json_trees)
    @example({"a": [0.1, -0.0, 5e-324], "b": (np.uint64(2**64 - 1), {}, [], None, True)})
    # Keys holding `%`, which a template must escape, and int keys.
    @example({"%": 0.5, "%s": 1, "100%": "x", "%%d": [0.25, 2]})
    @example({1: 0.5, -2: 3, 2**70: "x"})
    @example({"a": 0.5, 7: 1})
    # Equal keys of different types print differently: 1, True, 1.0; 0.0 and -0.0.
    @example([{1: 0.5}, {True: 0.5}, {1.0: 0.5}, {0.0: 1}, {-0.0: 1}])
    # One shape of keys, different value types, at one level of one tree.
    @example([{"a": 0.5, "b": 1}, {"a": 1, "b": 0.5}, {"a": "x", "b": None}, {"a": True, "b": [0.5]}])
    # A dict of floats with one value the template does not format itself.
    @example({"a": 0.1, "b": True, "c": 0.3})
    @example({"a": 0.1, "b": None, "c": 0.3})
    @example({"a": 0.1, "b": np.float64(0.2), "c": 0.3})
    @example({"a": 0.1, "b": _Float(0.2), "c": 0.3})
    @example({"a": 0.1, "b": _Int(2), "c": 0.3})
    # Five levels deep, through dicts and through lists.
    @example({"a": {"b": {"c": {"d": {"e": 0.5, "f": 1}}}}})
    @example({"a": [{"b": [{"c": {"d": [0.5, {"e": -0.0}]}}]}]})
    def test_matches_the_reference_emitter(self, tree):
        assert _dumps(tree) == _reference_dumps(tree)

    def test_sweep_formats_no_float_in_python(self, capsys, monkeypatch):
        # Every float of a sweep report sits in a dict, whose template formats it.
        calls = []
        fmt = _SCALARS[float]

        def counting(x):
            calls.append(x)
            return fmt(x)

        monkeypatch.setitem(_SCALARS, float, counting)
        assert _dumps([0.5]) == "[\n  0.5\n]" and calls == [0.5]  # the counter sees list items
        calls.clear()
        code, out, err = run_cli(capsys, GOLDEN_ARGS["sweep"])
        assert code == EXIT_OK, err
        assert out == (GOLDEN / "sweep.json").read_text(encoding="utf-8")
        assert calls == []

    def test_template_cache_is_bounded(self):
        for i in range(1000):
            tree = {f"k{i}": 0.5, "n": i}
            assert _dumps(tree) == _reference_dumps(tree)
        info = _template.cache_info()
        assert info.currsize <= info.maxsize

    @settings(deadline=None, max_examples=200)
    @given(json_scalars)
    @example(0.1)
    def test_csv_cells_match_the_reference(self, value):
        assert _csv_cell(value) == _reference_csv_cell(value)
