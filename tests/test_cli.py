"""CLI behavior: dispatch, JSON/CSV output, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from buresdiscord import cli, closed_forms
from buresdiscord.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

WERNER_HALF = {"kind": "werner", "werner": {"w": 0.5}}
GENERAL_X = {"kind": "x_state", "x_state": {
    "a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1,
    "x_re": 0.05, "x_im": 0.0, "y_re": 0.1, "y_im": 0.0}}
BELL = {"kind": "x_state", "x_state": {
    "a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5,
    "x_re": 0.0, "x_im": 0.0, "y_re": 0.5, "y_im": 0.0}}


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDiscordCommand:
    def test_werner_zero_discord(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "werner", "werner": {"w": 0.0}})
        code, report = run_json(capsys, ["discord", "--input", path])
        assert code == 0
        assert abs(report["discord"]) < 1e-12
        assert report["method"] == "symmetric_closed"

    def test_werner_one_bell_discord(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "werner", "werner": {"w": 1.0}})
        code, report = run_json(capsys, ["discord", "--input", path])
        assert code == 0
        assert abs(report["discord"] - (2.0 - np.sqrt(2.0))) < 1e-12

    def test_auto_dispatch_general_x(self, tmp_path, capsys):
        path = write_spec(tmp_path, GENERAL_X)
        code, report = run_json(capsys, ["discord", "--input", path])
        assert code == 0
        assert report["method"] == "bruteforce"
        assert report["dispatch"] == ["general->candidates+bruteforce"]
        assert report["candidate_gap"] is not None
        assert report["candidates"]["chosen"] in ("axial", "equatorial")

    def test_auto_never_exceeds_bruteforce(self, tmp_path, capsys):
        path = write_spec(tmp_path, WERNER_HALF)
        code, auto = run_json(capsys, ["discord", "--input", path])
        assert code == 0
        code, brute = run_json(capsys, ["discord", "--input", path,
                                        "--method", "bruteforce"])
        assert code == 0
        assert auto["discord"] <= brute["discord"] + 2e-6

    def test_method_closed_on_general_x_rejected(self, tmp_path, capsys):
        path = write_spec(tmp_path, GENERAL_X)
        code = main(["discord", "--input", path, "--method", "closed"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"] == "PreconditionNotMet"

    def test_matrix_input(self, tmp_path, capsys):
        rho = np.eye(4) / 4.0
        payload = {"kind": "matrix", "matrix": {"re": rho.tolist(),
                                                "im": np.zeros((4, 4)).tolist()}}
        path = write_spec(tmp_path, payload)
        code, report = run_json(capsys, ["discord", "--input", path])
        assert code == 0
        assert abs(report["fidelity"] - 1.0) < 1e-9

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(WERNER_HALF)))
        code, report = run_json(capsys, ["discord", "--input", "-"])
        assert code == 0
        assert abs(report["fidelity"] - 0.9045084971874737) < 1e-12

    def test_deterministic(self, tmp_path, capsys):
        path = write_spec(tmp_path, GENERAL_X)
        main(["discord", "--input", path])
        first = capsys.readouterr().out
        main(["discord", "--input", path])
        second = capsys.readouterr().out
        assert first == second

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        bad = {"kind": "x_state", "x_state": {"a": 0.9, "b": 0.3, "c": 0.2, "d": 0.1}}
        path = write_spec(tmp_path, bad)
        code = main(["discord", "--input", path])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"] == "InvalidParams"

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["discord", "--input", str(path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidJSON"

    def test_missing_file_exit_3(self, tmp_path, capsys):
        code = main(["discord", "--input", str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert code == 3

    def test_out_file(self, tmp_path, capsys):
        spec = write_spec(tmp_path, WERNER_HALF)
        out = tmp_path / "report.json"
        code = main(["discord", "--input", spec, "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["fidelity"] - 0.9045084971874737) < 1e-12


class TestCcsCommand:
    def test_bell_fidelity_half(self, tmp_path, capsys):
        path = write_spec(tmp_path, BELL)
        code, report = run_json(capsys, ["ccs", "--input", path])
        assert code == 0
        assert abs(report["fidelity_check"] - 0.5) < 1e-9
        assert report["a_classical"]

    def test_classical_input_echoed(self, tmp_path, capsys):
        payload = {"kind": "classical", "classical": {
            "p": 0.4, "r": [0.0, 0.0, 1.0],
            "s": [0.2, 0.1, 0.3], "t": [-0.1, 0.0, 0.5]}}
        path = write_spec(tmp_path, payload)
        code, report = run_json(capsys, ["ccs", "--input", path])
        assert code == 0
        assert abs(report["fidelity_check"] - 1.0) < 1e-6

    def test_axial_override_gives_diagonal(self, tmp_path, capsys):
        path = write_spec(tmp_path, GENERAL_X)
        code, report = run_json(capsys, ["ccs", "--input", path, "--theta", "0.0"])
        assert code == 0
        m = np.array(report["ccs_re"]) + 1j * np.array(report["ccs_im"])
        assert np.abs(m - np.diag(np.diag(m))).max() < 1e-10

    def test_psi_without_theta_exit_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, WERNER_HALF)
        code = main(["ccs", "--input", path, "--psi", "1.0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InvalidParams"

    def test_emitted_matrix_is_density(self, tmp_path, capsys):
        path = write_spec(tmp_path, GENERAL_X)
        code, report = run_json(capsys, ["ccs", "--input", path])
        assert code == 0
        m = np.array(report["ccs_re"]) + 1j * np.array(report["ccs_im"])
        assert np.abs(m - m.conj().T).max() < 1e-8
        assert abs(np.trace(m).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(m).min() > -1e-8
        assert report["a_classical_residual"] <= 1e-10
        assert report["a_classical"]

    def test_no_sphere_search_on_closed_form_input(self, monkeypatch, capsys):
        # the symmetric input has a closed form, and A-classicality is an
        # exact residual, so no sphere search may run
        def forbidden(_rho):
            raise AssertionError("max_fidelity_bruteforce called")

        monkeypatch.setattr(cli, "max_fidelity_bruteforce", forbidden)
        monkeypatch.setattr(closed_forms, "_max_fidelity_bruteforce", forbidden)
        code, report = run_json(capsys, ["ccs", "--input", str(GOLDEN_INPUTS / "symmetric.json")])
        assert code == 0
        assert report["a_classical"]
        assert report["a_classical_residual"] <= 1e-10


class TestClassicalCommand:
    def test_maximally_mixed_zero(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "werner", "werner": {"w": 0.0}})
        code, report = run_json(capsys, ["classical", "--input", path])
        assert code == 0
        assert abs(report["classical_correlation"]) < 1e-12

    def test_bell_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, BELL)
        code, report = run_json(capsys, ["classical", "--input", path])
        assert code == 0
        assert abs(report["classical_correlation"] - 1.0) < 1e-12
        product = np.array(report["closest_product_re"])
        assert np.abs(product - np.eye(4) / 4.0).max() < 1e-15

    def test_werner_half_value(self, tmp_path, capsys):
        path = write_spec(tmp_path, WERNER_HALF)
        code, report = run_json(capsys, ["classical", "--input", path])
        assert code == 0
        assert abs(report["classical_correlation"] - 0.1487704131780838) < 1e-12

    def test_non_symmetric_exit_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, GENERAL_X)
        code = main(["classical", "--input", path])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"] == "NotSymmetricFamily"


class TestSweepCommand:
    def test_werner_sweep_monotone(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "werner", "steps": 11,
                                     "methods": ["bruteforce"]})
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", spec, "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 11
        discords = [float(r["discord"]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(discords, discords[1:]))
        assert all(r["classical_corr"] != "" for r in rows)

    def test_column_order_exact(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "werner", "steps": 2,
                                     "methods": ["closed"]})
        code = main(["sweep", "--input", spec])
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0]
        assert header == ("param_value,fidelity,discord,theta_opt,psi_opt,"
                          "method,candidate_gap,classical_corr,entropic_discord")

    def test_two_step_sweep_two_rows(self, tmp_path, capsys):
        start = dict(GENERAL_X["x_state"])
        stop = dict(start)
        stop["x_re"] = 0.0
        spec = write_spec(tmp_path, {"family": "x_line", "steps": 2,
                                     "start": start, "stop": stop,
                                     "methods": ["candidates"]})
        code = main(["sweep", "--input", spec])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        # endpoints differ in one field: param_value is that field's value
        assert abs(float(rows[0]["param_value"]) - 0.05) < 1e-15
        assert abs(float(rows[1]["param_value"])) < 1e-15

    def test_closed_on_symmetric_small_gap(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "werner", "steps": 5,
                                     "methods": ["closed"]})
        code = main(["sweep", "--input", spec])
        out = capsys.readouterr().out
        assert code == 0
        for row in csv.DictReader(out.splitlines()):
            assert abs(float(row["candidate_gap"])) <= 1e-6

    def test_entropic_column(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "werner", "steps": 3,
                                     "methods": ["closed", "entropic"]})
        code = main(["sweep", "--input", spec])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert all(r["entropic_discord"] != "" for r in rows)
        # w = 1 is the Bell state: entropic discord 1
        assert abs(float(rows[-1]["entropic_discord"]) - 1.0) < 1e-5

    def test_invalid_steps_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "werner", "steps": 1,
                                     "methods": ["closed"]})
        code = main(["sweep", "--input", spec])
        capsys.readouterr()
        assert code == 2

    def test_unknown_method_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "werner", "steps": 3,
                                     "methods": ["magic"]})
        code = main(["sweep", "--input", spec])
        capsys.readouterr()
        assert code == 2

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "werner", "steps": 2,
                                     "methods": ["closed"]})
        code = main(["sweep", "--input", spec,
                     "--out", str(tmp_path / "missing_dir" / "out.csv")])
        capsys.readouterr()
        assert code == 3


class TestVerifyCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--samples", "4", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["passed"]
        assert set(summary["suites"]) == {
            "closed_vs_bruteforce", "candidate_bound", "unitary_invariance",
            "discrimination_bridge", "zero_discord", "char_poly",
            "reference_values"}
        assert text.count("PASS") == 7

    def test_deterministic_summary(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["verify", "--samples", "4", "--seed", "7", "--out", str(a)])
        capsys.readouterr()
        main(["verify", "--samples", "4", "--seed", "7", "--out", str(b)])
        capsys.readouterr()
        assert a.read_text() == b.read_text()

    def test_corrupted_tolerance_fails(self, tmp_path, capsys):
        code = main(["verify", "--samples", "4", "--tolerance", "1e-15"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        code = main(["verify", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InvalidParams"


@pytest.mark.parametrize("command,option", [
    ("discord", "--seed"), ("ccs", "--seed"), ("sweep", "--seed"), ("classical", "--seed"),
    ("discord", "--grid-theta"), ("discord", "--grid-psi"), ("discord", "--refine-iters"),
    ("ccs", "--grid-theta"), ("ccs", "--grid-psi"), ("ccs", "--refine-iters"),
    ("sweep", "--grid-theta"), ("sweep", "--grid-psi"), ("sweep", "--refine-iters"),
    ("classical", "--grid-theta"), ("classical", "--grid-psi"), ("classical", "--refine-iters"),
])
def test_options_the_command_never_reads_are_rejected(tmp_path, capsys, command, option):
    path = write_spec(tmp_path, WERNER_HALF)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", path, option, "1"])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        path = write_spec(tmp_path, WERNER_HALF)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "buresdiscord.cli", "discord", "--input", path],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert abs(report["fidelity"] - 0.9045084971874737) < 1e-12
