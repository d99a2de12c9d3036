"""Golden CLI corpus: every subcommand on a fixed set of inputs, compared
with outputs recorded in tests/golden/expected.

Each case calls ``main()`` in-process and records its exit code and its
output (stdout on success, the error JSON on stderr otherwise).  The
comparison is exact for exit codes, keys, strings, list lengths and CSV
headers; other numbers match within 1e-9, closest-classical-state
entries (``ccs_re``, ``ccs_im``) within 1e-6, and each reported axis
matches as a unit vector up to u -> -u within 1e-5.  Axes are not
compared where ``degenerate_family`` is non-null, since those optima are
not unique.

Regenerate the expected outputs (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py

This rewrites only the expected files whose fresh output fails the
comparison above, rewrites exit_codes.json only when an exit code
changed, and prints the names of the files it rewrote.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from buresdiscord.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

FLOAT_TOL = 1e-9
CCS_TOL = 1e-6
AXIS_TOL = 1e-5

STATES = ("werner", "general_x", "symmetric", "rank_two", "reference", "matrix", "classical")
METHODS = ("auto", "bruteforce", "closed", "candidates")


def _cases() -> dict:
    cases = {}
    for state in STATES:
        path = str(INPUTS / f"{state}.json")
        for method in METHODS:
            cases[f"discord-{state}-{method}"] = ["discord", "--input", path, "--method", method]
        cases[f"ccs-{state}"] = ["ccs", "--input", path]
        cases[f"classical-{state}"] = ["classical", "--input", path]
    for sweep in ("sweep_werner", "sweep_line_general", "sweep_line_closed"):
        cases[sweep.replace("_", "-")] = ["sweep", "--input", str(INPUTS / f"{sweep}.json")]
    cases["verify-samples6"] = ["verify", "--samples", "6"]
    return cases


CASES = _cases()


def run_case(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def expected_path(name: str) -> Path:
    return EXPECTED / f"{name}.txt"


def regenerate() -> list:
    """Rewrite the expected files that check_case rejects; return their names."""
    codes_path = EXPECTED / "exit_codes.json"
    want_codes = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    codes, rewritten = {}, []
    for name, argv in CASES.items():
        code, out, err = run_case(argv)
        codes[name] = code
        try:
            check_case(name, code, out, err, want_codes)
        except (AssertionError, KeyError, OSError, ValueError):
            with open(expected_path(name), "w", encoding="utf-8", newline="") as handle:
                handle.write(out if code == 0 else err)
            rewritten.append(expected_path(name).name)
    if codes != want_codes:
        codes_path.write_text(json.dumps(codes, indent=2) + "\n")
        rewritten.append(codes_path.name)
    return rewritten


# ---------------------------------------------------------------------------
# comparison


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _close(got: float, want: float, tol: float) -> bool:
    return math.isclose(got, want, rel_tol=tol, abs_tol=tol)


def _axis(theta: float, psi: float) -> tuple:
    st = math.sin(theta)
    return (st * math.cos(psi), st * math.sin(psi), math.cos(theta))


def _same_axis(got: tuple, want: tuple) -> bool:
    u, v = _axis(*got), _axis(*want)
    minus = math.dist(u, v)
    plus = math.dist(u, tuple(-c for c in v))
    return min(minus, plus) <= AXIS_TOL


def compare_json(got, want, path: str = "$", tol: float = FLOAT_TOL,
                 skip_axes: bool = False) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        if list(want) == ["theta", "psi"]:
            if not skip_axes:
                assert _same_axis((got["theta"], got["psi"]), (want["theta"], want["psi"])), \
                    f"{path}: axis {got} != {want}"
            return
        skip = skip_axes or want.get("degenerate_family") is not None
        for key in want:
            key_tol = CCS_TOL if key in ("ccs_re", "ccs_im") else tol
            compare_json(got[key], want[key], f"{path}.{key}", key_tol, skip)
    elif isinstance(want, list):
        assert isinstance(got, list), path
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for index, (g, w) in enumerate(zip(got, want)):
            compare_json(g, w, f"{path}[{index}]", tol, skip_axes)
    elif _is_number(want):
        assert _is_number(got), f"{path}: {got!r} is not a number"
        assert _close(got, want, tol), f"{path}: {got!r} != {want!r} within {tol:.0e}"
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


def compare_csv(got_text: str, want_text: str) -> None:
    got = list(csv.reader(io.StringIO(got_text)))
    want = list(csv.reader(io.StringIO(want_text)))
    assert got[0] == want[0], "CSV header"
    assert len(got) == len(want), "CSV row count"
    header = want[0]
    for row_index, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g_row) == len(w_row) == len(header), f"row {row_index}"
        g, w = dict(zip(header, g_row)), dict(zip(header, w_row))
        angles = ("theta_opt", "psi_opt")
        assert _same_axis(tuple(float(g[k]) for k in angles), tuple(float(w[k]) for k in angles)), \
            f"row {row_index}: axis"
        for key in header:
            if key in angles:
                continue
            if key == "method" or w[key] == "":
                assert g[key] == w[key], f"row {row_index}.{key}"
            else:
                assert _close(float(g[key]), float(w[key]), FLOAT_TOL), \
                    f"row {row_index}.{key}: {g[key]} != {w[key]}"


def compare_verify(got_text: str, want_text: str) -> None:
    """Suite lines 'name: key=value ... PASS', then the summary JSON."""
    def split(text):
        lines = text.splitlines()
        start = lines.index("{")
        return lines[:start], json.loads("\n".join(lines[start:]))

    got_lines, got_json = split(got_text)
    want_lines, want_json = split(want_text)
    assert len(got_lines) == len(want_lines)
    for g_line, w_line in zip(got_lines, want_lines):
        g_tokens, w_tokens = g_line.split(), w_line.split()
        assert len(g_tokens) == len(w_tokens), g_line
        for g_tok, w_tok in zip(g_tokens, w_tokens):
            g_key, _, g_val = g_tok.partition("=")
            w_key, _, w_val = w_tok.partition("=")
            assert g_key == w_key, g_line
            try:
                want_value = float(w_val)
            except ValueError:
                assert g_val == w_val, g_line
            else:
                assert _close(float(g_val), want_value, FLOAT_TOL), g_line
    compare_json(got_json, want_json)


def check_case(name: str, code: int, out: str, err: str, codes: dict) -> None:
    """Assert that one run of case name matches its expected output and
    exit code within the tolerances above."""
    with open(expected_path(name), encoding="utf-8", newline="") as handle:
        want = handle.read()
    assert code == codes[name]
    if code != 0:
        assert out == ""
        compare_json(json.loads(err), json.loads(want))
        return
    assert err == ""
    command = CASES[name][0]
    if command == "sweep":
        compare_csv(out, want)
    elif command == "verify":
        compare_verify(out, want)
    else:
        compare_json(json.loads(out), json.loads(want))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name):
    codes = json.loads((EXPECTED / "exit_codes.json").read_text())
    check_case(name, *run_case(CASES[name]), codes)


if __name__ == "__main__":
    rewritten = regenerate()
    for name in rewritten:
        print(name)
    print(f"{len(rewritten)} files rewritten")
    sys.exit(0)
