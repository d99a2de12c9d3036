"""Command-line front end.

Reads states from JSON, calls the library (bures_discord for every
maximal fidelity) and formats its results as JSON or CSV.  The verify
subcommand runs the self-check suites.

Exit codes: 0 success, 1 verification failure, 2 invalid input
(machine-readable error JSON on stderr), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .closed_forms import (
    DISCORD_METHODS,
    bures_discord,
    char_poly_coeffs,
    classical_correlation_symmetric,
    symmetric_fidelity,
    x_candidate_discord,
    x_fidelity_equatorial,
    x_fidelity_z,
)
from .discord_core import (
    MeasurementDirection,
    ccs_from_measurement,
    dephasing_residual,
    entropic_discord,
    fidelity_at_direction,
    helstrom_success,
    induced_ensemble,
    lambda_matrix,
    max_fidelity_bruteforce,
)
from .errors import (
    BuresDiscordError,
    InvalidParams,
    NotSymmetricFamily,
    PreconditionNotMet,
)
from .linalg import check_density_matrix, herm_eig
from .sampling import (
    random_classical_params,
    random_direction,
    random_state,
    random_symmetric_params,
    random_unitary,
    random_x_params,
)
from .states import (
    ClassicalStateParams,
    XStateParams,
    classical_state,
    is_symmetric_family,
    local_unitary,
    werner_params,
    x_params_from_matrix,
    x_state,
)

# ccs reports its state A-classical when measuring qubit A along the
# reported axis changes no entry by more than this (dephasing_residual)
A_CLASSICAL_TOL = 1e-10

# fidelity of the maximally mixed state at w = 0.5 mixing, and the other
# frozen regression targets checked by the verify subcommand
_WERNER_HALF_FIDELITY = 0.5 + 0.125 + np.sqrt(0.125 * 0.625)
_BELL_DISCORD = 2.0 - np.sqrt(2.0)
_REFERENCE_AXIAL = 0.5 + np.sqrt(5.0) / 6.0
_REFERENCE_EQUATORIAL = 0.5 + np.sqrt(2.0) / 3.0


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_dumps(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {_dumps(v, indent + 1)}" for k, v in obj.items()]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_parts(mat: np.ndarray) -> tuple:
    arr = np.asarray(mat, dtype=complex)
    return arr.real.tolist(), arr.imag.tolist()


def _direction_entry(direction: MeasurementDirection) -> dict:
    return {"theta": direction.theta, "psi": direction.psi}


def _write_text(text: str, out_path: str | None) -> None:
    """Write text, newline-terminated, to stdout or to out_path unchanged."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _error_exit(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


# ---------------------------------------------------------------------------
# input parsing


def _read_input(path: str) -> dict:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    loaded = json.loads(raw)
    if not isinstance(loaded, dict):
        raise InvalidParams("input JSON must be an object")
    return loaded


def _x_params_from_fields(fields: dict) -> XStateParams:
    try:
        return XStateParams(
            a=float(fields["a"]),
            b=float(fields["b"]),
            c=float(fields["c"]),
            d=float(fields["d"]),
            x=complex(float(fields.get("x_re", 0.0)), float(fields.get("x_im", 0.0))),
            y=complex(float(fields.get("y_re", 0.0)), float(fields.get("y_im", 0.0))),
        )
    except KeyError as exc:
        raise InvalidParams(f"x_state spec missing field {exc.args[0]!r}") from exc


def resolve_state(spec: dict) -> tuple:
    """Turn a StateSpec JSON object into (kind, density matrix)."""
    kind = spec.get("kind")
    if kind == "x_state":
        return kind, x_state(_x_params_from_fields(spec.get("x_state", {})))
    if kind == "werner":
        body = spec.get("werner", {})
        if "w" not in body:
            raise InvalidParams("werner spec requires field 'w'")
        return kind, x_state(werner_params(float(body["w"])))
    if kind == "classical":
        body = spec.get("classical", {})
        try:
            cp = ClassicalStateParams(
                p=float(body["p"]),
                r=tuple(float(v) for v in body["r"]),
                s=tuple(float(v) for v in body["s"]),
                t=tuple(float(v) for v in body["t"]),
            )
        except KeyError as exc:
            raise InvalidParams(f"classical spec missing field {exc.args[0]!r}") from exc
        return kind, classical_state(cp)
    if kind == "matrix":
        body = spec.get("matrix", {})
        if "re" not in body:
            raise InvalidParams("matrix spec requires field 're'")
        re = np.asarray(body["re"], dtype=float)
        im = np.asarray(body.get("im", np.zeros_like(re)), dtype=float)
        if re.shape != (4, 4) or im.shape != (4, 4):
            raise InvalidParams("matrix spec must be 4x4")
        return kind, check_density_matrix(re + 1j * im)
    raise InvalidParams(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# discord subcommand


def cmd_discord(args) -> int:
    kind, rho = resolve_state(_read_input(args.input))
    result, trail, extra = bures_discord(rho, args.method)
    report = {
        "input_kind": kind,
        "method_requested": args.method,
        "method": result.method,
        "fidelity": result.fidelity,
        "discord": result.discord,
        "optimal_directions": [_direction_entry(d) for d in result.optimal_directions],
        "degenerate_family": result.degenerate_family,
        "dispatch": trail,
        **extra,
    }
    _write_text(_dumps(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# ccs subcommand


def cmd_ccs(args) -> int:
    if args.psi is not None and args.theta is None:
        raise InvalidParams("--psi overrides the measurement axis only together with --theta")
    _, rho = resolve_state(_read_input(args.input))
    if args.theta is not None:
        direction = MeasurementDirection.from_angles(args.theta, args.psi or 0.0)
        source = "override"
    else:
        result, _, _ = bures_discord(rho)
        direction = result.optimal_directions[0]
        source = result.method

    ccs = ccs_from_measurement(rho, direction)
    residual = dephasing_residual(ccs.state, direction)
    re, im = _matrix_parts(ccs.state)
    report = {
        "direction": _direction_entry(direction),
        "direction_source": source,
        "ccs_re": re,
        "ccs_im": im,
        "fidelity_check": ccs.fidelity_check,
        "objective_fidelity": fidelity_at_direction(rho, direction),
        "degenerate_projector": ccs.degenerate_projector,
        "a_classical_residual": residual,
        "a_classical": bool(residual <= A_CLASSICAL_TOL),
    }
    _write_text(_dumps(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# classical subcommand


def cmd_classical(args) -> int:
    _, rho = resolve_state(_read_input(args.input))
    try:
        params = x_params_from_matrix(rho)
    except InvalidParams:
        raise NotSymmetricFamily("input state is not X-shaped") from None
    value, product = classical_correlation_symmetric(params)
    re, im = _matrix_parts(product)
    report = {
        "classical_correlation": value,
        "closest_product_re": re,
        "closest_product_im": im,
    }
    _write_text(_dumps(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep subcommand

CSV_COLUMNS = [
    "param_value",
    "fidelity",
    "discord",
    "theta_opt",
    "psi_opt",
    "method",
    "candidate_gap",
    "classical_corr",
    "entropic_discord",
]

_SWEEP_METHODS = {"bruteforce", "closed", "candidates", "entropic"}


def _interpolate_params(start: XStateParams, stop: XStateParams, t: float) -> XStateParams:
    s = 1.0 - t
    return XStateParams(
        a=s * start.a + t * stop.a,
        b=s * start.b + t * stop.b,
        c=s * start.c + t * stop.c,
        d=s * start.d + t * stop.d,
        x=s * start.x + t * stop.x,
        y=s * start.y + t * stop.y,
    )


def _sweep_points(spec: dict) -> tuple:
    """Expand a SweepSpec into (param_values, XStateParams list)."""
    steps = int(spec.get("steps", 0))
    if steps < 2:
        raise InvalidParams("sweep requires steps >= 2")
    family = spec.get("family")
    if family == "werner":
        lo = float(spec.get("start", 0.0))
        hi = float(spec.get("stop", 1.0))
        ws = np.linspace(lo, hi, steps)
        return list(ws), [werner_params(w) for w in ws]
    if family == "x_line":
        if "start" not in spec or "stop" not in spec:
            raise InvalidParams("x_line sweep requires 'start' and 'stop' parameter blocks")
        start = _x_params_from_fields(spec["start"])
        stop = _x_params_from_fields(spec["stop"])
        ts = np.linspace(0.0, 1.0, steps)
        points = [_interpolate_params(start, stop, t) for t in ts]
        values = _line_param_values(spec["start"], spec["stop"], ts)
        return values, points
    raise InvalidParams(f"unknown sweep family {family!r}")


def _line_param_values(start_fields: dict, stop_fields: dict, ts: np.ndarray) -> list:
    """When the endpoints differ in exactly one field, report that
    field's interpolated value; otherwise the bare parameter t."""
    names = ("a", "b", "c", "d", "x_re", "x_im", "y_re", "y_im")
    changed = [n for n in names
               if float(start_fields.get(n, 0.0)) != float(stop_fields.get(n, 0.0))]
    if len(changed) != 1:
        return list(ts)
    lo = float(start_fields.get(changed[0], 0.0))
    hi = float(stop_fields.get(changed[0], 0.0))
    return [lo + (hi - lo) * t for t in ts]


def _sweep_row(param_value: float, params: XStateParams, methods: set) -> dict:
    rho = x_state(params)
    method = next(m for m in ("bruteforce", "closed", "candidates") if m in methods)
    try:
        result, _, extra = bures_discord(rho, method)
    except PreconditionNotMet:  # sweep's closed falls back to the candidates
        result, _, extra = bures_discord(rho, "candidates")
    gap = extra["candidate_gap"]

    classical = ""
    if is_symmetric_family(params):
        classical = _fmt(classical_correlation_symmetric(params)[0])
    entropic = ""
    if "entropic" in methods:
        entropic = _fmt(entropic_discord(rho)[1])

    best = result.optimal_directions[0]
    return {
        "param_value": _fmt(param_value),
        "fidelity": _fmt(result.fidelity),
        "discord": _fmt(result.discord),
        "theta_opt": _fmt(best.theta),
        "psi_opt": _fmt(best.psi),
        "method": result.method,
        "candidate_gap": "" if gap is None else _fmt(gap),
        "classical_corr": classical,
        "entropic_discord": entropic,
    }


def cmd_sweep(args) -> int:
    spec = _read_input(args.input)
    methods = set(spec.get("methods", ["bruteforce"]))
    unknown = methods - _SWEEP_METHODS
    if unknown:
        raise InvalidParams(f"unknown sweep methods {sorted(unknown)!r}")
    if not methods & {"bruteforce", "closed", "candidates"}:
        raise InvalidParams("sweep needs at least one of bruteforce/closed/candidates")
    values, points = _sweep_points(spec)

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(_sweep_row(v, p, methods) for v, p in zip(values, points))
    _write_text(buffer.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify subcommand


def _suite_closed_vs_bruteforce(rng, samples):
    worst = 0.0
    for _ in range(samples):
        params = random_symmetric_params(rng)
        closed, _ = symmetric_fidelity(params)
        brute = max_fidelity_bruteforce(x_state(params))
        worst = max(worst, abs(closed.fidelity - brute.fidelity))
    return worst, samples


def _suite_candidate_bound(rng, samples):
    worst = 0.0
    for _ in range(samples):
        params = random_x_params(rng)
        cand, _ = x_candidate_discord(params)
        brute = max_fidelity_bruteforce(x_state(params))
        worst = max(worst, cand.fidelity - brute.fidelity)
    return max(worst, 0.0), samples


def _suite_unitary_invariance(rng, samples):
    worst = 0.0
    n = max(samples // 2, 5)
    for _ in range(n):
        params = random_x_params(rng)
        rho = x_state(params)
        rotated = local_unitary(rho, random_unitary(rng), random_unitary(rng))
        base = max_fidelity_bruteforce(rho)
        moved = max_fidelity_bruteforce(rotated)
        worst = max(worst, abs(base.fidelity - moved.fidelity))
    return worst, n


def _suite_discrimination_bridge(rng, samples):
    worst = 0.0
    n = samples * 2
    for _ in range(n):
        rho = random_state(rng)
        direction = MeasurementDirection(tuple(random_direction(rng)))
        ensemble = induced_ensemble(rho, direction)
        worst = max(worst, abs(helstrom_success(ensemble)
                               - fidelity_at_direction(rho, direction)))
    return worst, n


def _suite_zero_discord(rng, samples):
    worst = 0.0
    n = max(samples // 2, 5)
    for _ in range(n):
        rho = classical_state(random_classical_params(rng))
        result = max_fidelity_bruteforce(rho)
        worst = max(worst, result.discord)
    return worst, n


def _suite_char_poly(rng, samples):
    worst = 0.0
    n = samples * 2
    for _ in range(n):
        params = random_x_params(rng)
        m = rng.uniform(-1.0, 1.0)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        coeffs = char_poly_coeffs(params, m, psi)
        sin_theta = np.sqrt(1.0 - m * m)
        direction = MeasurementDirection((sin_theta * np.cos(psi),
                                          sin_theta * np.sin(psi), m))
        lam = herm_eig(lambda_matrix(x_state(params), direction)).eigenvalues
        closed = np.array([coeffs.t3, coeffs.t2, coeffs.t1, coeffs.t0])
        worst = max(worst, float(np.max(np.abs(closed - np.poly(lam)[1:]))))
    return worst, n


def _suite_reference_values(_rng, _samples):
    checks = []
    werner = werner_params(0.5)
    closed, _ = symmetric_fidelity(werner)
    checks.append(abs(closed.fidelity - _WERNER_HALF_FIDELITY))
    checks.append(abs(classical_correlation_symmetric(werner)[0]
                      - (2.0 - 3.0 * np.sqrt(0.125) - np.sqrt(0.625))))

    bell = XStateParams(0.5, 0.0, 0.0, 0.5, 0.0, 0.5)
    closed, _ = symmetric_fidelity(bell)
    checks.append(abs(closed.discord - _BELL_DISCORD))
    checks.append(abs(classical_correlation_symmetric(bell)[0] - 1.0))

    mixed = werner_params(0.0)
    closed, _ = symmetric_fidelity(mixed)
    checks.append(abs(closed.fidelity - 1.0))
    checks.append(abs(classical_correlation_symmetric(mixed)[0]))

    reference = XStateParams(1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0,
                             1.0 / 6.0, 1.0 / 6.0)
    checks.append(abs(x_fidelity_z(reference) - _REFERENCE_AXIAL))
    checks.append(abs(x_fidelity_equatorial(reference).fidelity - _REFERENCE_EQUATORIAL))
    return max(checks), len(checks)


_VERIFY_SUITES = [
    ("closed_vs_bruteforce", _suite_closed_vs_bruteforce, 2e-6),
    ("candidate_bound", _suite_candidate_bound, 1e-9),
    ("unitary_invariance", _suite_unitary_invariance, 2e-6),
    ("discrimination_bridge", _suite_discrimination_bridge, 1e-9),
    ("zero_discord", _suite_zero_discord, 1e-6),
    ("char_poly", _suite_char_poly, 1e-10),
    ("reference_values", _suite_reference_values, 1e-9),
]


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise InvalidParams(f"--samples must be at least 1, got {args.samples}")
    summary = {"seed": args.seed, "samples": args.samples, "suites": {}}
    all_passed = True
    for index, (name, runner, default_tol) in enumerate(_VERIFY_SUITES):
        tol = args.tolerance if args.tolerance is not None else default_tol
        rng = np.random.default_rng([args.seed, index])
        max_dev, count = runner(rng, args.samples)
        passed = max_dev <= tol
        all_passed = all_passed and passed
        summary["suites"][name] = {
            "max_deviation": float(max_dev),
            "tolerance": float(tol),
            "samples": count,
            "passed": passed,
        }
        print(f"{name}: samples={count} max_dev={_fmt(max_dev)} "
              f"tol={_fmt(tol)} {'PASS' if passed else 'FAIL'}")
    summary["passed"] = all_passed
    _write_text(_dumps(summary), args.out)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buresdiscord",
        description="Bures-geometric discord of two-qubit X-states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="path to a JSON StateSpec, or - for stdin")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_discord = sub.add_parser("discord", help="maximal fidelity and discord")
    add_common(p_discord)
    p_discord.add_argument("--method", default="auto", choices=DISCORD_METHODS)
    p_discord.set_defaults(func=cmd_discord)

    p_ccs = sub.add_parser("ccs", help="closest classical state")
    add_common(p_ccs)
    p_ccs.add_argument("--theta", type=float, default=None,
                       help="override the measurement polar angle")
    p_ccs.add_argument("--psi", type=float, default=None,
                       help="override the measurement azimuth (needs --theta)")
    p_ccs.set_defaults(func=cmd_ccs)

    p_sweep = sub.add_parser("sweep", help="one-parameter family sweep to CSV")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    add_common(p_verify, needs_input=False)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="override every suite tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_classical = sub.add_parser("classical",
                                 help="geometric classical correlation (a=d, b=c family)")
    add_common(p_classical)
    p_classical.set_defaults(func=cmd_classical)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _error_exit("FileNotFound", str(exc), 3)
    except IsADirectoryError as exc:
        return _error_exit("IsADirectory", str(exc), 3)
    except PermissionError as exc:
        return _error_exit("PermissionDenied", str(exc), 3)
    except json.JSONDecodeError as exc:
        return _error_exit("InvalidJSON", str(exc), 2)
    except BuresDiscordError as exc:
        return _error_exit(type(exc).__name__, str(exc), 2)
    except (KeyError, TypeError, ValueError) as exc:
        return _error_exit(type(exc).__name__, str(exc), 2)
    except OSError as exc:
        return _error_exit("IOError", str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
