"""Benchmark of the buresdiscord library: one workload, one seed, one run.

    python3 perfbench/run.py --workload general_x --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from that
checkout's `src/`.  One process analyses one state at a time in a
closed loop for `--seconds` seconds (at least MIN_STATES states, whole
rounds only), then checks every output against `reference`.  With
`--trace 0` it prints the end-to-end metrics, times scaled to a
reference machine speed by `speed`; with `--trace 1` it runs the loop
untraced for half the time and again traced over the same states, and
prints the per-layer metrics.  The last line of standard
output is one JSON object; the same object, with the environment, the
check summary and (traced) the first states' spans, goes to
`perfbench/results/`.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is one caller on a small shared machine, and
# OpenBLAS' default two threads on 4x4 problems were slower and noisier.
# Set before numpy is imported, here only, never in the library.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_STATES = 100            # the p90 needs ten states beyond it
CLI_RUNS = 9                # fresh interpreters per run; setup_s is their median
CLI_TIMEOUT_S = 60
SPAN_STATES = 20
# The input of the timed CLI calls: a closed-form Werner state, w = 1/2.
WERNER_INPUT = '{"kind": "werner", "werner": {"w": 0.5}}'
WERNER_HALF_F = 5.0 / 8.0 + np.sqrt(5.0 / 64.0)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def load_program():
    """Import buresdiscord from this checkout's src/, nowhere else."""
    if not (SRC / "buresdiscord" / "__init__.py").is_file():
        raise SetupError(f"no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import buresdiscord
    if Path(buresdiscord.__file__).resolve().parent != SRC / "buresdiscord":
        raise SetupError(f"buresdiscord imported from {buresdiscord.__file__}, not {SRC}")
    return buresdiscord


def blas_info() -> dict:
    info = {"threads_setting": BLAS_THREADS, "library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        import ctypes
        with open("/proc/self/maps") as maps:
            path = next((line.split()[-1] for line in maps if "openblas" in line), None)
        if path:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                if hasattr(lib, name):
                    getter = getattr(lib, name)
                    getter.restype = ctypes.c_int
                    info["threads"] = int(getter())
                    break
    except OSError:
        pass
    return info


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the closed loop


class ProgramError(Exception):
    """The program raised while analysing a state."""


def timed_loop(workload, seed: int, seconds: float, spill, n_states: int | None = None,
               tracer=None, probe=None) -> tuple:
    """Analyse whole rounds until `seconds` have passed and at least
    MIN_STATES states are done, or until exactly `n_states` are done.

    Each (case, output) is pickled to `spill` (unless it is None) outside
    the timed region, so that memory does not grow with the number of
    states.  Returns (per-state seconds, per-state start times)."""
    rounds = workload.cases(seed)
    times, starts = array("d"), array("d")
    deadline = perf_counter() + seconds
    while True:
        for case in next(rounds):
            if tracer is not None:
                tracer.state = len(times)
            start = perf_counter()
            try:
                out = workload.analyse(case)
            except Exception as exc:  # a program fault is a failed operation
                out = ProgramError(f"{type(exc).__name__}: {exc}")
            end = perf_counter()
            times.append(end - start)
            starts.append(start)
            if spill is not None:
                pickle.dump((case, out), spill)
            if probe is not None and probe.due(end):
                probe.run()
        if n_states is not None:
            if len(times) >= n_states:
                return np.asarray(times), np.asarray(starts)
        elif len(times) >= MIN_STATES and perf_counter() >= deadline:
            return np.asarray(times), np.asarray(starts)


def spilled(spill):
    """The (case, output) pairs timed_loop wrote, in order."""
    spill.seek(0)
    while True:
        try:
            yield pickle.load(spill)
        except EOFError:
            return


def warm_up(workload, seed: int) -> None:
    """Run one round of other states first, so that lazy set-up inside
    numpy and the library is not charged to the first timed state."""
    for case in next(workload.cases(seed, warm_up=True)):
        try:
            workload.analyse(case)
        except Exception:  # the timed loop records it
            pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the CLI in a fresh interpreter


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cli_discord(flags=()) -> tuple:
    """Run `python -m buresdiscord.cli discord` on the Werner input.
    Returns (wall seconds, stderr, error or None)."""
    cmd = [sys.executable, *flags, "-m", "buresdiscord.cli", "discord", "--input", "-"]
    start = perf_counter()
    proc = subprocess.run(cmd, input=WERNER_INPUT, capture_output=True, text=True,
                          cwd=ROOT, env=cli_env(), timeout=CLI_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        return elapsed, proc.stderr, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        f = float(json.loads(proc.stdout)["fidelity"])
    except (ValueError, KeyError, TypeError) as exc:
        return elapsed, proc.stderr, f"unreadable output: {exc}"
    if abs(f - WERNER_HALF_F) > 1e-12:
        return elapsed, proc.stderr, f"fidelity {f!r}, want {WERNER_HALF_F!r}"
    return elapsed, proc.stderr, None


def import_times_ms(stderr: str) -> tuple:
    """(all top-level imports, numpy) cumulative ms from -X importtime."""
    total, numpy_ms = 0.0, 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        if not name.startswith("  "):
            total += int(cumulative) / 1000.0
        if name.strip() == "numpy" and numpy_ms == 0.0:
            numpy_ms = int(cumulative) / 1000.0
    return total, numpy_ms


def interpreter_start() -> float:
    """Wall seconds of `python -c "import numpy"`, the start-up every CLI
    call pays before any library code runs."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                   cwd=ROOT, env=cli_env(), timeout=CLI_TIMEOUT_S, check=True)
    return perf_counter() - start


def cli_runs(flags=(), baseline=False) -> tuple:
    """One untimed run (fills the bytecode cache), then CLI_RUNS timed;
    with `baseline`, each timed run sits between two interpreter_start
    runs.  Returns (seconds, baseline seconds, stderrs, errors)."""
    errors = [cli_discord(flags)[2]]
    times, base, stderrs = [], [], []
    if baseline:
        base.append(interpreter_start())
    for _ in range(CLI_RUNS):
        elapsed, stderr, error = cli_discord(flags)
        times.append(elapsed)
        stderrs.append(stderr)
        errors.append(error)
        if baseline:
            base.append(interpreter_start())
    return np.array(times), np.array(base), stderrs, [e for e in errors if e]


# ---------------------------------------------------------------------------
# checks


def check_outputs(workload, entries) -> dict:
    """Check every (case, output); summarise per check, list failures."""
    points = reference.SpherePoints(workload.sphere_level)
    summary: dict = {}
    failures: list = []
    attempted = failed = unexpected = 0
    for index, (case, out) in enumerate(entries):
        attempted += 1
        if isinstance(out, ProgramError):
            bad = [f"exception {out}"]
        else:
            checks = workload.check(case, out, points)
            for c in checks:
                row = summary.setdefault(c.name, {"n": 0, "worst": -np.inf, "tol": c.tol, "failed": 0})
                row["n"] += 1
                row["worst"] = max(row["worst"], float(c.value))
                row["failed"] += int(not c.ok)
            bad = [c.name for c in checks if not c.ok]
        if bad:
            failed += 1
            if any((case.kind, name) != workload.known_fault for name in bad):
                unexpected += 1
            if len(failures) < 50:
                failures.append({"index": index, "kind": case.kind, "checks": bad})
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected,
            "by_check": summary, "failures": failures, "sphere_level": workload.sphere_level}


# ---------------------------------------------------------------------------
# runs


def untraced_run(workload, args, spill) -> tuple:
    """End-to-end metrics, with times scaled to the reference speed."""
    warm_up(workload, args.seed)
    probe = speed.SpeedProbe()
    probe.run()
    times, starts = timed_loop(workload, args.seed, args.seconds, spill, probe=probe)
    probe.run()
    rss = peak_rss_mb()
    cli_times, base, _, cli_errors = cli_runs(baseline=True)
    scaled_ms = 1e3 * times * probe.scale(starts + times / 2.0)
    setup = float(np.median(cli_times * speed.startup_scale(base)))
    metrics = {
        "states_per_s": (1e3 * len(times) / float(np.sum(scaled_ms)), "states/s"),
        "state_ms_p50": (float(np.percentile(scaled_ms, 50)), "ms"),
        "state_ms_p90": (float(np.percentile(scaled_ms, 90)), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    wall_ms = 1e3 * times
    detail = {
        "states": len(times),
        "wall": {"states_per_s": len(times) / float(np.sum(times)),
                 "state_ms_p50": float(np.percentile(wall_ms, 50)),
                 "state_ms_p90": float(np.percentile(wall_ms, 90)),
                 "setup_s": float(np.median(cli_times))},
        "cli_s": cli_times.tolist(),
        "interpreter_start_s": base.tolist(),
        "samples": {"state_start": starts.tolist(), "state_s": times.tolist(),
                    "probe_at": probe.at.tolist(),
                    "probe_parts_ms": [p.tolist() for p in probe.parts]},
    }
    return metrics, cli_errors, detail, None


def traced_run(workload, args, spill) -> tuple:
    """Per-layer metrics: the same states untraced, then traced.  Layer
    times are scaled by the traced loop's mean speed factor.  Only the
    untraced loop's outputs are checked: the traced loop analyses the
    same states, so `attempted` counts each state once."""
    warm_up(workload, args.seed)
    probe = speed.SpeedProbe()     # holds numpy's own eigvalsh, never the traced one
    probe.run()
    plain, plain_at = timed_loop(workload, args.seed, args.seconds / 2.0, spill, probe=probe)
    n = len(plain)
    tracer = Tracer(SPAN_STATES)
    tracer.install()
    try:
        traced, traced_at = timed_loop(workload, args.seed, 0.0, None, n_states=n,
                                       tracer=tracer, probe=probe)
    finally:
        tracer.uninstall()
    probe.run()
    _, _, stderrs, cli_errors = cli_runs(("-X", "importtime"))
    imports = np.array([import_times_ms(s) for s in stderrs])

    plain_s = float(np.sum(plain * probe.scale(plain_at + plain / 2.0)))
    traced_s = float(np.sum(traced * probe.scale(traced_at + traced / 2.0)))
    factor = traced_s / float(np.sum(traced))

    def per_state(name):
        return 1e3 * factor * tracer.total(name) / n

    def per_call(name, unit, own=False):
        return factor * tracer.per_call(name, unit, own)
    brute, entropic = "discord_core.max_fidelity_bruteforce", "discord_core.entropic_discord"
    metrics = {
        f"{brute}.ms_per_call": (per_call(brute, 1e3, own=True), "ms"),
        "discord_core.objective_evals_per_state": (tracer.rows.get(brute, 0) / n, "count"),
        "discord_core.objective_batches_per_state": (tracer.batches.get(brute, 0) / n, "count"),
        f"{entropic}.ms_per_call": (per_call(entropic, 1e3), "ms"),
        "discord_core.entropic_spectra_per_state": (tracer.rows.get(entropic, 0) / n, "count"),
        "discord_core.ccs_from_measurement.ms_per_call":
            (per_call("discord_core.ccs_from_measurement", 1e3), "ms"),
        "linalg.herm_eig.calls_per_state": (tracer.calls("linalg.herm_eig") / n, "count"),
        "linalg.herm_eig.ms_per_state": (per_state("linalg.herm_eig"), "ms"),
        "linalg.psd_sqrt.calls_per_state": (tracer.calls("linalg.psd_sqrt") / n, "count"),
        "linalg.fidelity.ms_per_state": (per_state("linalg.fidelity"), "ms"),
        "linalg.check_density_matrix.ms_per_state": (per_state("linalg.check_density_matrix"), "ms"),
        "closed_forms.symmetric_fidelity.us_per_call":
            (per_call("closed_forms.symmetric_fidelity", 1e6), "us"),
        "closed_forms.symmetric_ccs.ms_per_call": (per_call("closed_forms.symmetric_ccs", 1e3), "ms"),
        "closed_forms.classical_correlation_symmetric.us_per_call":
            (per_call("closed_forms.classical_correlation_symmetric", 1e6), "us"),
        "closed_forms.degenerate_fidelity.us_per_call":
            (per_call("closed_forms.degenerate_fidelity", 1e6), "us"),
        "closed_forms.discord_upper_bound.us_per_call":
            (per_call("closed_forms.discord_upper_bound", 1e6), "us"),
        "closed_forms.x_candidate_discord.us_per_call":
            (per_call("closed_forms.x_candidate_discord", 1e6), "us"),
        "kernel.eigvalsh_ms_per_state": (per_state("kernel.eigvalsh"), "ms"),
        "cli.import_ms": (float(np.median(imports[:, 0])), "ms"),
        "cli.numpy_import_ms": (float(np.median(imports[:, 1])), "ms"),
        "trace.overhead_ms_per_state": (1e3 * (traced_s - plain_s) / n, "ms"),
    }
    spans = [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4], "state": s[5]}
             for s in tracer.spans]
    detail = {"states": n, "untraced_s": float(np.sum(plain)), "traced_s": float(np.sum(traced)),
              "scaled_untraced_s": plain_s, "scaled_traced_s": traced_s}
    return metrics, cli_errors, detail, spans


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    # numpy seeds must be non-negative; this leaves every seed in [0, 2**64) as it is
    parser.add_argument("--seed", type=lambda s: int(s) % 2**64, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    try:
        load_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=RESULTS, prefix="spill-") as spill:
        run = traced_run if args.trace else untraced_run
        metrics, cli_errors, detail, spans = run(workload, args, spill)
        checks = check_outputs(workload, spilled(spill))
    correct = checks["unexpected"] == 0 and not cli_errors

    result = {
        "correct": bool(correct),
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = {"environment": env, "result": result, "detail": detail, "checks": checks,
              "cli_errors": cli_errors}
    if spans is not None:
        record["spans"] = spans
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float) + "\n")

    wall = detail.get("wall", {})
    for name, (value, unit) in metrics.items():
        raw = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{raw}")
    for name, row in sorted(checks["by_check"].items()):
        print(f"check {name}: n={row['n']} worst={row['worst']:.3g} tol={row['tol']:.1e} "
              f"failed={row['failed']}")
    for error in cli_errors:
        print(f"cli: {error}")
    print(f"attempted={result['attempted']} failed={result['failed']} correct={correct} "
          f"(details in {out_path.relative_to(ROOT)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
