"""Tests of the benchmark itself: the reference values, the output checks
(each must reject a deliberately corrupted output), the seeded rounds,
the tracer and the command line.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_program()

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

from buresdiscord import discord_core, linalg  # noqa: E402

WERNER_HALF_F = 5.0 / 8.0 + np.sqrt(5.0 / 64.0)
BELL_DISCORD = 2.0 - np.sqrt(2.0)
POINTS = ref.SpherePoints(3)


def first_round(name: str, seed: int = 5) -> list:
    return next(wl.WORKLOADS[name].cases(seed))


def failing(workload: str, case, output) -> set:
    return {c.name for c in wl.WORKLOADS[workload].check(case, output, POINTS) if not c.ok}


def random_axes(n: int, seed: int = 0) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# reference values


def test_werner_half_objective():
    basis = ref.lambda_basis(wl.werner_case(0.5).rho)
    values = ref.objective(basis, random_axes(50))
    np.testing.assert_allclose(values, WERNER_HALF_F, atol=1e-14)
    lower, upper = POINTS.bounds(basis)
    assert abs(lower - WERNER_HALF_F) < 1e-14
    assert WERNER_HALF_F <= upper


def test_bell_state_discord():
    bell = ref.x_matrix(0.5, 0.0, 0.0, 0.5, 0.0, 0.5)
    basis = ref.lambda_basis(bell)
    f = ref.objective(basis, random_axes(50))
    np.testing.assert_allclose(2.0 * (1.0 - np.sqrt(f)), BELL_DISCORD, atol=1e-12)
    assert abs(2.0 * (1.0 - np.sqrt(POINTS.bounds(basis)[0])) - BELL_DISCORD) < 1e-12


@pytest.mark.parametrize("w", [0.1, 0.5, 0.9, 1.0])
def test_ollivier_zurek_matches_entropies(w):
    rho = wl.werner_case(w).rho
    j = ref.classical_correlation(rho, random_axes(5))
    np.testing.assert_allclose(j, j[0], atol=1e-13)
    assert abs(ref.mutual_information(rho) - j[0] - ref.werner_discord_oz(w)) < 1e-13


def test_certificate_bounds_a_dense_sample():
    rng = np.random.default_rng(3)
    for _ in range(5):
        basis = ref.lambda_basis(wl.sampling.random_state(rng))
        lower, upper = POINTS.bounds(basis)
        dense = ref.objective(basis, random_axes(20000, seed=1)).max()
        assert lower <= dense + 1e-12 and dense <= upper


def test_point_set_halves_antipodal_pairs():
    assert len(POINTS.verts) == 10 * 4 ** 3 + 2 and len(POINTS.half) == len(POINTS.verts) // 2
    cosines = np.einsum("ij,ij->i", POINTS.verts[POINTS.half[POINTS.to_half]], POINTS.verts)
    np.testing.assert_allclose(np.abs(cosines), 1.0, atol=1e-12)


def test_allowance_only_on_singular_states():
    rng = np.random.default_rng(4)
    assert ref.singular_allowance(wl.sampling.random_state(rng)) == 0.0
    rank2 = wl.x_case("rank2_ad_bc", wl.sampling.random_degenerate_params(rng, "ad_bc"))
    assert 0.0 < ref.singular_allowance(rank2.rho) < 1e-7


# ---------------------------------------------------------------------------
# the checks reject corrupted outputs


@pytest.fixture(scope="module")
def general_x_outputs():
    cases = first_round("general_x")
    return [(c, wl.general_x_analyse(c)) for c in cases]


@pytest.fixture(scope="module")
def five_param_outputs():
    cases = first_round("five_param_closed")
    return [(c, wl.five_param_analyse(c)) for c in cases]


@pytest.fixture(scope="module")
def flat_outputs():
    cases = first_round("flat_optima")
    return [(c, wl.flat_optima_analyse(c)) for c in cases]


def test_genuine_outputs_pass(general_x_outputs, five_param_outputs, flat_outputs):
    for name, pairs in (("general_x", general_x_outputs), ("five_param_closed", five_param_outputs)):
        for case, out in pairs:
            assert failing(name, case, out) == set(), case.kind
    for case, out in flat_outputs:
        bad = failing("flat_optima", case, out)
        if case.kind == "boundary_arc":
            assert bad <= {"family_tag"}
        else:
            assert bad == set(), case.kind


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_fidelity_off_by_1e6_fails(general_x_outputs, five_param_outputs, delta):
    for case, (cand, brute) in general_x_outputs:
        bad = dataclasses.replace(brute, fidelity=brute.fidelity + delta)
        assert "bruteforce.attained" in failing("general_x", case, (cand, bad))
    for case, out in five_param_outputs:
        if case.kind == "symmetric":
            result, chi, corr = out
            out = (dataclasses.replace(result, fidelity=result.fidelity + delta), chi, corr)
            assert "closed.attained" in failing("five_param_closed", case, out)
        else:
            f, m_opt, bound, witness, chi = out
            out = (f + delta, m_opt, bound, witness, chi)
            assert "rank2.attained" in failing("five_param_closed", case, out)


def test_ccs_with_stray_a_coherence_fails(five_param_outputs):
    for case, out in five_param_outputs:
        chi = out[1] if case.kind == "symmetric" else out[-1]
        axis = (out[0].optimal_directions[0] if case.kind == "symmetric" else out[3]).u
        normal = np.cross(axis, [0.3, 0.5, 0.7])
        normal /= np.linalg.norm(normal)
        stray = 1e-6 * np.kron(np.einsum("i,ijk->jk", normal, ref.SIGMA), ref.I2) / 4.0
        bad = (out[0], chi + stray, out[2]) if case.kind == "symmetric" else (*out[:-1], chi + stray)
        assert "ccs.dephasing" in failing("five_param_closed", case, bad)


def test_wrong_family_tag_fails(flat_outputs):
    for case, (brute, entropic) in flat_outputs:
        wrong = "free_psi" if case.family != "free_psi" else "free_sphere"
        bad = dataclasses.replace(brute, degenerate_family=wrong)
        assert "family_tag" in failing("flat_optima", case, (bad, entropic))


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_entropic_discord_off_by_1e6_fails(flat_outputs, delta):
    for case, (brute, (classical, discord)) in flat_outputs:
        bad = failing("flat_optima", case, (brute, (classical, discord + delta)))
        assert "entropic.mutual_information" in bad
        if case.kind == "werner":
            assert "entropic.ollivier_zurek" in bad


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_rounds_repeat_with_the_seed(name):
    """Same seed, same states; another seed, other states, except the
    boundary-arc states, which are the same for every seed.  No state
    repeats within a run, and the warm-up shares none with it."""
    workload = wl.WORKLOADS[name]
    a, b, c, warm = workload.cases(1), workload.cases(1), workload.cases(2), workload.cases(1, True)
    seen = set()
    for _ in range(40):
        ra, rb, rc, rw = next(a), next(b), next(c), next(warm)
        assert [x.kind for x in ra] == [x.kind for x in rb] == [x.kind for x in rc] == [x.kind for x in rw]
        assert all(np.array_equal(x.rho, y.rho) for x, y in zip(ra, rb))
        for x, y, w in zip(ra, rc, rw):
            assert np.array_equal(x.rho, y.rho) == (x.kind == "boundary_arc")
            assert not np.array_equal(x.rho, w.rho)
            seen.add(x.rho.tobytes())
    assert len(seen) == 40 * len(ra)


def test_flat_optima_states_lie_on_their_families():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = wl.boundary_params(rng)
        assert abs(abs(p.a - p.b) - abs(p.x) - abs(p.y)) < 1e-15
        gap = abs(p.a - p.b)   # |x| = t gap, |y| = (1 - t) gap, t in [0.2, 0.8]
        assert gap >= 0.05 and abs(p.x * p.y) >= 0.16 * gap**2 * (1 - 1e-12)
        assert (p.a, p.b) == (p.d, p.c)
    for _ in range(200):
        p = wl.free_psi_params(rng)
        assert p.x * p.y == 0 and abs(p.x) + abs(p.y) - abs(p.a - p.b) >= wl.FREE_PSI_MARGIN
        np.linalg.cholesky(ref.x_matrix(p.a, p.b, p.c, p.d, p.x, p.y) + 1e-12 * np.eye(4))


# ---------------------------------------------------------------------------
# speed scaling, tracer and command line


def test_scale_uses_the_bracketing_probes():
    probe = speed.SpeedProbe()
    probe.at.extend([0.0, 1.0, 2.0, 3.0])
    for part, times in zip(probe.parts, ([1.0, 2.0, 4.0, 4.0], [1.0] * 4, [0.0] * 4)):
        part.extend(times)
    np.testing.assert_allclose(probe.scale([0.5, 1.5, 2.5, -1.0, 9.0]),
                               sum(speed.PART_REFERENCE_MS) / np.array([2.5, 4.0, 5.0, 2.5, 5.0]))
    np.testing.assert_allclose(speed.startup_scale([0.1, 0.3, 0.2]),
                               speed.STARTUP_REFERENCE_S / np.array([0.2, 0.25]))


def test_tracer_wraps_importers_and_restores():
    originals = (linalg.herm_eig, discord_core.herm_eig, np.linalg.eigvalsh)
    tracer = Tracer()
    tracer.install()
    try:
        assert discord_core.herm_eig is linalg.herm_eig is not originals[0]
        rho = first_round("general_x")[1].rho
        discord_core.max_fidelity_bruteforce(rho)
    finally:
        tracer.uninstall()
    assert (linalg.herm_eig, discord_core.herm_eig, np.linalg.eigvalsh) == originals
    brute = "discord_core.max_fidelity_bruteforce"
    assert tracer.calls(brute) == 1 and tracer.rows[brute] > 64 * 128
    assert 0.0 < tracer.self_time(brute) < tracer.total(brute)


def test_import_time_parsing():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       100 |        100 | site\n"
              "import time:       900 |     120000 |   numpy\n"
              "import time:       500 |     150000 | buresdiscord\n")
    assert run.import_times_ms(stderr) == (150.1, 120.0)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_result_line(trace, kind):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "five_param_closed",
                           "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] % 4 == 0
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == \
        {(m["name"], m["unit"]) for m in bench[kind]}


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "general_x",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
