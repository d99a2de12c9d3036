"""The benchmark's three workloads: seeded inputs, the timed calls into
the program, and the output checks against `reference`.

A workload yields rounds of cases; a run analyses whole rounds only, so
every kind of state keeps its share of the attempted operations.  The
program receives a density matrix built here and, where an API takes
them, the X-state parameters that matrix was built from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from buresdiscord import closed_forms, discord_core, sampling
from buresdiscord.states import XStateParams

import reference as ref

TOL_ATTAINED = 1e-9        # F equals F_ref at a reported axis
TOL_POINT_SET = 1e-9       # F >= max of F_ref over the point set - tol
TOL_DISCORD = 1e-12        # reported discord = 2 (1 - sqrt(F))
TOL_CCS_TRACE = 1e-12
TOL_CCS_PSD = 1e-12
TOL_DEPHASING = 1e-10
TOL_CCS_FIDELITY = 1e-6
TOL_CLASSICAL = 1e-12
TOL_ENTROPIC = 1e-9

# The boundary-arc states of flat_optima come from a stream of their own
# that does not depend on --seed: max_fidelity_bruteforce reports no
# family on them today, and a fault kept in a benchmark must fail on the
# same inputs whatever the seed.  Its refined optimum sits at the pole
# theta = pi, where psi is arbitrary; on the states of the stream listed
# in LUCKY_ARC_STATES that psi fell on the arc by chance and the tag came
# out right.  They are left out, so that every boundary-arc state of a
# run fails and the failed share does not depend on the run's length
# (all others of the first 1500 fail on the family tag alone).  The
# stream is never cycled, so no state repeats within a run.
FIXED_SEED = 20171
LUCKY_ARC_STATES = frozenset({43, 265})
FREE_PSI_MARGIN = 0.02     # |x| + |y| - |a - b| of the free-psi states


@dataclass(frozen=True)
class Case:
    """One state: its kind, the matrix the program analyses, the X-state
    parameters it was built from (None for non-X states), the optimum
    family it was built on, and the Werner weight where there is one."""

    kind: str
    rho: np.ndarray
    params: XStateParams | None = None
    family: str | None = None
    werner_w: float | None = None


@dataclass(frozen=True)
class Check:
    """A check passes when value <= tol."""

    name: str
    value: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.tol)


@dataclass(frozen=True)
class Workload:
    name: str
    # rounds(seeded, fixed): `seeded` draws from --seed, `fixed` is the
    # same for every seed
    rounds: Callable[[np.random.Generator, np.random.Generator], Iterator[list]]
    analyse: Callable[[Case], tuple]
    check: Callable[[Case, tuple, ref.SpherePoints], list]
    sphere_level: int      # icosphere subdivision of the reference point set
    known_fault: tuple = (None, None)   # (case kind, check) failing today by design

    def cases(self, seed: int, warm_up: bool = False) -> Iterator[list]:
        """The rounds of a run with `seed`.  The warm-up draws from other
        streams, so that no state of the timed loop is analysed before it."""
        if warm_up:
            return self.rounds(np.random.default_rng([seed, 1]), np.random.default_rng([FIXED_SEED, 1]))
        return self.rounds(np.random.default_rng(seed), np.random.default_rng(FIXED_SEED))


def x_case(kind: str, params: XStateParams, **extra) -> Case:
    rho = ref.x_matrix(params.a, params.b, params.c, params.d, params.x, params.y)
    return Case(kind, rho, params, **extra)


def _phase(rng: np.random.Generator) -> complex:
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


# ---------------------------------------------------------------------------
# shared checks


@dataclass(frozen=True)
class StateReference:
    """What the F checks of one state need: L(e_i), the point-set maximum
    and certificate, and the error allowance of F_ref on this state."""

    basis: np.ndarray
    lower: float
    upper: float
    slack: float

    @classmethod
    def of(cls, rho: np.ndarray, points: ref.SpherePoints) -> "StateReference":
        basis = ref.lambda_basis(rho)
        return cls(basis, *points.bounds(basis), ref.singular_allowance(rho))

    def at(self, axes) -> np.ndarray:
        return ref.objective(self.basis, np.array([d.u for d in axes]))


def fidelity_checks(prefix: str, f: float, axes, sr: StateReference) -> list:
    """Attained at a reported axis, not below the point-set maximum, not
    above the convexity certificate."""
    return [
        Check(f"{prefix}.attained", float(np.min(np.abs(sr.at(axes) - f))), TOL_ATTAINED + sr.slack),
        Check(f"{prefix}.point_set", sr.lower - f, TOL_POINT_SET + sr.slack),
        Check(f"{prefix}.certificate", f - sr.upper, sr.slack),
    ]


def discord_check(prefix: str, result) -> Check:
    want = 2.0 * (1.0 - np.sqrt(result.fidelity))
    return Check(f"{prefix}.discord", abs(result.discord - want), TOL_DISCORD)


def ccs_checks(rho: np.ndarray, chi: np.ndarray, axes, f: float) -> list:
    """Unit trace, PSD, unchanged by dephasing along a reported axis, and
    fidelity with rho equal to the reported F."""
    dephasing = min(float(np.max(np.abs(ref.dephase(chi, np.asarray(d.u)) - chi))) for d in axes)
    return [
        Check("ccs.trace", abs(np.trace(chi).real - 1.0), TOL_CCS_TRACE),
        Check("ccs.psd", -float(np.linalg.eigvalsh(chi).min()), TOL_CCS_PSD),
        Check("ccs.dephasing", dephasing, TOL_DEPHASING),
        Check("ccs.fidelity", abs(ref.fidelity(rho, chi) - f), TOL_CCS_FIDELITY),
    ]


# ---------------------------------------------------------------------------
# general_x: seven-parameter X-states and full-rank non-X states


def general_x_rounds(rng: np.random.Generator, fixed: np.random.Generator) -> Iterator[list]:
    while True:
        yield [x_case("x_state", sampling.random_x_params(rng)),
               Case("full_rank", sampling.random_state(rng))]


def general_x_analyse(case: Case) -> tuple:
    candidates = None
    if case.params is not None:
        candidates, _ = closed_forms.x_candidate_discord(case.params)
    return candidates, discord_core.max_fidelity_bruteforce(case.rho)


def general_x_check(case: Case, output: tuple, points: ref.SpherePoints) -> list:
    candidates, brute = output
    sr = StateReference.of(case.rho, points)
    checks = fidelity_checks("bruteforce", brute.fidelity, brute.optimal_directions, sr)
    checks.append(discord_check("bruteforce", brute))
    if candidates is not None:
        axis_values = sr.at(candidates.optimal_directions)
        checks += [
            Check("candidates.attained", float(np.min(np.abs(axis_values - candidates.fidelity))),
                  TOL_ATTAINED + sr.slack),
            Check("candidates.below_bruteforce", candidates.fidelity - brute.fidelity, TOL_ATTAINED),
            discord_check("candidates", candidates),
        ]
    return checks


# ---------------------------------------------------------------------------
# five_param_closed: the a=d, b=c family and the rank-two subfamily


def five_param_rounds(rng: np.random.Generator, fixed: np.random.Generator) -> Iterator[list]:
    while True:
        yield [x_case("symmetric", sampling.random_symmetric_params(rng)),
               x_case("rank2_bc", sampling.random_degenerate_params(rng, "bc")),
               x_case("symmetric", sampling.random_symmetric_params(rng)),
               x_case("rank2_ad_bc", sampling.random_degenerate_params(rng, "ad_bc"))]


def five_param_analyse(case: Case) -> tuple:
    p = case.params
    if case.kind == "symmetric":
        result, _ = closed_forms.symmetric_fidelity(p)
        ccs = closed_forms.symmetric_ccs(p)
        corr, _ = closed_forms.classical_correlation_symmetric(p)
        return result, ccs.state, corr
    f, m_opt, _ = closed_forms.degenerate_fidelity(p)
    bound, witness = closed_forms.discord_upper_bound(p)
    ccs = discord_core.ccs_from_measurement(case.rho, witness)
    return f, m_opt, bound, witness, ccs.state


def five_param_check(case: Case, output: tuple, points: ref.SpherePoints) -> list:
    sr = StateReference.of(case.rho, points)
    if case.kind == "symmetric":
        result, chi, corr = output
        spectrum = np.clip(np.linalg.eigvalsh(case.rho), 0.0, None)
        return [
            *fidelity_checks("closed", result.fidelity, result.optimal_directions, sr),
            discord_check("closed", result),
            *ccs_checks(case.rho, chi, result.optimal_directions, result.fidelity),
            Check("classical_correlation", abs(corr - (2.0 - np.sum(np.sqrt(spectrum)))),
                  TOL_CLASSICAL),
        ]
    f, m_opt, bound, witness, chi = output
    m_values = np.atleast_1d(np.asarray(m_opt, dtype=float))
    return [
        *fidelity_checks("rank2", f, [witness], sr),
        Check("rank2.witness_m", float(np.min(np.abs(m_values - abs(witness.u[2])))), 1e-12),
        Check("rank2.upper_bound", abs(bound - 2.0 * (1.0 - np.sqrt(f))), TOL_DISCORD),
        *ccs_checks(case.rho, chi, [witness], f),
    ]


# ---------------------------------------------------------------------------
# flat_optima: Werner states, free psi circles and free theta arcs


def werner_case(w: float) -> Case:
    rho = ref.x_matrix((1.0 + w) / 4.0, (1.0 - w) / 4.0, (1.0 - w) / 4.0, (1.0 + w) / 4.0, 0.0, w / 2.0)
    return Case("werner", rho, family="free_sphere", werner_w=w)


def free_psi_params(rng: np.random.Generator) -> XStateParams:
    """a=d, b=c with exactly one coherence, of modulus above |a - b| by at
    least FREE_PSI_MARGIN: the equatorial case with x y = 0."""
    m = FREE_PSI_MARGIN
    if rng.uniform() < 0.5:       # y = 0 needs |a - b| + m < b
        a = rng.uniform(m, (1.0 - m) / 3.0)
        b = 0.5 - a
        x = rng.uniform(abs(a - b) + m, b) * _phase(rng)
        return XStateParams(a, b, b, a, x, 0.0)
    a = rng.uniform((0.5 + m) / 3.0, 0.5 - m)   # x = 0 needs |a - b| + m < a
    b = 0.5 - a
    y = rng.uniform(abs(a - b) + m, a) * _phase(rng)
    return XStateParams(a, b, b, a, 0.0, y)


def boundary_params(rng: np.random.Generator) -> XStateParams:
    """a=d, b=c on the boundary |a - b| = |x| + |y| with both coherences
    nonzero: the optima form a theta arc at psi = -arg(x y)/2."""
    while True:
        a = rng.uniform(0.05, 0.45)
        b = 0.5 - a
        gap = abs(a - b)
        ax = rng.uniform(0.2, 0.8) * gap
        ay = gap - ax
        if gap >= 0.05 and ax <= b and ay <= a:
            return XStateParams(a, b, b, a, ax * _phase(rng), ay * _phase(rng))


def boundary_stream(fixed: np.random.Generator) -> Iterator[XStateParams]:
    for index in itertools.count():
        params = boundary_params(fixed)
        if index not in LUCKY_ARC_STATES:
            yield params


def flat_optima_rounds(rng: np.random.Generator, fixed: np.random.Generator) -> Iterator[list]:
    arcs = boundary_stream(fixed)
    while True:
        yield [werner_case(rng.uniform(0.05, 0.95)),
               x_case("free_psi", free_psi_params(rng), family="free_psi"),
               x_case("boundary_arc", next(arcs), family="free_theta")]


def flat_optima_analyse(case: Case) -> tuple:
    return (discord_core.max_fidelity_bruteforce(case.rho),
            discord_core.entropic_discord(case.rho))


def flat_optima_check(case: Case, output: tuple, points: ref.SpherePoints) -> list:
    brute, (classical, discord) = output
    half = points.verts[points.half]
    checks = [
        *fidelity_checks("bruteforce", brute.fidelity, brute.optimal_directions,
                         StateReference.of(case.rho, points)),
        discord_check("bruteforce", brute),
        Check("family_tag", float(brute.degenerate_family != case.family), 0.0),
        Check("entropic.discord_nonnegative", -discord, TOL_ENTROPIC),
        Check("entropic.classical_nonnegative", -classical, TOL_ENTROPIC),
        Check("entropic.mutual_information",
              abs(classical + discord - ref.mutual_information(case.rho)), TOL_ENTROPIC),
        Check("entropic.point_set",
              float(ref.classical_correlation(case.rho, half).max()) - classical, TOL_ENTROPIC),
    ]
    if case.werner_w is not None:
        checks.append(Check("entropic.ollivier_zurek",
                            abs(discord - ref.werner_discord_oz(case.werner_w)), TOL_ENTROPIC))
    return checks


# Why each workload: general_x has no closed form, so the sphere search
# sets its time; five_param_closed has exact closed forms and never runs
# the sphere search, so a sphere-search change should not move it;
# flat_optima's continuous optimum families defeat pruning and exercise
# the free-family check and the non-convex entropic search.  The point
# set is coarser on five_param_closed, which analyses ~30x more states.
WORKLOADS = {
    wl.name: wl for wl in (
        Workload("general_x", general_x_rounds, general_x_analyse, general_x_check,
                 sphere_level=4),
        Workload("five_param_closed", five_param_rounds, five_param_analyse, five_param_check,
                 sphere_level=3),
        Workload("flat_optima", flat_optima_rounds, flat_optima_analyse, flat_optima_check,
                 sphere_level=4, known_fault=("boundary_arc", "family_tag")),
    )
}
