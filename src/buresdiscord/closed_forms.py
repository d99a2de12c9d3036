"""Closed-form fidelities, closest classical states, and classical
correlations for two-qubit X-states.

Two candidate measurement axes of a general X-state, z and the equator
at azimuth psi = -arg(x y)/2, give closed-form fidelities F_z and F_eq
whose maximum lower-bounds the sphere maximum, exactly attained
whenever the optimal axis is axial or equatorial.  The paper's a=d,
b=c closed form is these two values under its case labels (|a-b| vs
|x|+|y|), and its rank-two endpoint rule is their maximum under the
(g, delta) regime labels; x_candidate_discord holds the one tie rule.
The a=d, b=c family is locally equivalent to a Bell-diagonal state,
which transports closest classical states and yields the geometric
classical correlation.  The characteristic polynomial of L(u) is
available in coefficient form for any axis.  bures_discord applies
these in the paper's order and falls back to the brute-force sphere
search for every other state.

The closest classical state along any axis, z included, is
discord_core.ccs_from_measurement; symmetric_ccs adds only the paper's
printed r-families of the a=d, b=c family.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .discord_core import (
    MeasurementDirection,
    _max_fidelity_bruteforce,
    ccs_from_measurement,
    make_result,
)
from .errors import InvalidParams, PreconditionNotMet
from .linalg import I4, PAULI, check_density_matrix, fidelity, herm_eig
from .states import (
    XStateParams,
    bd_probs,
    is_symmetric_family,
    require_symmetric_family,
    symmetric_to_bd,
    x_params_from_matrix,
    x_state,
)

BRANCH_TOL = 1e-12
DEGENERATE_PRECONDITION_TOL = 1e-10
DISCORD_METHODS = ("auto", "bruteforce", "closed", "candidates")
_Z_AXIS = MeasurementDirection((0.0, 0.0, 1.0))


def _arg_or_zero(z: complex) -> float:
    """Phase of z with the convention arg(0) = 0."""
    if abs(z) == 0.0:
        return 0.0
    return float(np.angle(z))


def _unit_interval(name: str, value: float) -> float:
    """value as a float, InvalidParams unless it lies in [-1, 1] (NaN never does)."""
    value = float(value)
    if not -1.0 <= value <= 1.0:
        raise InvalidParams(f"{name} = {value!r} outside [-1, 1]")
    return value


# ---------------------------------------------------------------------------
# symmetric a=d, b=c family


@dataclass(frozen=True)
class SymmetricBranch:
    """Case analysis for the a=d, b=c family.

    case: 'axial' (|a-b| > |x|+|y|, optimum along z), 'equatorial'
    (|a-b| < |x|+|y|, optimum in the x-y plane), or 'boundary'
    (equality, a whole arc of optima).  xy_zero marks the subfamily
    |x y| = 0 where the azimuth is free.  optimal_family is one of
    'fixed', 'free_psi', 'free_theta', 'free_sphere'.
    """

    case: str
    xy_zero: bool
    optimal_family: str


def symmetric_fidelity(params: XStateParams) -> tuple:
    """Exact maximal fidelity for the a=d, b=c family: the candidate
    axes under the paper's case labels, where F_z and F_eq reduce to

    Axial case:      F = 1/2 + sqrt(a^2 - |y|^2) + sqrt(b^2 - |x|^2)
    Equatorial case: F = 1/2 + sqrt((a+|y|)(b+|x|)) + sqrt((a-|y|)(b-|x|))
    with azimuth psi = -arg(x y)/2.  On the boundary both expressions
    coincide and the optima form a theta arc (a full sphere when
    |x y| = 0).  Returns (DiscordResult, SymmetricBranch).
    """
    require_symmetric_family(params)
    return _symmetric_case(params, x_fidelity_z(params), x_fidelity_equatorial(params))


def _symmetric_case(params: XStateParams, f_axial: float, eq: EquatorialCandidate) -> tuple:
    """symmetric_fidelity from the candidate values F_z and eq of params."""
    gap = abs(params.a - params.b) - (abs(params.x) + abs(params.y))
    equatorial_dir = MeasurementDirection.from_angles(np.pi / 2.0, eq.psi_opt)
    if gap > BRANCH_TOL:
        branch = SymmetricBranch("axial", eq.free_psi, "fixed")
        result = make_result(f_axial, [_Z_AXIS], "symmetric_closed")
    elif gap < -BRANCH_TOL:
        family = "free_psi" if eq.free_psi else None
        branch = SymmetricBranch("equatorial", eq.free_psi, family or "fixed")
        result = make_result(eq.fidelity, [equatorial_dir], "symmetric_closed", family)
    else:
        family = "free_sphere" if eq.free_psi else "free_theta"
        branch = SymmetricBranch("boundary", eq.free_psi, family)
        result = make_result(max(f_axial, eq.fidelity), [_Z_AXIS, equatorial_dir],
                             "symmetric_closed", family)
    return result, branch


@dataclass(frozen=True)
class BdTransport:
    """Local-unitary transport of an a=d, b=c state to Bell-diagonal form.

    c: correlation triple of the target state; probs: its Bell-basis
    probabilities (p0, p1, p2, p3), equal to the source spectrum;
    q: the mixing weights q_1, q_2, q_3 of the closest-classical-state
    construction; m_opt: the index m maximizing sqrt(p0 pm) + sqrt(pn pk);
    branch: which printed closest-state family applies ('r_odd_pair',
    'r_even_pair', or 'generic' when neither does); u_a, u_b: the 2x2
    unitaries with (u_a (x) u_b) rho (u_a (x) u_b)^dag Bell-diagonal.
    """

    c: tuple
    probs: np.ndarray
    q: tuple
    m_opt: int
    branch: str
    u_a: np.ndarray
    u_b: np.ndarray


def bd_transport(params: XStateParams) -> BdTransport:
    """Compute the Bell-diagonal frame of an a=d, b=c state.

    The correlation triple is (2(|x|-|y|), 2(|x|+|y|), 2(a-b)); the
    transport unitaries are diagonal phase gates (built from the
    coherence phases) composed with a fixed relative phase between the
    basis states.  q_m follows the discrimination weights

        q_m = 1/2 + (2 sqrt(pn pk) - 2 sqrt(p0 pm) + c_m)
                    / (4 sqrt(pn pk) + 4 sqrt(p0 pm) + 2).
    """
    require_symmetric_family(params)
    triple = symmetric_to_bd(params)
    probs = bd_probs(triple)

    qs, terms = [], []  # terms: f(m) = sqrt(p0 pm) + sqrt(pn pk)
    for m in (1, 2, 3):
        n, k = [i for i in (1, 2, 3) if i != m]
        root_0m, root_nk = np.sqrt(probs[0] * probs[m]), np.sqrt(probs[n] * probs[k])
        top = 2.0 * root_nk - 2.0 * root_0m + triple[m - 1]
        qs.append(0.5 + top / (4.0 * root_nk + 4.0 * root_0m + 2.0))
        terms.append(root_0m + root_nk)
    m_opt = 1 + int(np.argmax(terms))

    others = [i for i in (1, 2, 3) if i != m_opt]
    if probs[0] * probs[m_opt] <= BRANCH_TOL and all(probs[i] > BRANCH_TOL for i in others):
        branch = "r_odd_pair"
    elif probs[0] * probs[m_opt] > BRANCH_TOL and probs[1] * probs[2] * probs[3] <= BRANCH_TOL:
        branch = "r_even_pair"
    else:
        branch = "generic"

    eta = _arg_or_zero(params.x)
    xi = _arg_or_zero(params.y)
    half_diff = (xi - eta) / 2.0
    half_sum = (xi + eta) / 2.0
    quarter = np.diag([np.exp(-1j * np.pi / 4.0), np.exp(1j * np.pi / 4.0)])
    u_a = quarter @ np.diag([1.0, np.exp(1j * half_sum)])
    u_b = quarter @ np.diag([1.0, np.exp(1j * half_diff)])
    return BdTransport(tuple(triple), probs, tuple(qs), m_opt, branch, u_a, u_b)


@dataclass(frozen=True)
class SymmetricCcs:
    """Closest classical state of an a=d, b=c state; unpacks as
    (state, fidelity_check).  branch_not_printed marks inputs outside
    the two families with explicit r-parameterized forms, for which the
    general projector construction was used instead (r is ignored)."""

    state: np.ndarray
    fidelity_check: float
    branch: str
    branch_not_printed: bool = False

    def __iter__(self):
        return iter((self.state, self.fidelity_check))


def _pauli_product_states(m_index: int):
    """Product basis aligned with the m-th Pauli axis on both qubits.

    Returns the four rank-one projectors P00, P11, P01, P10 built from
    the +/- eigenvectors of sigma_m.
    """
    dec = herm_eig(PAULI[m_index - 1])
    plus, minus = dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]

    def proj(va, vb):
        vec = np.kron(va, vb)
        return np.outer(vec, vec.conj())

    return proj(plus, plus), proj(minus, minus), proj(plus, minus), proj(minus, plus)


def symmetric_ccs(params: XStateParams, r: float | None = None) -> SymmetricCcs:
    """Closest classical state for the a=d, b=c family.

    When the Bell-diagonal frame satisfies one of the two printed
    degenerate-spectrum conditions, a one-parameter family chi(r),
    r in [-1, 1], of equally close states exists; r selects the member
    (default 0).  Every member achieves the case-analysis fidelity.
    Otherwise the state is built by the measurement-projector
    construction at the optimal axis and r, still required to lie in
    [-1, 1], is ignored.
    """
    require_symmetric_family(params)
    rv = _unit_interval("r", 0.0 if r is None else r)
    rho = x_state(params)
    result, _branch_info = symmetric_fidelity(params)
    transport = bd_transport(params)

    if transport.branch == "generic":
        ccs = ccs_from_measurement(rho, result.optimal_directions[0])
        return SymmetricCcs(ccs.state, ccs.fidelity_check, "generic",
                            branch_not_printed=r is not None)

    q = transport.q[transport.m_opt - 1]
    p00, p11, p01, p10 = _pauli_product_states(transport.m_opt)
    if transport.branch == "r_odd_pair":
        chi_bd = (q / 2.0) * (p00 + p11) + ((1.0 - q) / 2.0) * ((1.0 + rv) * p01 + (1.0 - rv) * p10)
    else:
        chi_bd = (q / 2.0) * ((1.0 + rv) * p00 + (1.0 - rv) * p11) + ((1.0 - q) / 2.0) * (p01 + p10)

    u_full = np.kron(transport.u_a, transport.u_b)
    chi = u_full.conj().T @ chi_bd @ u_full
    return SymmetricCcs(chi, fidelity(rho, chi), transport.branch)


def classical_correlation_symmetric(params: XStateParams) -> tuple:
    """Geometric classical correlation of an a=d, b=c state.

    C = 2 - (sqrt(a+|y|) + sqrt(a-|y|) + sqrt(b+|x|) + sqrt(b-|x|)),
    the squared Bures distance from the Bell-diagonal frame of the
    state to its closest product state I/4.  Returns (C, I/4).
    """
    require_symmetric_family(params)
    a, b = params.a, params.b
    ax, ay = abs(params.x), abs(params.y)
    total = (np.sqrt(max(a + ay, 0.0)) + np.sqrt(max(a - ay, 0.0))
             + np.sqrt(max(b + ax, 0.0)) + np.sqrt(max(b - ax, 0.0)))
    return float(2.0 - total), I4 / 4.0


# ---------------------------------------------------------------------------
# general X-state candidates


def _invariants(params: XStateParams) -> tuple:
    """(g, delta, h_max) of an X-state: the rank-two profile's
    g = 2(a^2+b^2+c^2+d^2) - 1 - 4(|x|^2+|y|^2-ad-bc) - 8|xy| and
    delta = c + d - a - b, and h_max = 2|xy| + ac + bd, the equatorial
    h at its best azimuth."""
    a, b, c, d = params.a, params.b, params.c, params.d
    ax2, ay2 = abs(params.x) ** 2, abs(params.y) ** 2
    axy = abs(params.x * params.y)
    g = (2.0 * (a * a + b * b + c * c + d * d) - 1.0
         - 4.0 * (ax2 + ay2 - a * d - b * c) - 8.0 * axy)
    return g, c + d - a - b, 2.0 * axy + a * c + b * d


def _z_terms(params: XStateParams) -> tuple:
    """(F_z, tau, kappa) with the clipped radicands tau = (b+c)^2 - 4|x|^2
    and kappa = (a+d)^2 - 4|y|^2."""
    tau = max((params.b + params.c) ** 2 - 4.0 * abs(params.x) ** 2, 0.0)
    kappa = max((params.a + params.d) ** 2 - 4.0 * abs(params.y) ** 2, 0.0)
    return float(0.5 * (1.0 + np.sqrt(tau) + np.sqrt(kappa))), tau, kappa


def x_fidelity_z(params: XStateParams) -> float:
    """Fidelity objective at the z axis:
    (1 + sqrt((b+c)^2 - 4|x|^2) + sqrt((a+d)^2 - 4|y|^2)) / 2."""
    return _z_terms(params)[0]


@dataclass(frozen=True)
class EquatorialCandidate:
    """Equatorial-axis fidelity candidate: the value, the optimizing
    azimuth (a representative 0 when every azimuth ties), and whether
    the azimuth is free."""

    fidelity: float
    psi_opt: float
    free_psi: bool


def _equatorial_terms(params: XStateParams) -> tuple:
    """(EquatorialCandidate, h_max, k) with h_max = 2|xy| + ac + bd and
    the clipped radicand k = (ad - |y|^2)(bc - |x|^2)."""
    a, b, c, d = params.a, params.b, params.c, params.d
    xy = params.x * params.y
    h_max = _invariants(params)[2]
    k = max((a * d - abs(params.y) ** 2) * (b * c - abs(params.x) ** 2), 0.0)
    f = 0.5 + np.sqrt(max(h_max + 2.0 * np.sqrt(k), 0.0))
    free = abs(xy) <= BRANCH_TOL
    psi_opt = (-_arg_or_zero(xy) / 2.0) % (2.0 * np.pi)
    return EquatorialCandidate(float(f), psi_opt, free), h_max, k


def x_fidelity_equatorial(params: XStateParams) -> EquatorialCandidate:
    """Best fidelity over axes in the x-y plane:
    F = 1/2 + sqrt(2|xy| + ac + bd + 2 sqrt((ad - |y|^2)(bc - |x|^2)))
    at azimuth psi = -arg(x y)/2; when x y = 0 the value holds for every
    azimuth."""
    return _equatorial_terms(params)[0]


@dataclass(frozen=True)
class CandidateBreakdown:
    """Both candidate fidelities with their intermediates.

    tau and kappa are the z-axis radicands (b+c)^2 - 4|x|^2 and
    (a+d)^2 - 4|y|^2; h_max and k feed the equatorial value; chosen
    names the winner ('axial' or 'equatorial')."""

    F_axial: float
    F_equatorial: float
    h_max: float
    k: float
    tau: float
    kappa: float
    chosen: str


def x_candidate_discord(params: XStateParams) -> tuple:
    """Best of the two candidate axes for a general X-state.

    Returns (DiscordResult, CandidateBreakdown).  When the two values
    agree within BRANCH_TOL both axes are listed, z first, with no
    free-family tag; this is the one tie rule between F_z and F_eq.
    The fidelity is a lower bound on the sphere maximum (the reported
    discord an upper bound on the true discord); it is exact whenever
    the optimal
    measurement is axial or equatorial, which covers the full a=d, b=c
    family and the full-rank reference state a=b=1/3, c=d=x=y=1/6.  It
    can be strict when the optimum sits at an interior polar angle,
    full-rank states included: random X-states show gaps up to about
    1e-3 (demos/xstate_candidates.py).
    """
    return _candidates(params)[:2]


def _candidates(params: XStateParams) -> tuple:
    """x_candidate_discord's (DiscordResult, CandidateBreakdown), then the
    EquatorialCandidate they were built from."""
    f_axial, tau, kappa = _z_terms(params)
    eq, h_max, k = _equatorial_terms(params)

    equatorial_dir = MeasurementDirection.from_angles(np.pi / 2.0, eq.psi_opt)
    chosen = "axial" if f_axial >= eq.fidelity else "equatorial"
    family = None
    if abs(f_axial - eq.fidelity) <= BRANCH_TOL:
        dirs = [_Z_AXIS, equatorial_dir]
    elif chosen == "axial":
        dirs = [_Z_AXIS]
    else:
        dirs = [equatorial_dir]
        family = "free_psi" if eq.free_psi else None
    breakdown = CandidateBreakdown(f_axial, eq.fidelity, float(h_max), float(k),
                                   float(tau), float(kappa), chosen)
    result = make_result(max(f_axial, eq.fidelity), dirs, "x_candidates", family)
    return result, breakdown, eq


# ---------------------------------------------------------------------------
# characteristic polynomial and the rank-two subfamily


@dataclass(frozen=True)
class CharPolyCoeffs:
    """Coefficients of det(lambda I - L(u)) = lambda^4 + t3 lambda^3 +
    t2 lambda^2 + t1 lambda + t0, plus the subfamily diagnostics g,
    delta = c + d - a - b, and the interior stationary point m_opt of
    the printed rank-two eigenvalue profile (None unless g < 0 and
    delta < 0)."""

    t3: float
    t2: float
    t1: float
    t0: float
    g: float
    delta: float
    m_opt: float | None


def char_poly_coeffs(params: XStateParams, m: float, psi: float) -> CharPolyCoeffs:
    """Characteristic polynomial of L(u) at u = (sqrt(1-m^2) cos psi,
    sqrt(1-m^2) sin psi, m) in closed form.

    With n = sqrt(1-m^2) e^{i psi} and h = 2 Re(n^2 x y) + ac + bd:

        t3 = m (c + d - a - b)
        t2 = m^2 (ab - bc - ad + cd + |x|^2 + |y|^2) - h
        t1 = m [(a-d)(bc - |x|^2) + (b-c)(ad - |y|^2)]
        t0 = (ad - |y|^2)(bc - |x|^2) = det(rho)
    """
    m = _unit_interval("m", m)
    a, b, c, d = params.a, params.b, params.c, params.d
    ax2, ay2 = abs(params.x) ** 2, abs(params.y) ** 2
    n = np.sqrt(max(1.0 - m * m, 0.0)) * np.exp(1j * float(psi))
    h = 2.0 * np.real(n * n * params.x * params.y) + a * c + b * d
    g, delta, h_max = _invariants(params)
    t3 = m * delta
    t2 = m * m * (a * b - b * c - a * d + c * d + ax2 + ay2) - h
    t1 = m * ((a - d) * (b * c - ax2) + (b - c) * (a * d - ay2))
    t0 = (a * d - ay2) * (b * c - ax2)

    m_opt = None
    if g < 0.0 and delta < 0.0:
        denom = g * g - delta * delta * g
        if denom > 0.0:
            m_opt = float(-2.0 * np.sqrt(max(h_max, 0.0)) * delta / np.sqrt(denom))
    return CharPolyCoeffs(float(t3), float(t2), float(t1), float(t0),
                          float(g), float(delta), m_opt)


def lambda1_profile(params: XStateParams, m: float) -> tuple:
    """The printed rank-two top-eigenvalue profile
    lambda1(m) = (sqrt(m^2 g + 8|xy| + 4ac + 4bd) - m delta)/2,
    returned with g and delta.

    This is closed-form arithmetic only; it represents the top
    eigenvalue of L(u) solely on the rank-two subfamily (vanishing
    determinant and t1), and even there the value at interior m need
    not be attained by the fidelity objective.
    """
    m = _unit_interval("m", m)
    g, delta, h_max = _invariants(params)
    lam1 = 0.5 * (np.sqrt(max(m * m * g + 4.0 * h_max, 0.0)) - m * delta)
    return float(lam1), float(g), float(delta)


def degenerate_fidelity(params: XStateParams) -> tuple:
    """Maximal fidelity for X-states whose L(u) has a doubly degenerate
    zero eigenvalue for every axis (vanishing determinant and t1).

    On this subfamily the azimuth-optimized objective is monotone in
    m^2, so the maximum sits at an endpoint: the z axis (m = 1) or the
    equator (m = 0), the two candidate axes.  Returns (F, m_opt, regime)
    where F is the candidate value, m_opt is 0.0, 1.0, or the pair
    (0.0, 1.0) when the candidate lists both axes, and regime classifies
    the signs of (g, delta): 'axial' g>=0/delta<0, 'equatorial'
    g<=0/delta>=0, 'either_endpoint' g>=0/delta>=0, 'interior' g<0/delta<0
    (where the printed interior stationary value overshoots the true
    objective; the endpoint maximum is returned there as well).
    """
    return _endpoint_rule(params, x_candidate_discord(params)[0])


def _endpoint_rule(params: XStateParams, candidate) -> tuple:
    """degenerate_fidelity from the candidate result of params."""
    a, b, c, d = params.a, params.b, params.c, params.d
    ax, ay = abs(params.x), abs(params.y)
    tol = DEGENERATE_PRECONDITION_TOL
    det_both = abs(a * d - ay * ay) <= tol and abs(b * c - ax * ax) <= tol
    outer_pinned = abs(a - d) <= tol and abs(ay - a) <= tol
    inner_pinned = abs(b - c) <= tol and abs(ax - b) <= tol
    if not (det_both or outer_pinned or inner_pinned):
        raise PreconditionNotMet("; ".join([
            f"ad - |y|^2 = {a * d - ay * ay!r} and bc - |x|^2 = {b * c - ax * ax!r} not both 0",
            f"a = d = |y| fails: a - d = {a - d!r}, |y| - a = {ay - a!r}",
            f"b = c = |x| fails: b - c = {b - c!r}, |x| - b = {ax - b!r}",
        ]))
    g, delta, _ = _invariants(params)
    if g >= 0.0 and delta < 0.0:
        regime = "axial"
    elif g <= 0.0 and delta >= 0.0:
        regime = "equatorial"
    elif g >= 0.0 and delta >= 0.0:
        regime = "either_endpoint"
    else:
        regime = "interior"
    dirs = candidate.optimal_directions
    m_opt = (0.0, 1.0) if len(dirs) == 2 else float(dirs[0] == _Z_AXIS)
    return candidate.fidelity, m_opt, regime


def bures_discord(rho, method: str = "auto") -> tuple:
    """Maximal fidelity of any two-qubit state by the paper's dispatch rule.

    'auto' applies the a=d, b=c case analysis, then the rank-two
    endpoint rule, and otherwise runs the brute-force sphere search
    (authoritative) next to the candidate axes.  'closed' stops after
    the two closed forms (PreconditionNotMet for any other X-state),
    'candidates' returns the candidate axes alone, and 'bruteforce' the
    sphere search alone.  Non-X input goes to the sphere search;
    'closed' and 'candidates' reject it with InvalidParams.  Every method
    first validates rho as a density matrix (NotHermitian, NotPSD).

    Returns (DiscordResult, trail, extra): trail lists the dispatch
    path; extra holds 'candidate_gap' (the result's fidelity minus the
    candidate value, None for 'candidates' and for non-X input) and then
    the 'candidates', 'symmetric_branch' or 'degenerate' block.
    """
    if method not in DISCORD_METHODS:
        raise InvalidParams(f"unknown method {method!r}; expected one of {DISCORD_METHODS}")
    rho = check_density_matrix(rho)
    try:
        params = x_params_from_matrix(rho)
    except InvalidParams:
        if method in ("closed", "candidates"):
            raise InvalidParams(f"method={method} requires an X-shaped state") from None
        return _max_fidelity_bruteforce(rho), ["bruteforce"], {"candidate_gap": None}

    candidate, breakdown, eq = _candidates(params)
    if method == "candidates":
        return candidate, ["candidates"], {"candidate_gap": None, "candidates": asdict(breakdown)}
    if method == "bruteforce":
        result, trail, block = _max_fidelity_bruteforce(rho), "bruteforce", {}
    elif is_symmetric_family(params):
        result, branch = _symmetric_case(params, breakdown.F_axial, eq)
        trail = "symmetric_family->symmetric_fidelity"
        block = {"symmetric_branch": asdict(branch)}
    else:
        try:
            _, m_opt, regime = _endpoint_rule(params, candidate)
        except PreconditionNotMet:
            if method == "closed":
                raise
            result = _max_fidelity_bruteforce(rho)
            trail = "general->candidates+bruteforce"
            block = {"candidates": asdict(breakdown)}
        else:
            # the endpoint maximum is the better candidate axis, ties included
            result = replace(candidate, method="degenerate")
            trail = "degenerate_preconditions->degenerate_fidelity"
            block = {"degenerate": {"m_opt": m_opt, "regime": regime}}
    if method == "closed":  # reached only through the two closed forms
        trail = "closed->" + trail.split("->")[1]
    return result, [trail], {"candidate_gap": result.fidelity - candidate.fidelity, **block}


def discord_upper_bound(params: XStateParams) -> tuple:
    """Upper bound 2(1 - sqrt(F_best)) on the discord of any X-state,
    F_best the better candidate axis value; exact on the a=d, b=c
    family and on the rank-two subfamily (whose closed form coincides
    with the endpoint maximum by construction).  Returns the bound and
    the witness direction achieving F_best."""
    result, _ = x_candidate_discord(params)
    return float(result.discord), result.optimal_directions[0]
