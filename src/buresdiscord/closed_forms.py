"""Closed-form fidelities, closest classical states, and classical
correlations for two-qubit X-states.

For the a=d, b=c family the sphere maximum is known exactly via a
three-way case split on |a-b| vs |x|+|y|.  That family is locally
equivalent to a Bell-diagonal state; the equivalence transports closest
classical states back and forth and yields the geometric classical
correlation.  For general X-states two candidate measurement axes (the
z axis and an equatorial axis with tuned azimuth) give closed-form
fidelities whose maximum lower-bounds the true optimum, exactly
attained whenever the optimal axis is axial or equatorial.  A rank-two
subfamily admits its own closed form, and the characteristic polynomial
of L(u) is available in coefficient form for any axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discord_core import MeasurementDirection, ccs_from_measurement, make_result
from .errors import InvalidParams, NotSymmetricFamily, PreconditionNotMet
from .linalg import I4, PAULI, fidelity, herm_eig
from .states import (
    XStateParams,
    bd_probs,
    is_symmetric_family,
    symmetric_to_bd,
    x_state,
)

BRANCH_TOL = 1e-12
DEGENERATE_PRECONDITION_TOL = 1e-10
FIDELITY_MATCH_TOL = 1e-8


def _arg_or_zero(z: complex) -> float:
    """Phase of z with the convention arg(0) = 0."""
    if abs(z) == 0.0:
        return 0.0
    return float(np.angle(z))


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


def _require_symmetric(params: XStateParams) -> None:
    if not is_symmetric_family(params):
        raise NotSymmetricFamily(
            f"requires a = d and b = c; got a - d = {params.a - params.d!r}, "
            f"b - c = {params.b - params.c!r}"
        )


def symmetric_fidelity(params: XStateParams) -> tuple:
    """Exact maximal fidelity for the a=d, b=c family.

    Axial case:      F = 1/2 + sqrt(a^2 - |y|^2) + sqrt(b^2 - |x|^2)
    Equatorial case: F = 1/2 + sqrt((a+|y|)(b+|x|)) + sqrt((a-|y|)(b-|x|))
    with azimuth psi = -arg(x y)/2.  On the boundary both expressions
    coincide and the optima form a theta arc (a full sphere when
    |x y| = 0).  Returns (DiscordResult, SymmetricBranch).
    """
    _require_symmetric(params)
    a, b = params.a, params.b
    ax, ay = abs(params.x), abs(params.y)
    xy_zero = ax * ay <= BRANCH_TOL
    psi_opt = (-_arg_or_zero(params.x * params.y) / 2.0) % (2.0 * np.pi)

    f_axial = 0.5 + np.sqrt(max(a * a - ay * ay, 0.0)) + np.sqrt(max(b * b - ax * ax, 0.0))
    f_equatorial = (0.5 + np.sqrt(max((a + ay) * (b + ax), 0.0))
                    + np.sqrt(max((a - ay) * (b - ax), 0.0)))
    gap = abs(a - b) - (ax + ay)

    axial_dir = MeasurementDirection((0.0, 0.0, 1.0))
    equatorial_dir = MeasurementDirection.from_angles(np.pi / 2.0, psi_opt)

    if gap > BRANCH_TOL:
        branch = SymmetricBranch("axial", xy_zero, "fixed")
        result = make_result(f_axial, [axial_dir], "symmetric_closed")
    elif gap < -BRANCH_TOL:
        family = "free_psi" if xy_zero else "fixed"
        branch = SymmetricBranch("equatorial", xy_zero, family)
        result = make_result(f_equatorial, [equatorial_dir], "symmetric_closed",
                             "free_psi" if xy_zero else None)
    else:
        family = "free_sphere" if xy_zero else "free_theta"
        branch = SymmetricBranch("boundary", xy_zero, family)
        result = make_result(max(f_axial, f_equatorial), [axial_dir, equatorial_dir],
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


def _pair_fidelity_terms(probs: np.ndarray) -> list:
    """f(m) = sqrt(p0 pm) + sqrt(pn pk) for m = 1, 2, 3."""
    out = []
    for m in (1, 2, 3):
        n, k = [i for i in (1, 2, 3) if i != m]
        out.append(np.sqrt(probs[0] * probs[m]) + np.sqrt(probs[n] * probs[k]))
    return out


def bd_transport(params: XStateParams) -> BdTransport:
    """Compute the Bell-diagonal frame of an a=d, b=c state.

    The correlation triple is (2(|x|-|y|), 2(|x|+|y|), 2(a-b)); the
    transport unitaries are diagonal phase gates (built from the
    coherence phases) composed with a fixed relative phase between the
    basis states.  q_m follows the discrimination weights

        q_m = 1/2 + (2 sqrt(pn pk) - 2 sqrt(p0 pm) + c_m)
                    / (4 sqrt(pn pk) + 4 sqrt(p0 pm) + 2).
    """
    _require_symmetric(params)
    triple = symmetric_to_bd(params)
    probs = bd_probs(triple)

    qs = []
    for m in (1, 2, 3):
        n, k = [i for i in (1, 2, 3) if i != m]
        top = 2.0 * np.sqrt(probs[n] * probs[k]) - 2.0 * np.sqrt(probs[0] * probs[m]) + triple[m - 1]
        bottom = 4.0 * np.sqrt(probs[n] * probs[k]) + 4.0 * np.sqrt(probs[0] * probs[m]) + 2.0
        qs.append(0.5 + top / bottom)

    terms = _pair_fidelity_terms(probs)
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
    construction at the optimal axis and r is ignored.
    """
    _require_symmetric(params)
    rho = x_state(params)
    result, _branch_info = symmetric_fidelity(params)
    transport = bd_transport(params)

    if transport.branch == "generic":
        ccs = ccs_from_measurement(rho, result.optimal_directions[0])
        return SymmetricCcs(ccs.state, ccs.fidelity_check, "generic",
                            branch_not_printed=r is not None)

    rv = 0.0 if r is None else float(r)
    if not -1.0 <= rv <= 1.0:
        raise InvalidParams(f"r = {rv!r} outside [-1, 1]")
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
    _require_symmetric(params)
    a, b = params.a, params.b
    ax, ay = abs(params.x), abs(params.y)
    total = (np.sqrt(max(a + ay, 0.0)) + np.sqrt(max(a - ay, 0.0))
             + np.sqrt(max(b + ax, 0.0)) + np.sqrt(max(b - ax, 0.0)))
    return float(2.0 - total), I4 / 4.0


# ---------------------------------------------------------------------------
# general X-state candidates


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


def _axial_block_vector(total: float, coherence: complex, sign: int, outer: bool) -> np.ndarray:
    """Eigenvector (total + sign*sqrt(total^2 - 4|coherence|^2), -2 conj(coherence))
    of the relevant 2x2 block of L(z), embedded in C^4; canonical basis
    fallback when the printed vector vanishes (coherence = 0)."""
    root = np.sqrt(max(total * total - 4.0 * abs(coherence) ** 2, 0.0))
    w = total + sign * root
    if outer:
        v = np.array([w, 0.0, 0.0, -2.0 * np.conj(coherence)], dtype=complex)
        fallback = 0 if sign > 0 else 3
    else:
        v = np.array([0.0, w, -2.0 * np.conj(coherence), 0.0], dtype=complex)
        fallback = 1 if sign > 0 else 2
    norm = np.linalg.norm(v)
    if norm < 1e-15:
        v = np.zeros(4, dtype=complex)
        v[fallback] = 1.0
        return v
    return v / norm


def x_ccs_z(params: XStateParams) -> np.ndarray:
    """Closest classical state for measurement along z: a diagonal state.

    Built from the eigenvectors of L(z): the two plus-branch vectors
    carry the projector for outcome +z and fill the |00>, |01> weights;
    the minus-branch vectors fill |10>, |11>.  Weights are squared
    overlaps of rho with each eigenvector over its expectation, then the
    diagonal is normalized.  Valid for any X-state, full rank or not.
    """
    rho = x_state(params)
    a, b, c, d = params.a, params.b, params.c, params.d
    diag = np.zeros(4)
    for vec in (_axial_block_vector(b + c, params.x, +1, outer=False),
                _axial_block_vector(a + d, params.y, +1, outer=True)):
        weight = np.real(vec.conj() @ rho @ vec)
        if weight < 1e-15:
            continue
        image = rho @ vec
        diag[0] += abs(image[0]) ** 2 / weight
        diag[1] += abs(image[1]) ** 2 / weight
    for vec in (_axial_block_vector(b + c, params.x, -1, outer=False),
                _axial_block_vector(a + d, params.y, -1, outer=True)):
        weight = np.real(vec.conj() @ rho @ vec)
        if weight < 1e-15:
            continue
        image = rho @ vec
        diag[2] += abs(image[2]) ** 2 / weight
        diag[3] += abs(image[3]) ** 2 / weight
    total = diag.sum()
    if total <= 0.0:
        raise InvalidParams("state has no weight in either measurement outcome")
    return np.diag(diag / total).astype(complex)


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
    h_max = 2.0 * abs(xy) + a * c + b * d
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

    Returns (DiscordResult, CandidateBreakdown).  The fidelity is a
    lower bound on the sphere maximum (the reported discord an upper
    bound on the true discord); it is exact whenever the optimal
    measurement is axial or equatorial, which covers the full a=d, b=c
    family and the full-rank reference state a=b=1/3, c=d=x=y=1/6.  It
    can be strict when the optimum sits at an interior polar angle,
    full-rank states included: random X-states show gaps up to about
    1e-3 (demos/xstate_candidates.py).
    """
    f_axial, tau, kappa = _z_terms(params)
    eq, h_max, k = _equatorial_terms(params)

    axial_dir = MeasurementDirection((0.0, 0.0, 1.0))
    equatorial_dir = MeasurementDirection.from_angles(np.pi / 2.0, eq.psi_opt)
    if f_axial >= eq.fidelity:
        chosen = "axial"
        dirs = [axial_dir]
        if eq.fidelity >= f_axial - BRANCH_TOL:
            dirs.append(equatorial_dir)
        family = None
    else:
        chosen = "equatorial"
        dirs = [equatorial_dir]
        family = "free_psi" if eq.free_psi else None
    breakdown = CandidateBreakdown(f_axial, eq.fidelity, float(h_max), float(k),
                                   float(tau), float(kappa), chosen)
    result = make_result(max(f_axial, eq.fidelity), dirs, "x_candidates", family)
    return result, breakdown


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


def _g_invariant(params: XStateParams) -> float:
    a, b, c, d = params.a, params.b, params.c, params.d
    ax2, ay2 = abs(params.x) ** 2, abs(params.y) ** 2
    return (2.0 * (a * a + b * b + c * c + d * d) - 1.0
            - 4.0 * (ax2 + ay2 - a * d - b * c)
            - 8.0 * abs(params.x * params.y))


def char_poly_coeffs(params: XStateParams, m: float, psi: float) -> CharPolyCoeffs:
    """Characteristic polynomial of L(u) at u = (sqrt(1-m^2) cos psi,
    sqrt(1-m^2) sin psi, m) in closed form.

    With n = sqrt(1-m^2) e^{i psi} and h = 2 Re(n^2 x y) + ac + bd:

        t3 = m (c + d - a - b)
        t2 = m^2 (ab - bc - ad + cd + |x|^2 + |y|^2) - h
        t1 = m [(a-d)(bc - |x|^2) + (b-c)(ad - |y|^2)]
        t0 = (ad - |y|^2)(bc - |x|^2) = det(rho)
    """
    m = float(m)
    if not -1.0 <= m <= 1.0:
        raise InvalidParams(f"m = {m!r} outside [-1, 1]")
    a, b, c, d = params.a, params.b, params.c, params.d
    ax2, ay2 = abs(params.x) ** 2, abs(params.y) ** 2
    n = np.sqrt(max(1.0 - m * m, 0.0)) * np.exp(1j * float(psi))
    h = 2.0 * np.real(n * n * params.x * params.y) + a * c + b * d
    delta = c + d - a - b
    t3 = m * delta
    t2 = m * m * (a * b - b * c - a * d + c * d + ax2 + ay2) - h
    t1 = m * ((a - d) * (b * c - ax2) + (b - c) * (a * d - ay2))
    t0 = (a * d - ay2) * (b * c - ax2)

    g = _g_invariant(params)
    m_opt = None
    if g < 0.0 and delta < 0.0:
        denom = g * g - delta * delta * g
        if denom > 0.0:
            bsum = 2.0 * abs(params.x * params.y) + a * c + b * d
            m_opt = float(-2.0 * np.sqrt(max(bsum, 0.0)) * delta / np.sqrt(denom))
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
    m = float(m)
    a, b, c, d = params.a, params.b, params.c, params.d
    g = _g_invariant(params)
    delta = c + d - a - b
    radicand = (m * m * g + 8.0 * abs(params.x * params.y)
                + 4.0 * (a * c) + 4.0 * (b * d))
    lam1 = 0.5 * (np.sqrt(max(radicand, 0.0)) - m * delta)
    return float(lam1), float(g), float(delta)


def _degenerate_preconditions(params: XStateParams) -> list:
    """Failed-condition messages; empty when the rank-two closed form applies."""
    a, b, c, d = params.a, params.b, params.c, params.d
    ax, ay = abs(params.x), abs(params.y)
    tol = DEGENERATE_PRECONDITION_TOL
    det_both = abs(a * d - ay * ay) <= tol and abs(b * c - ax * ax) <= tol
    outer_pinned = abs(a - d) <= tol and abs(ay - a) <= tol
    inner_pinned = abs(b - c) <= tol and abs(ax - b) <= tol
    if det_both or outer_pinned or inner_pinned:
        return []
    return [
        f"ad - |y|^2 = {a * d - ay * ay!r} and bc - |x|^2 = {b * c - ax * ax!r} not both 0",
        f"a = d = |y| fails: a - d = {a - d!r}, |y| - a = {ay - a!r}",
        f"b = c = |x| fails: b - c = {b - c!r}, |x| - b = {ax - b!r}",
    ]


def degenerate_fidelity(params: XStateParams) -> tuple:
    """Maximal fidelity for X-states whose L(u) has a doubly degenerate
    zero eigenvalue for every axis (vanishing determinant and t1).

    On this subfamily the azimuth-optimized objective is monotone in
    m^2, so the maximum sits at an endpoint: the z axis (m = 1) or the
    equator (m = 0).  Both endpoint values are evaluated exactly and
    the larger returned.  Returns (F, m_opt, regime) where m_opt is
    0.0, 1.0, or the pair (0.0, 1.0) on ties, and regime classifies the
    signs of (g, delta): 'axial' g>=0/delta<0, 'equatorial'
    g<=0/delta>=0, 'either_endpoint' g>=0/delta>=0, 'interior' g<0/delta<0
    (where the printed interior stationary value overshoots the true
    objective; the endpoint maximum is returned there as well).
    """
    failures = _degenerate_preconditions(params)
    if failures:
        raise PreconditionNotMet("; ".join(failures))
    f_equator = x_fidelity_equatorial(params).fidelity
    f_axis = x_fidelity_z(params)
    g = _g_invariant(params)
    delta = params.c + params.d - params.a - params.b
    if g >= 0.0 and delta < 0.0:
        regime = "axial"
    elif g <= 0.0 and delta >= 0.0:
        regime = "equatorial"
    elif g >= 0.0 and delta >= 0.0:
        regime = "either_endpoint"
    else:
        regime = "interior"
    if abs(f_axis - f_equator) <= BRANCH_TOL:
        return float(max(f_axis, f_equator)), (0.0, 1.0), regime
    if f_axis > f_equator:
        return float(f_axis), 1.0, regime
    return float(f_equator), 0.0, regime


def closed_form_discord(params: XStateParams) -> tuple:
    """Exact maximal fidelity of an X-state that has a closed form.

    Applies the a=d, b=c case analysis first, then the rank-two endpoint
    rule, and raises PreconditionNotMet for any other state.  Returns
    (DiscordResult, source, detail): source 'symmetric_fidelity' with the
    SymmetricBranch as detail, or 'degenerate_fidelity' with
    (m_opt, regime) as detail.
    """
    if is_symmetric_family(params):
        result, branch = symmetric_fidelity(params)
        return result, "symmetric_fidelity", branch
    value, m_opt, regime = degenerate_fidelity(params)
    eq = x_fidelity_equatorial(params)
    axial = MeasurementDirection((0.0, 0.0, 1.0))
    equatorial = MeasurementDirection.from_angles(np.pi / 2.0, eq.psi_opt)
    family = None
    if isinstance(m_opt, tuple):
        dirs = [axial, equatorial]
    elif m_opt == 1.0:
        dirs = [axial]
    else:
        dirs = [equatorial]
        family = "free_psi" if eq.free_psi else None
    result = make_result(value, dirs, "degenerate", family)
    return result, "degenerate_fidelity", (m_opt, regime)


def discord_upper_bound(params: XStateParams) -> tuple:
    """Upper bound 2(1 - sqrt(F_best)) on the discord of any X-state,
    F_best the better candidate axis value; exact on the a=d, b=c
    family and on the rank-two subfamily (whose closed form coincides
    with the endpoint maximum by construction).  Returns the bound and
    the witness direction achieving F_best."""
    result, _ = x_candidate_discord(params)
    return float(result.discord), result.optimal_directions[0]
