"""Measurement-level engine for the Bures geometry of two-qubit states.

For a measurement axis u on qubit A: L(u) = sqrt(rho) (sigma_u (x) I)
sqrt(rho), the fidelity objective F(u) = (1 - tr L(u) + 2 (l1 + l2))/2
(l1 >= l2 >= ... its eigenvalues) and its certified maximum over the
sphere, the reference oracle for every closed form; the closest
A-classical state from the top-two spectral projector of L(u), the exact
dephasing residual, and the two-state discrimination problem behind F(u).
An entropy-based discord is a cross-check.

Both sphere searches split the cells (arcs or spherical triangles) of
one start mesh (_start_mesh) at their midpoints (_split):
max_fidelity_bruteforce those its bound cannot drop; entropic_discord all,
ENTROPIC_SPLITS times, then those around its two best vertices (_refine).
Both objectives are even in u (L(-u) = -L(u), and -u swaps the outcomes),
so the mesh covers the upper hemisphere only.

An exactly X-shaped state (its eight off-X entries are 0.0) needs one
quarter meridian, [z, e1] with e1 = (cos psi0, sin psi0, 0), psi0 =
-arg(x y)/2, x = rho_12, y = rho_03.  Write u = (n cos psi, n sin psi, m)
and c = cos(2 psi + arg x y).  At every latitude:
- F is nondecreasing in c.  The characteristic polynomial p of L(u)
  (closed_forms.char_poly_coeffs) has dp/dc = -kappa l^2,
  kappa = 2 n^2 |x y|, so a root moves as dl/dc = kappa l^2/p'(l).  For
  full-rank rho, L(u) is congruent to sigma_u (x) I: its eigenvalues are
  a >= b > 0 > -s >= -t, g = 2F - 1 = 2(a + b) + t3 with t3 free of c,
  and dg/dc = 2 kappa (a^2/p'(a) + b^2/p'(b)), p'(a) > 0 > p'(b), has the
  sign of a^2 (b+s)(b+t) - b^2 (a+s)(a+t) = (a - b)[ab(s+t) + st(a+b)]
  >= 0.  Rank-deficient states follow by continuity.
- The conditional entropy is nonincreasing in c.  With rho's Bloch
  vectors a, b and correlation matrix T, outcome s = +-1 leaves
  p_s rho_B|s = ((1 + s u.a) I + (b + s T^T u).sigma)/4, eigenvalues
  (p_s +- r_s)/2, p_s = (1 + s u.a)/2, r_s = |b + s T^T u|/2.  For an
  X-state p_s and the z part of b + s T^T u do not depend on psi, the
  in-plane part has squared length 4 n^2 (|x|^2 + |y|^2 + 2 |x y| c), and
  at fixed p_s, p_s S(rho_B|s) falls as r_s grows.
rho commutes with sigma_z (x) sigma_z, so the rotation of u by pi about
z, and with u -> -u its z-mirror, change neither objective.  Both optima
lie on the arc; _meridian_margin covers the rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .linalg import (
    I2,
    I4,
    PAULI,
    check_density_matrix,
    fidelity,
    herm_eig,
    partial_trace_A,
    partial_trace_B,
    psd_sqrt,
    von_neumann_entropy,
)
from .states import OFF_X, bloch_form

DIRECTION_TOL = 1e-12
DEGENERATE_PROJECTOR_TOL = 1e-10
OPTIMUM_CLUSTER_TOL = 1e-7
VANISHING_PRIOR = 1e-12
FREE_FAMILY_MIN_SIN = 0.1
OPTIMA_MIN_ANGLE = 0.1     # radians, up to sign, between two reported optima

# max_fidelity_bruteforce's branch-and-bound (BNB_EPS on F), its budgets (a quarter meridian whose
# first 33 vertices all tie is flat), the most rows per eigvalsh call, the rounding of a computed g = 2F - 1
BNB_EPS = 1e-12
ARC_BUDGET = 33
FAMILY_BUDGET = 2048
MAX_EVALS = 8192
EIG_BATCH = 4096
WEYL_MARGIN = 64 * np.finfo(float).eps
ARC_ROUNDING = 64 * np.finfo(float).eps    # the arc's distance from the meridian (_meridian_margin)

# the start meshes (_start_mesh) and the equator (_detect_free_family); a cell's edges and
# children (_split), as columns of it and its midpoints
_OCTAHEDRON = np.vstack([np.eye(3)[:2], -np.eye(3)[:2], np.eye(3)[2]])   # +x, +y, -x, -y, +z
_UPPER_FACES = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
_EQUATOR = np.vstack([np.eye(3)[:2], -np.eye(3)[:1]]), np.array([[0, 1], [1, 2]])   # arcs +x, +y, -x
_EDGES = {2: [[0, 1]], 3: [[0, 1], [1, 2], [2, 0]]}
_CHILDREN = {2: np.array([[0, 2], [2, 1]]), 3: np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])}

# _refine's meshes: the start mesh split ENTROPIC_SPLITS times (edges 0.049
# to 0.076 rad), then at most ENTROPIC_REFINE levels around the two best
# vertices; THETA_AXIS and PSI_AXIS set the arcs and circles of _detect_free_family
ENTROPIC_SPLITS = 5
ENTROPIC_REFINE = 17
THETA_AXIS = np.linspace(0.0, np.pi, 64)
PSI_AXIS = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)


@dataclass(frozen=True)
class MeasurementDirection:
    """Unit Bloch vector u = (sin t cos p, sin t sin p, cos t) for the axis
    of a projective measurement on qubit A."""

    u: tuple

    def __post_init__(self):
        vec = np.asarray(self.u, dtype=float)
        if vec.shape != (3,) or not np.all(np.isfinite(vec)):
            raise InvalidParams("direction must be a finite real 3-vector")
        if abs(np.linalg.norm(vec) - 1.0) > DIRECTION_TOL:
            raise InvalidParams(f"|u| = {np.linalg.norm(vec)!r} is not 1 within {DIRECTION_TOL:.0e}")
        object.__setattr__(self, "u", tuple(float(v) for v in vec))

    @classmethod
    def from_angles(cls, theta: float, psi: float) -> "MeasurementDirection":
        st = np.sin(theta)
        return cls((st * np.cos(psi), st * np.sin(psi), np.cos(theta)))

    @property
    def theta(self) -> float:
        return float(np.arccos(np.clip(self.u[2], -1.0, 1.0)))

    @property
    def psi(self) -> float:
        angle = float(np.arctan2(self.u[1], self.u[0]))
        return angle % (2.0 * np.pi)

    def sigma(self) -> np.ndarray:
        """The 2x2 operator u . sigma."""
        return self.u[0] * PAULI[0] + self.u[1] * PAULI[1] + self.u[2] * PAULI[2]


@dataclass(frozen=True)
class DiscordResult:
    """Outcome of a fidelity maximization: F, the discord 2(1 - sqrt(F)),
    the achieving direction(s), which method produced it, and a flag for
    optima forming a continuous family ('free_psi', 'free_theta',
    'free_sphere') rather than isolated points.  fidelity_upper, set by
    max_fidelity_bruteforce only, bounds F at every axis."""

    fidelity: float
    discord: float
    optimal_directions: tuple
    method: str
    degenerate_family: str | None = None
    fidelity_upper: float | None = None


def discord_from_fidelity(f: float) -> float:
    return 2.0 * (1.0 - np.sqrt(np.clip(f, 0.0, 1.0)))


def make_result(f: float, directions, method: str, degenerate_family: str | None = None,
                fidelity_upper: float | None = None) -> DiscordResult:
    return DiscordResult(
        fidelity=float(f),
        discord=discord_from_fidelity(f),
        optimal_directions=tuple(directions),
        method=method,
        degenerate_family=degenerate_family,
        fidelity_upper=fidelity_upper,
    )


@dataclass(frozen=True)
class QsdEnsemble:
    """Two-state discrimination ensemble: priors summing to one and the
    pair of density matrices to distinguish."""

    priors: tuple
    rho0: np.ndarray
    rho1: np.ndarray

    def __post_init__(self):
        priors = tuple(float(p) for p in self.priors)
        if len(priors) != 2 or min(priors) < -VANISHING_PRIOR:
            raise InvalidParams(f"priors {priors!r} must be two non-negative numbers")
        if abs(priors[0] + priors[1] - 1.0) > 1e-10:
            raise InvalidParams(f"priors {priors!r} do not sum to 1")
        object.__setattr__(self, "priors", priors)


@dataclass(frozen=True)
class CcsResult:
    """Closest-classical-state output; unpacks as (state, fidelity_check).

    degenerate_projector marks a tie at the projector cut (second and
    third eigenvalue of L(u) equal within tolerance), in which case the
    returned state is one deterministic representative of infinitely
    many equally close states.
    """

    state: np.ndarray
    fidelity_check: float
    degenerate_projector: bool = False

    def __iter__(self):
        return iter((self.state, self.fidelity_check))


def lambda_matrix(rho, direction: MeasurementDirection) -> np.ndarray:
    """sqrt(rho) (sigma_u (x) I) sqrt(rho); Hermitian with trace u . bloch(rho_A)."""
    root = psd_sqrt(rho)
    return root @ np.kron(direction.sigma(), I2) @ root


def fidelity_at_direction(rho, direction: MeasurementDirection) -> float:
    """The objective (1 - tr L + 2 (l1 + l2))/2 at a fixed measurement axis."""
    lam = lambda_matrix(rho, direction)
    vals = herm_eig((lam + lam.conj().T) / 2.0).eigenvalues
    return float(0.5 * (1.0 - vals.sum() + 2.0 * (vals[0] + vals[1])))


# ---------------------------------------------------------------------------
# sphere search


def _directions(thetas: np.ndarray, psis: np.ndarray) -> np.ndarray:
    st = np.sin(thetas)
    return np.stack([st * np.cos(psis), st * np.sin(psis), np.cos(thetas)], axis=-1)


def _root(rho) -> np.ndarray:
    """sqrt(rho); for an exactly X-shaped rho, the roots of its inner and
    outer blocks in the X pattern, Hermitised: exactly Hermitian, X-shaped."""
    if np.any(rho[OFF_X]):
        return psd_sqrt(rho)
    root = np.zeros((4, 4), dtype=complex)
    for block in (np.ix_([1, 2], [1, 2]), np.ix_([0, 3], [0, 3])):
        root[block] = psd_sqrt(rho[block])
    return (root + root.conj().T) / 2.0


def _lambda_blocks(root) -> np.ndarray:
    """The Hermitised L(x), L(y), L(z) as (3, 4, 4), root = _root(rho)."""
    blocks = np.stack([root @ np.kron(s, I2) @ root for s in PAULI])
    return (blocks + np.conj(np.swapaxes(blocks, 1, 2))) / 2.0


def _objective_batch_factory(blocks):
    """Vectorized map from (N, 3) unit vectors to g(u) = 2 F(u) - 1, from
    the blocks of _lambda_blocks: every L(u) = u . (L(x), L(y), L(z)) is
    Hermitian by construction, and a batch is one (N, 3) @ (3, 16) product,
    eigensolved EIG_BATCH rows at a time."""
    base = blocks.reshape(3, 16)

    def objective(u: np.ndarray) -> np.ndarray:
        out = np.empty(u.shape[0])
        for lo in range(0, u.shape[0], EIG_BATCH):
            w = np.linalg.eigvalsh((u[lo:lo + EIG_BATCH] @ base).reshape(-1, 4, 4))
            out[lo:lo + EIG_BATCH] = w[:, 3] + w[:, 2] - w[:, 1] - w[:, 0]
        return out

    return objective


def _start_mesh(mat) -> tuple:
    """(verts, cells): the quarter meridian arc [z, e1] for an exactly
    X-shaped mat (rho or _root(rho); module docstring), else the four upper
    octahedron faces."""
    if np.any(mat[OFF_X]):
        return _OCTAHEDRON, _UPPER_FACES
    psi0 = -0.5 * (np.angle(mat[1, 2]) + np.angle(mat[0, 3]))
    return np.array([[0.0, 0.0, 1.0], [np.cos(psi0), np.sin(psi0), 0.0]]), np.array([[0, 1]])


def _split(verts: np.ndarray, cells: np.ndarray) -> tuple:
    """Split each cell (an arc or a spherical triangle: rows of two or three
    indices into the unit rows of verts) into two or four at its normalised
    edge midpoints.  Returns (mids, children): the new vertices, one per
    distinct edge, which take the indices after verts, and the children."""
    n, k = verts.shape[0], cells.shape[1]
    edges = np.sort(cells[:, _EDGES[k]], axis=2)
    keys, slot = np.unique(edges[..., 0] * n + edges[..., 1], return_inverse=True)
    mids = verts[keys // n] + verts[keys % n]
    mids /= np.linalg.norm(mids, axis=1)[:, None]
    return mids, np.hstack([cells, n + slot.reshape(cells.shape[0], -1)])[:, _CHILDREN[k]].reshape(-1, k)


def _meridian_margin(root) -> float:
    """A bound on max g over the sphere less max g over the quarter arc,
    g = 2F - 1 from _lambda_blocks(root), root = S = _root(rho) X-shaped.

    S is exactly Hermitian, and (S^2)_12 = S_12 (S_11 + S_22), (S^2)_03 =
    S_03 (S_00 + S_33) with factors >= 0, so the exact g of S (u . sigma
    (x) I) S peaks on the meridian at -arg(S_12 S_03)/2.  g is 1-Lipschitz
    in trace norm, and ||S (w . sigma (x) I) S||_1 <= |w| ||S||_F^2.
    - S (sigma_k (x) I) is exact; the second product and the Hermitisation
      move each entry by at most gamma_7 (P_k)_ij, P_k = |S| |sigma_k (x) I|
      |S|, gamma_7 = 7 u_r/(1 - 7 u_r), u_r = 2^-53 (Higham, Accuracy and
      Stability of Numerical Algorithms, Lemma 3.5).  A 4x4 trace norm is
      at most twice the Frobenius norm: at a unit axis g moves by at most
      e = 2 gamma_7 |(||P_k||_F)_k|.
    - psi0 (two atan2 of two ulps, a sum) and e1 (a cos, a sin) lie within
      7 eps of the meridian.  A split sets a midpoint off the plane of z
      and e1 by its parents' mean offset over h plus 3 u_r.  Arcs narrower
      than 4e-6 rad drop (w^2/8 + WEYL_MARGIN < 2 BNB_EPS), so at most 19
      splits run, the 1/h multiply to at most pi/2, and the arc stays
      within 20 * 3 u_r * pi/2 < 48 eps of that plane; 7 + 48 < 64 eps.
    The margin is 2 e (at the axis and on the arc) + ARC_ROUNDING ||S||_F^2.
    """
    u_r = np.finfo(float).eps / 2.0
    mag = np.abs(root)
    p_norms = [np.linalg.norm(mag @ np.abs(np.kron(s, I2)) @ mag) for s in PAULI]
    e = 2.0 * (7.0 * u_r / (1.0 - 7.0 * u_r)) * np.linalg.norm(p_norms)
    return float(2.0 * e + ARC_ROUNDING * np.vdot(root, root).real)


def _fine_mesh(verts: np.ndarray, cells: np.ndarray) -> tuple:
    """(verts, cells) split ENTROPIC_SPLITS times."""
    for _ in range(ENTROPIC_SPLITS):
        mids, cells = _split(verts, cells)
        verts = np.vstack([verts, mids])
    return verts, cells


def _refine(fn, verts: np.ndarray, cells: np.ndarray) -> tuple:
    """Minimize fn: (N, 3) unit rows -> (N,) over a mesh as _split takes
    it.  Each level keeps the cells that touch their two lowest vertices,
    splits them and evaluates the midpoints; it stops after ENTROPIC_REFINE
    levels, or once a level's values all lie within 1e-12 of the lowest.
    Returns (verts, vals), every evaluated vertex and its value."""
    vals = fn(verts)
    for _ in range(ENTROPIC_REFINE):
        corners = np.unique(cells)
        best = corners[np.argpartition(vals[corners], 1)[:2]]
        mids, cells = _split(verts, cells[(cells[..., None] == best).any(axis=(1, 2))])
        new = fn(mids)
        verts, vals = np.vstack([verts, mids]), np.append(vals, new)
        if np.all(new <= vals.min() + 1e-12):
            break
    return verts, vals


def _detect_free_family(objective, vals, best_u):
    """The family of maxima of g of a non-X state from its values vals at
    every evaluated point and the best point best_u: the whole sphere when
    all tie, else a psi circle through best_u, else a theta arc.  A tied
    arc through a pole is a whole meridian, so there its psi is that of the
    maximum of g on the equator: _refine of -g on the half circle [x, y, -x]."""
    floor = vals.max() - 2.0 * OPTIMUM_CLUSTER_TOL
    if np.all(vals >= floor):
        return "free_sphere"
    best = MeasurementDirection(tuple(best_u))
    if np.sin(best.theta) >= FREE_FAMILY_MIN_SIN:
        psi_opt = best.psi
        if np.all(objective(_directions(np.full_like(PSI_AXIS, best.theta), PSI_AXIS)) >= floor):
            return "free_psi"
    else:
        verts, neg = _refine(lambda u: -objective(u), *_fine_mesh(*_EQUATOR))
        psi_opt = MeasurementDirection(tuple(verts[np.argmin(neg)])).psi
    if np.all(objective(_directions(THETA_AXIS, np.full_like(THETA_AXIS, psi_opt))) >= floor):
        return "free_theta"
    return None


def _all_tie(vals) -> bool:
    return bool(np.all(vals >= vals.max() - 2.0 * OPTIMUM_CLUSTER_TOL))


def _meridian_family(objective, verts, vals) -> str | None:
    """The family of maxima of g of an X-state from vals at the arc verts
    (e1 second): the meridian is flat when all tie, and a psi circle ties
    when its lowest point, at psi0 + pi/2 (c = -1), does; tested at e1 if
    flat, else at the best vertex off the poles."""
    flat = _all_tie(vals)
    u = verts[1] if flat else verts[np.argmax(vals)]
    tied = bool(np.hypot(u[0], u[1]) >= FREE_FAMILY_MIN_SIN and objective(
        np.array([[-u[1], u[0], u[2]]]))[0] >= vals.max() - 2.0 * OPTIMUM_CLUSTER_TOL)
    return (None, "free_psi", "free_theta", "free_sphere")[2 * flat + tied]


def _triangle_bounds(verts: np.ndarray, vals: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Upper bound on g over each cell: max_i g(v_i)/h, h the distance from
    0 to the chord (|v0 + v1|/2) or plane of its unit vertices v_i, capped
    at g <= 1, plus WEYL_MARGIN."""
    if cells.shape[1] == 2:
        h = np.linalg.norm(verts[cells[:, 0]] + verts[cells[:, 1]], axis=1) / 2.0
    else:
        a, b, c = verts[cells.T]
        (px, py, pz), (qx, qy, qz) = (b - a).T, (c - a).T
        normal = np.stack([py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx], axis=1)
        h = np.abs(np.einsum("ti,ti->t", normal, a)) / np.sqrt(np.einsum("ti,ti->t", normal, normal))
    return np.minimum(vals[cells].max(axis=1) / h, 1.0) + WEYL_MARGIN


def max_fidelity_bruteforce(rho) -> DiscordResult:
    """Maximize F over all measurement axes: fidelity is F at the best
    evaluated axis, and fidelity_upper >= F at every axis.

    F = (1 + g)/2, g(u) = l1 + l2 - l3 - l4 of L(u) = the largest
    tr[(2P - I) L(u)] over rank-two projectors P: convex, even,
    nonnegative, 1-homogeneous.  So on a cell g <= max_i g(v_i)/h, h the
    distance from 0 to the chord or flat triangle of its vertices v_i.
    Each level drops the cells bounded by the best vertex plus 2 BNB_EPS
    and splits the rest.  An empty frontier certifies fidelity_upper -
    fidelity <= BNB_EPS (for the computed sqrt(rho)), plus, for an
    X-state, half its _meridian_margin.  An X-state's family comes from
    the arc (_meridian_family) when the frontier empties or ARC_BUDGET
    vertices all tie.  Other states run the free-family rules at
    FAMILY_BUDGET evaluations; a family, or a level past MAX_EVALS,
    returns the wider interval of the open cells.  Axes within
    OPTIMUM_CLUSTER_TOL of the best (for an X-state, with their z-mirrors),
    OPTIMA_MIN_ANGLE apart up to sign, are reported as pairs u, -u; a
    family gets its best vertex.
    """
    return _max_fidelity_bruteforce(check_density_matrix(rho))


def _max_fidelity_bruteforce(rho) -> DiscordResult:
    """max_fidelity_bruteforce of a validated density matrix."""
    root = _root(rho)
    objective = _objective_batch_factory(_lambda_blocks(root))
    verts, cells = _start_mesh(root)
    arc = cells.shape[1] == 2
    vals = objective(verts)
    upper, family, checked = -np.inf, None, False
    while True:
        bounds = _triangle_bounds(verts, vals, cells)
        live = bounds > vals.max() + 2.0 * BNB_EPS
        upper = max(upper, bounds.max(initial=-np.inf, where=~live))
        cells = cells[live]
        if cells.shape[0] == 0 or arc and vals.size >= ARC_BUDGET and _all_tie(vals):
            family = _meridian_family(objective, verts, vals) if arc else ("free_sphere" if _all_tie(vals) else None)
            break
        if not (arc or checked) and vals.size >= FAMILY_BUDGET:
            checked, family = True, _detect_free_family(objective, vals, verts[np.argmax(vals)])
            if family is not None:
                break
        mids, children = _split(verts, cells)
        if vals.size + mids.shape[0] > MAX_EVALS:
            break
        cells, verts, vals = children, np.vstack([verts, mids]), np.append(vals, objective(mids))

    order = np.argsort(-vals, kind="stable")
    ties = verts[order[vals[order] >= vals[order[0]] - 2.0 * OPTIMUM_CLUSTER_TOL]]
    if arc and family is None:
        ties = np.stack([ties, ties * [1.0, 1.0, -1.0]], axis=1).reshape(-1, 3)
    chosen = []
    while ties.shape[0] and not (family and chosen):
        chosen.append(ties[0])
        ties = ties[np.abs(ties @ ties[0]) < np.cos(OPTIMA_MIN_ANGLE)]
    pairs = [MeasurementDirection(tuple(sign * u)) for u in chosen for sign in (1.0, -1.0)]
    pairs.sort(key=lambda m: (round(m.theta, 9), round(m.psi, 9)))
    margin = _meridian_margin(root) if arc else 0.0
    return make_result(0.5 * (1.0 + vals.max()), pairs, "bruteforce", family,
                       fidelity_upper=float(0.5 * (1.0 + max(upper, bounds.max()) + margin)))


# ---------------------------------------------------------------------------
# closest classical state and discrimination quantities


def _outcome_projectors(direction: MeasurementDirection) -> tuple:
    """(Pi_+ (x) I, Pi_- (x) I) with Pi_+- = (I +- u . sigma)/2, the
    projectors of the measurement of qubit A along u."""
    sigma = direction.sigma()
    return np.kron((I2 + sigma) / 2.0, I2), np.kron((I2 - sigma) / 2.0, I2)


def ccs_from_measurement(rho, direction: MeasurementDirection) -> CcsResult:
    """Closest A-classical state for a fixed measurement axis.

    Projects sqrt(rho) onto the top-two spectral projector of L(u) for
    the outcome along +u and the complementary projector for -u, then
    normalizes.  The result is closest only when u is an optimal axis;
    fidelity_check reports F(rho, result) either way.
    """
    rho = check_density_matrix(rho)
    root = psd_sqrt(rho)
    lam = root @ np.kron(direction.sigma(), I2) @ root
    dec = herm_eig((lam + lam.conj().T) / 2.0)
    degenerate = abs(dec.eigenvalues[1] - dec.eigenvalues[2]) <= DEGENERATE_PROJECTOR_TOL

    top = dec.eigenvectors[:, :2]
    proj_top = top @ top.conj().T
    projectors = (proj_top, I4 - proj_top)

    chi = sum(pi @ root @ proj @ root @ pi
              for pi, proj in zip(_outcome_projectors(direction), projectors))
    chi = (chi + chi.conj().T) / 2.0
    chi /= np.trace(chi).real
    return CcsResult(chi, fidelity(rho, chi), degenerate)


def dephasing_residual(chi, direction: MeasurementDirection) -> float:
    """max |sum_k (Pi_k (x) I) chi (Pi_k (x) I) - chi|, Pi_k the projectors
    of the measurement along u: zero exactly when chi is A-classical for
    u, that is unchanged by measuring qubit A along u."""
    chi = np.asarray(chi, dtype=complex)
    return float(np.max(np.abs(sum(pi @ chi @ pi for pi in _outcome_projectors(direction)) - chi)))


def helstrom_success(ensemble: QsdEnsemble) -> float:
    """Optimal success probability for discriminating two states:
    (1 - tr H)/2 + (sum of positive eigenvalues of H), H = l0 rho0 - l1 rho1."""
    l0, l1 = ensemble.priors
    h = l0 * np.asarray(ensemble.rho0, dtype=complex) - l1 * np.asarray(ensemble.rho1, dtype=complex)
    vals = herm_eig((h + h.conj().T) / 2.0).eigenvalues
    return float(0.5 * (1.0 - vals.sum()) + np.sum(vals[vals > 0.0]))


def induced_ensemble(rho, direction: MeasurementDirection) -> QsdEnsemble:
    """Discrimination ensemble whose optimal success equals the fidelity
    objective at u: priors tr[(Pi_i (x) I) rho] and conditional states
    from sqrt(rho) (Pi_i (x) I) sqrt(rho), Pi_i the outcome projectors.

    A prior below 1e-12 is dropped: its state is replaced by I/4 at
    weight zero, so the success probability is the surviving prior.
    """
    rho = check_density_matrix(rho)
    root = psd_sqrt(rho)
    priors = []
    conds = []
    for pi in _outcome_projectors(direction):
        weight = float(np.trace(pi @ rho).real)
        if weight < VANISHING_PRIOR:
            priors.append(0.0)
            conds.append(I4 / 4.0)
            continue
        conds.append(root @ pi @ root / weight)
        priors.append(weight)
    total = priors[0] + priors[1]
    priors = (priors[0] / total, priors[1] / total)
    return QsdEnsemble(priors, conds[0], conds[1])


# ---------------------------------------------------------------------------
# entropy-based cross-checks


def mutual_information(rho) -> float:
    """S(rho_A) + S(rho_B) - S(rho) in bits."""
    return _mutual_information(check_density_matrix(rho))


def _mutual_information(rho) -> float:
    """mutual_information of a validated density matrix."""
    return (von_neumann_entropy(partial_trace_B(rho))
            + von_neumann_entropy(partial_trace_A(rho))
            - von_neumann_entropy(rho))


def _eta(w: np.ndarray) -> np.ndarray:
    """w log2 w, 0 where w <= 0."""
    return np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)


def _conditional_entropy_factory(rho):
    """Vectorized map from (N, 3) unit vectors u to the post-measurement
    average entropy sum_s p_s S(rho_B|s) for the axis-u measurement on A,
    in real arithmetic from rho's Bloch form (a, b, T): p_s rho_B|s has
    eigenvalues (p_s +- r_s)/2 (module docstring), so each outcome adds
    eta(p_s) - eta((p_s + r_s)/2) - eta((p_s - r_s)/2), eta(w) = w log2 w."""
    form, signs = bloch_form(rho), np.array([1.0, -1.0])
    a, b, t = form.c_A, form.c_B, form.T

    def objective(u: np.ndarray) -> np.ndarray:
        p = (1.0 + np.outer(u @ a, signs)) / 2.0
        r = np.linalg.norm(b + signs[:, None] * (u @ t)[:, None, :], axis=2) / 2.0
        return (_eta(p) - _eta((p + r) / 2.0) - _eta((p - r) / 2.0)).sum(axis=1)

    return objective


@functools.cache
def _entropic_mesh(arc: bool) -> tuple:
    """_fine_mesh of the _start_mesh of I4 (the arc [z, x]) or of an
    all-ones, non-X matrix (the upper hemisphere); built once, read-only."""
    mesh = _fine_mesh(*_start_mesh(I4 if arc else np.ones((4, 4))))
    for table in mesh:
        table.flags.writeable = False
    return mesh


def entropic_discord(rho) -> tuple:
    """Entropy-based classical correlation and discord.

    classical_corr = S(rho_B) - min over axes of the average conditional
    entropy of B; discord = mutual information - classical_corr.  The
    objective is not convex, so the search scans the start mesh split
    ENTROPIC_SPLITS times, 2113 vertices on the upper hemisphere or 33 on
    the quarter meridian of an X-state (_entropic_mesh), then splits the
    cells around the two best vertices (_refine).
    """
    rho = check_density_matrix(rho)
    fn = _conditional_entropy_factory(rho)
    verts, cells = _start_mesh(rho)
    arc = cells.shape[1] == 2
    mesh, mesh_cells = _entropic_mesh(arc)
    if arc:   # v -> v_x e1 + v_z z, verts = [z, e1], vertex order kept
        mesh = mesh[:, :1] * verts[1] + mesh[:, 2:] * verts[0]
    _, vals = _refine(fn, mesh, mesh_cells)
    classical = von_neumann_entropy(partial_trace_A(rho)) - float(vals.min())
    return float(classical), float(_mutual_information(rho) - classical)
