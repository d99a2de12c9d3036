"""Measurement-level engine for the Bures geometry of two-qubit states.

The central objects: the Hermitian matrix L(u) = sqrt(rho) (sigma_u (x) I) sqrt(rho)
for a measurement axis u on qubit A, the fidelity objective

    F(u) = (1 - tr L(u) + 2 (l1 + l2)) / 2

with l1 >= l2 >= ... the eigenvalues of L(u), its maximum over the
Bloch sphere (a certified branch-and-bound, the reference oracle for
every closed form), the closest A-classical state assembled from the
top-two spectral projector of L(u), the exact
dephasing residual that certifies a state A-classical along an axis,
and the minimal-error discrimination quantities that make F(u) a
two-state discrimination problem.  An entropy-based discord is included
as an independent cross-check path.

Both sphere searches sample one triangle mesh: the same start mesh
(_start_mesh), refined by the same midpoint split (_split).
max_fidelity_bruteforce splits only the triangles its bound cannot drop;
entropic_discord, whose objective is not convex, splits every triangle
ENTROPIC_SPLITS times and refines its five best vertices by compass
search.  Both sphere objectives are even in u: L(-u) = -L(u) leaves F
unchanged, and -u is the same measurement with its outcomes swapped.  So
the start mesh covers the upper hemisphere only.

An exactly X-shaped state (its eight off-X entries are 0.0) has two more
symmetries, so both searches cover one octant, the one spanned by
e1 = (cos psi0, sin psi0, 0), e2 = (-sin psi0, cos psi0, 0) and e3 = z,
with psi0 = -arg(rho_12 rho_03)/2 (0 when rho_12 rho_03 = 0, where rho
is symmetric under every rotation about z).  Either objective takes the
same value at the eight sign flips of u in that frame, because:
- rho commutes with Z = sigma_z (x) sigma_z, so Z L(u) Z = L(R u) and the
  conditional states at u and R u are unitarily equivalent (R the
  rotation by pi about z);
- rho* = W^dag rho W for a diagonal product W = w_A (x) w_B,
  w_A = diag(1, e^{2 i psi0}), so L(u)* is unitarily similar to L(M u)
  and the conditional states at M u are those at u conjugated (M the
  reflection in the meridian plane at psi0);
- u -> -u, as above.
R, M and -1 generate the eight sign flips.  The certificate of
max_fidelity_bruteforce adds a per-state margin for the rounding of the
blocks L(x), L(y), L(z) that the first two use (_symmetry_margin).
"""

from __future__ import annotations

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
from .states import OFF_X

DIRECTION_TOL = 1e-12
DEGENERATE_PROJECTOR_TOL = 1e-10
OPTIMUM_CLUSTER_TOL = 1e-7
VANISHING_PRIOR = 1e-12
FREE_FAMILY_MIN_SIN = 0.1
OPTIMA_MIN_ANGLE = 0.1     # radians, up to sign, between two reported optima

# max_fidelity_bruteforce's branch-and-bound (BNB_EPS on F), its budgets, the
# most rows per eigvalsh call, and the rounding allowance of a computed g = 2F - 1
BNB_EPS = 1e-12
FAMILY_BUDGET = 2048
MAX_EVALS = 8192
EIG_BATCH = 4096
WEYL_MARGIN = 64 * np.finfo(float).eps

# the start mesh of both sphere searches (_start_mesh) and its split (_split)
_OCTAHEDRON = np.vstack([np.eye(3)[:2], -np.eye(3)[:2], np.eye(3)[2]])   # +x, +y, -x, -y, +z
_UPPER_FACES = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
_OCTANT_FACE = np.array([[0, 1, 2]])    # the rows of an octant frame
# the children of (t0, t1, t2) as columns of (t0, t1, t2, m01, m12, m20), m_ij midpoints
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])

# entropic_discord's search (its objective is not convex): the vertices of
# the start mesh split ENTROPIC_SPLITS times (edges 0.049 to 0.076 rad),
# then at most REFINE_ITERS compass-search iterations from the best five.
# THETA_AXIS and PSI_AXIS set the compass steps and the rows and arcs of
# _detect_free_family.
ENTROPIC_SPLITS = 5
THETA_AXIS = np.linspace(0.0, np.pi, 64)
PSI_AXIS = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
REFINE_ITERS = 200

# sigma_z (x) sigma_z and the sign flips of an octant frame
_ZZ = np.array([1.0, -1.0, -1.0, 1.0])
_SIGN_FLIPS = np.array([[i, j, k] for i in (1.0, -1.0) for j in (1.0, -1.0) for k in (1.0, -1.0)])


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


def _lambda_blocks(rho) -> np.ndarray:
    """The Hermitised blocks L(x), L(y), L(z) of rho as a (3, 4, 4) array."""
    root = psd_sqrt(rho)
    blocks = np.stack([root @ np.kron(s, I2) @ root for s in PAULI])
    return (blocks + np.conj(np.swapaxes(blocks, 1, 2))) / 2.0


def _objective_batch_factory(blocks):
    """Vectorized map from (N, 3) unit vectors to g(u) = 2 F(u) - 1, from
    the blocks of _lambda_blocks.

    Every L(u) = u . (L(x), L(y), L(z)) is Hermitian by construction, and
    a batch is one (N, 3) @ (3, 16) product, eigensolved EIG_BATCH rows at
    a time.
    """
    base = blocks.reshape(3, 16)

    def objective(u: np.ndarray) -> np.ndarray:
        out = np.empty(u.shape[0])
        for lo in range(0, u.shape[0], EIG_BATCH):
            w = np.linalg.eigvalsh((u[lo:lo + EIG_BATCH] @ base).reshape(-1, 4, 4))
            out[lo:lo + EIG_BATCH] = w[:, 3] + w[:, 2] - w[:, 1] - w[:, 0]
        return out

    return objective


def _x_meridian(rho):
    """psi0 = -arg(rho_12 rho_03)/2 when rho is exactly X-shaped (its eight
    off-X entries are 0.0), else None."""
    if np.any(rho[OFF_X]):
        return None
    return -0.5 * float(np.angle(rho[1, 2] * rho[0, 3]))


def _octant_frame(psi0: float) -> np.ndarray:
    """The rows e1, e2, e3 that span the octant searched for an X-state."""
    c, s = np.cos(psi0), np.sin(psi0)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _start_mesh(rho):
    """(psi0, verts, tris), the start mesh of both sphere searches: the one
    octant triangle of the frame at psi0 = _x_meridian(rho) for an exactly
    X-shaped rho, else the four upper octahedron faces (psi0 None)."""
    psi0 = _x_meridian(rho)
    if psi0 is None:
        return None, _OCTAHEDRON, _UPPER_FACES
    return psi0, _octant_frame(psi0), _OCTANT_FACE


def _split(verts: np.ndarray, tris: np.ndarray) -> tuple:
    """Split each spherical triangle (rows of indices into the unit rows of
    verts) into four at its normalised edge midpoints.  Returns (mids,
    children): the new vertices, one per distinct edge, which take the
    indices after verts, and the child triangles."""
    n = verts.shape[0]
    edges = np.sort(tris[:, [[0, 1], [1, 2], [2, 0]]], axis=2)
    keys, slot = np.unique(edges[..., 0] * n + edges[..., 1], return_inverse=True)
    mids = verts[keys // n] + verts[keys % n]
    mids /= np.linalg.norm(mids, axis=1)[:, None]
    return mids, np.hstack([tris, n + slot.reshape(-1, 3)])[:, _CHILDREN].reshape(-1, 3)


def _octant_images(points: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The eight sign flips in the frame of each (N, 3) point, as (8 N, 3)
    rows, each point's own image first."""
    return ((points @ frame.T)[:, None, :] * _SIGN_FLIPS).reshape(-1, 3) @ frame


def _symmetry_margin(rho, psi0: float, blocks: np.ndarray) -> float:
    """A bound on |g(S u) - g(u)| over the eight sign flips S of the
    octant frame at psi0, for g computed from blocks = _lambda_blocks(rho).

    g(-u) = g(u) exactly.  The residuals of Z B Z = diag(-1, -1, 1) B
    and of W B* W^dag = M B (module docstring) bound the other two
    generators: g is 1-Lipschitz in trace norm (it is a maximum of
    tr[(2P - I) L] with |2P - I| = 1), and the trace norm of a 4x4 matrix
    is at most twice its Frobenius norm.  Any S composes at most one of each.
    """
    alpha = 2.0 * psi0
    x, y = rho[1, 2], rho[0, 3]
    beta = alpha + 2.0 * np.angle(x) if x else -alpha - 2.0 * np.angle(y)
    w = np.exp(1j * np.array([0.0, beta, alpha, alpha + beta]))
    mirror = np.array([[np.cos(alpha), np.sin(alpha), 0.0],
                       [np.sin(alpha), -np.cos(alpha), 0.0],
                       [0.0, 0.0, 1.0]])
    z_res = blocks * np.outer(_ZZ, _ZZ) - np.array([-1.0, -1.0, 1.0])[:, None, None] * blocks
    w_res = w[:, None] * blocks.conj() * w.conj() - np.einsum("kj,jab->kab", mirror, blocks)
    return 2.0 * float(np.linalg.norm(z_res, axis=(1, 2)).sum() + np.linalg.norm(w_res, axis=(1, 2)).sum())


def _on_angles(fn):
    """fn of (N, 3) unit vectors as a map from (N, 2) (theta, psi) rows, for
    the compass search."""
    return lambda tp: fn(_directions(tp[:, 0], tp[:, 1]))


def _compass_batch(fn, starts: np.ndarray, steps):
    """Minimize fn over 2-d points by compass search, one search per start,
    all in lockstep.

    fn maps (N, 2) -> (N,).  The first call re-evaluates the starts; each
    later call evaluates the four moves +-h_theta, +-h_psi of every live
    start.  A start moves to its best trial point only when that point is
    strictly lower, otherwise both of its steps halve, so its value never
    rises.  A start drops out once its four trial values all lie within
    1e-12 of its value or its larger step is below 1e-10; the search
    stops after REFINE_ITERS trial calls.  Returns (points, values).
    """
    pts = np.array(starts, dtype=float)
    vals = fn(pts)
    h = np.tile(np.asarray(steps, dtype=float), (pts.shape[0], 1))
    moves = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    live = np.arange(pts.shape[0])
    for _ in range(REFINE_ITERS):
        if live.size == 0:
            break
        trials = pts[live, None] + moves * h[live, None]
        trial_vals = fn(trials.reshape(-1, 2)).reshape(-1, 4)
        pick = np.argmin(trial_vals, axis=1)
        best = trial_vals[np.arange(live.size), pick]
        flat = np.all(np.abs(trial_vals - vals[live, None]) <= 1e-12, axis=1)
        moved = best < vals[live]
        pts[live[moved]] = trials[moved, pick[moved]]
        vals[live[moved]] = best[moved]
        h[live[~moved]] /= 2.0
        live = live[~flat & (h[live].max(axis=1) >= 1e-10)]
    return pts, vals


def _detect_free_family(objective, vals, best_u):
    """Classify a family of maxima of g from its values vals at every
    evaluated point and the best point best_u: the whole sphere when all
    tie, else a psi circle through best_u, else a theta arc.  At a pole
    psi is arbitrary, so the arc's psi comes from a compass search along
    the row theta = THETA_AXIS[1], from that row's best point."""
    floor = vals.max() - 2.0 * OPTIMUM_CLUSTER_TOL
    if np.all(vals >= floor):
        return "free_sphere"
    best = MeasurementDirection(tuple(best_u))
    if np.sin(best.theta) >= FREE_FAMILY_MIN_SIN:
        psi_opt = best.psi
        if np.all(objective(_directions(np.full_like(PSI_AXIS, best.theta), PSI_AXIS)) >= floor):
            return "free_psi"
    else:
        row = objective(_directions(np.full_like(PSI_AXIS, THETA_AXIS[1]), PSI_AXIS))
        start = np.array([[THETA_AXIS[1], PSI_AXIS[np.argmax(row)]]])
        pts, _ = _compass_batch(_on_angles(lambda u: -objective(u)), start, (0.0, np.pi / PSI_AXIS.size))
        psi_opt = pts[0, 1]
    if np.all(objective(_directions(THETA_AXIS, np.full_like(THETA_AXIS, psi_opt))) >= floor):
        return "free_theta"
    return None


def _triangle_bounds(verts: np.ndarray, vals: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Upper bound on g over each spherical triangle (rows of vertex
    indices): max_i g(v_i)/h, h the distance from the origin to the plane
    of the unit vertices v_i, capped at g <= 1, plus WEYL_MARGIN."""
    a, b, c = verts[tris.T]
    (px, py, pz), (qx, qy, qz) = (b - a).T, (c - a).T
    normal = np.stack([py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx], axis=1)
    h = np.abs(np.einsum("ti,ti->t", normal, a)) / np.sqrt(np.einsum("ti,ti->t", normal, normal))
    return np.minimum(vals[tris].max(axis=1) / h, 1.0) + WEYL_MARGIN


def max_fidelity_bruteforce(rho) -> DiscordResult:
    """Maximize F over all measurement axes: fidelity is F at the best
    evaluated axis, and fidelity_upper >= F at every axis.

    F = (1 + g)/2, g(u) = l1 + l2 - l3 - l4 of L(u) = the largest
    tr[(2P - I) L(u)] over rank-two projectors P, so g is convex, even
    and positively 1-homogeneous.  On a spherical triangle, u = w/|w| with
    w on the flat triangle of its vertices v_i and |w| >= h, the plane's
    distance from 0: g(u) <= max_i g(v_i)/h.  The frontier starts as the
    octahedron's four upper faces, or, for an exactly X-shaped rho, as
    the one octant triangle of its frame (module docstring).  Each level
    drops the triangles bounded by the best vertex value plus 2 BNB_EPS,
    splits the rest into four at normalised edge midpoints and evaluates
    the new vertices in one batch.  An empty frontier certifies
    fidelity_upper - fidelity <= BNB_EPS (for the computed sqrt(rho)),
    plus, for an X-state, half its _symmetry_margin, which extends the
    octant's bound to the sphere.  At FAMILY_BUDGET evaluations the
    free-family rules run once, and a family, or a next level past
    MAX_EVALS (after a compass search from the best vertex), returns the
    honest, wider interval of the open triangles.  The axes within
    OPTIMUM_CLUSTER_TOL of the best (for an X-state, with their eight
    images), OPTIMA_MIN_ANGLE apart up to sign, are reported as pairs
    u, -u; a family gets one pair, its best vertex.
    """
    rho = check_density_matrix(rho)
    blocks = _lambda_blocks(rho)
    objective = _objective_batch_factory(blocks)
    psi0, verts, tris = _start_mesh(rho)
    margin = 0.0 if psi0 is None else _symmetry_margin(rho, psi0, blocks)
    vals = objective(verts)
    upper, family, checked = -np.inf, None, False
    while True:
        bounds = _triangle_bounds(verts, vals, tris)
        live = bounds > vals.max() + 2.0 * BNB_EPS
        upper = max(upper, bounds.max(initial=-np.inf, where=~live))
        tris = tris[live]
        if tris.shape[0] == 0:
            family = "free_sphere" if np.all(vals >= vals.max() - 2.0 * OPTIMUM_CLUSTER_TOL) else None
            break
        if not checked and vals.size >= FAMILY_BUDGET:
            checked, family = True, _detect_free_family(objective, vals, verts[np.argmax(vals)])
            if family is not None:
                break
        mids, children = _split(verts, tris)
        if vals.size + mids.shape[0] > MAX_EVALS:
            best = MeasurementDirection(tuple(verts[np.argmax(vals)]))
            step = np.linalg.norm(verts[tris[0, 0]] - verts[tris[0, 1]])
            pts, neg = _compass_batch(_on_angles(lambda u: -objective(u)), [[best.theta, best.psi]], (step, step))
            verts, vals = np.vstack([verts, _directions(pts[:, 0], pts[:, 1])]), np.append(vals, -neg)
            break
        tris, verts, vals = children, np.vstack([verts, mids]), np.append(vals, objective(mids))

    order = np.argsort(-vals, kind="stable")
    ties = verts[order[vals[order] >= vals[order[0]] - 2.0 * OPTIMUM_CLUSTER_TOL]]
    if psi0 is not None and family is None:
        ties = _octant_images(ties, _octant_frame(psi0))
    chosen = []
    while ties.shape[0] and not (family and chosen):
        chosen.append(ties[0])
        ties = ties[np.abs(ties @ ties[0]) < np.cos(OPTIMA_MIN_ANGLE)]
    pairs = [MeasurementDirection(tuple(sign * u)) for u in chosen for sign in (1.0, -1.0)]
    pairs.sort(key=lambda m: (round(m.theta, 9), round(m.psi, 9)))
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
    rho = check_density_matrix(rho)
    return (von_neumann_entropy(partial_trace_B(rho))
            + von_neumann_entropy(partial_trace_A(rho))
            - von_neumann_entropy(rho))


def _conditional_entropy_factory(rho):
    """Vectorized map from (N, 3) unit vectors u to the post-measurement
    average entropy sum_i p_i S(rho_B|i) for the axis-u measurement on A."""
    rho = np.asarray(rho, dtype=complex)
    base = np.stack([rho @ np.kron(s, I2) for s in PAULI]).reshape(3, 16)

    def objective(u: np.ndarray) -> np.ndarray:
        mixed = (u @ base).reshape(-1, 4, 4)
        out = np.zeros(u.shape[0])
        for sign in (1.0, -1.0):
            block = (rho[None, :, :] + sign * mixed) / 2.0
            r4 = block.reshape(-1, 2, 2, 2, 2)
            cond = np.einsum("nikil->nkl", r4)
            cond = (cond + np.conj(np.swapaxes(cond, 1, 2))) / 2.0
            probs = np.real(np.trace(cond, axis1=1, axis2=2))
            w = np.linalg.eigvalsh(cond)
            w = np.clip(w, 0.0, None)
            logw = np.where(w > 0.0, np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
            entropy_terms = -np.sum(w * logw, axis=1)
            # w already carries the outcome probability, so entropy_terms is
            # p * S + p * log2(p); subtract the correction
            safe = np.where(probs > 1e-15, probs, 1.0)
            out += entropy_terms + probs * np.log2(safe)
        return out

    return objective


def entropic_discord(rho) -> tuple:
    """Entropy-based classical correlation and discord.

    classical_corr = S(rho_B) - min over axes of the average conditional
    entropy of B; discord = mutual information - classical_corr.  The
    objective is not convex, so the search scans the vertices of the start
    mesh of max_fidelity_bruteforce (_start_mesh) split ENTROPIC_SPLITS
    times, 2113 on the upper hemisphere or 561 on the octant of an exactly
    X-shaped rho (the average entropy is even in u and, for an X-state,
    takes the same value at the eight sign flips; module docstring).  A
    compass search from the five best vertices, which moves only to
    strictly lower points, refines the minimum.
    """
    rho = check_density_matrix(rho)
    fn = _conditional_entropy_factory(rho)
    _, verts, tris = _start_mesh(rho)
    for _ in range(ENTROPIC_SPLITS):
        mids, tris = _split(verts, tris)
        verts = np.vstack([verts, mids])
    best = verts[np.argsort(fn(verts), kind="stable")[:5]]
    starts = [[d.theta, d.psi] for d in (MeasurementDirection(tuple(u)) for u in best)]
    steps = (0.5 * np.pi / THETA_AXIS.size, np.pi / PSI_AXIS.size)
    _, vals = _compass_batch(_on_angles(fn), starts, steps)
    classical = von_neumann_entropy(partial_trace_A(rho)) - float(vals.min())
    return float(classical), float(mutual_information(rho) - classical)
