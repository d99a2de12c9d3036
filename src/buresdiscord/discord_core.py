"""Measurement-level engine for the Bures geometry of two-qubit states.

The central objects: the Hermitian matrix L(u) = sqrt(rho) (sigma_u (x) I) sqrt(rho)
for a measurement axis u on qubit A, the fidelity objective

    F(u) = (1 - tr L(u) + 2 (l1 + l2)) / 2

with l1 >= l2 >= ... the eigenvalues of L(u), its maximum over the
Bloch sphere (computed by grid scan plus simplex refinement, the
reference oracle for every closed form), the closest A-classical state
assembled from the top-two spectral projector of L(u), and the
minimal-error discrimination quantities that make F(u) a two-state
discrimination problem.  An entropy-based discord is included as an
independent cross-check path.
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

DIRECTION_TOL = 1e-12
DEGENERATE_PROJECTOR_TOL = 1e-10
OPTIMUM_CLUSTER_TOL = 1e-7
VANISHING_PRIOR = 1e-12
FREE_FAMILY_MIN_SIN = 0.1


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
class GridConfig:
    """Sphere-search resolution: n_theta x n_phi scan, then simplex
    refinement (at most refine_iters iterations) from the best 5 cells."""

    n_theta: int = 64
    n_phi: int = 128
    refine_iters: int = 200

    def __post_init__(self):
        if self.n_theta < 32 or self.n_phi < 64:
            raise InvalidParams(f"grid {self.n_theta}x{self.n_phi} below the 32x64 minimum")
        if self.refine_iters < 0:
            raise InvalidParams("refine_iters must be non-negative")


@dataclass(frozen=True)
class DiscordResult:
    """Outcome of a fidelity maximization: F, the discord 2(1 - sqrt(F)),
    the achieving direction(s), which method produced it, and a flag for
    optima forming a continuous family ('free_psi', 'free_theta',
    'free_sphere') rather than isolated points."""

    fidelity: float
    discord: float
    optimal_directions: tuple
    method: str
    degenerate_family: str | None = None


def discord_from_fidelity(f: float) -> float:
    return 2.0 * (1.0 - np.sqrt(np.clip(f, 0.0, 1.0)))


def make_result(f: float, directions, method: str, degenerate_family: str | None = None) -> DiscordResult:
    return DiscordResult(
        fidelity=float(f),
        discord=discord_from_fidelity(f),
        optimal_directions=tuple(directions),
        method=method,
        degenerate_family=degenerate_family,
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


def _objective_batch_factory(rho):
    """Vectorized map from (N, 2) angle rows to -F(u); shares sqrt(rho) work."""
    root = psd_sqrt(rho)
    base = np.stack([root @ np.kron(s, I2) @ root for s in PAULI])

    def neg_fidelity(tp: np.ndarray) -> np.ndarray:
        us = _directions(tp[:, 0], tp[:, 1])
        lam = np.einsum("ni,ijk->njk", us, base)
        lam = (lam + np.conj(np.swapaxes(lam, 1, 2))) / 2.0
        w = np.linalg.eigvalsh(lam)
        f = 0.5 * (1.0 - w.sum(axis=1) + 2.0 * (w[:, -1] + w[:, -2]))
        return -f

    return neg_fidelity


def _nelder_mead_batch(fn, starts: np.ndarray, steps, iters: int,
                       xtol: float = 1e-10, ftol: float = 1e-12):
    """Minimize fn over 2-d points, one simplex per start, all in lockstep.

    fn maps (N, 2) -> (N,).  Returns (points, values) with the best
    vertex of each simplex.
    """
    k = starts.shape[0]
    verts = np.stack([starts,
                      starts + np.array([steps[0], 0.0]),
                      starts + np.array([0.0, steps[1]])], axis=1)
    vals = fn(verts.reshape(-1, 2)).reshape(k, 3)

    for _ in range(iters):
        order = np.argsort(vals, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        verts = np.take_along_axis(verts, order[:, :, None], axis=1)

        spread = vals[:, 2] - vals[:, 0]
        diam = np.max(np.abs(verts - verts[:, :1]), axis=(1, 2))
        if np.all((spread < ftol) | (diam < xtol)):
            break

        centroid = verts[:, :2].mean(axis=1)
        worst = verts[:, 2]
        xr = 2.0 * centroid - worst
        xe = 3.0 * centroid - 2.0 * worst
        xoc = 1.5 * centroid - 0.5 * worst
        xic = 0.5 * centroid + 0.5 * worst
        fr, fe, foc, fic = fn(np.concatenate([xr, xe, xoc, xic])).reshape(4, k)

        f0, f1, f2 = vals[:, 0], vals[:, 1], vals[:, 2]
        new_vert = worst.copy()
        new_val = f2.copy()

        better_than_best = fr < f0
        expand = better_than_best & (fe < fr)
        reflect = (fr < f1) & ~expand
        out_contract = ~better_than_best & (fr >= f1) & (fr < f2) & (foc <= fr)
        in_contract = (fr >= f2) & (fic < f2)
        shrink = ~(expand | reflect | out_contract | in_contract)

        for mask, pts, fv in ((expand, xe, fe), (reflect, xr, fr),
                              (out_contract, xoc, foc), (in_contract, xic, fic)):
            new_vert[mask] = pts[mask]
            new_val[mask] = fv[mask]
        verts[:, 2] = new_vert
        vals[:, 2] = new_val

        if np.any(shrink):
            idx = np.where(shrink)[0]
            verts[idx, 1:] = verts[idx, :1] + 0.5 * (verts[idx, 1:] - verts[idx, :1])
            vals[idx, 1:] = fn(verts[idx, 1:].reshape(-1, 2)).reshape(-1, 2)

    best = np.argmin(vals, axis=1)
    return verts[np.arange(k), best], vals[np.arange(k), best]


def _sphere_minimize(fn, grid: GridConfig):
    """Grid scan plus simplex refinement of a batched objective on the sphere.

    Returns (best_value, best_angles, refined_points, refined_values,
    grid_values, theta_axis, psi_axis).
    """
    thetas = np.linspace(0.0, np.pi, grid.n_theta)
    psis = np.linspace(0.0, 2.0 * np.pi, grid.n_phi, endpoint=False)
    tg, pg = np.meshgrid(thetas, psis, indexing="ij")
    tp = np.stack([tg.ravel(), pg.ravel()], axis=1)
    grid_vals = fn(tp).reshape(grid.n_theta, grid.n_phi)

    flat = grid_vals.ravel()
    starts = tp[np.argsort(flat, kind="stable")[:5]]
    steps = (0.5 * np.pi / grid.n_theta, np.pi / grid.n_phi)
    if grid.refine_iters > 0:
        pts, vals = _nelder_mead_batch(fn, starts, steps, grid.refine_iters)
    else:
        pts, vals = starts, fn(starts)

    best_idx = int(np.argmin(vals))
    best_val, best_tp = float(vals[best_idx]), pts[best_idx]
    grid_best = float(flat.min())
    if grid_best < best_val:
        best_val = grid_best
        best_tp = tp[int(np.argmin(flat))]
    return best_val, best_tp, pts, vals, grid_vals, thetas, psis


def _canonical_angles(theta: float, psi: float) -> tuple:
    """Fold arbitrary real simplex angles into theta in [0, pi], psi in [0, 2 pi)."""
    u = _directions(np.array([theta]), np.array([psi]))[0]
    t = float(np.arccos(np.clip(u[2], -1.0, 1.0)))
    p = float(np.arctan2(u[1], u[0])) % (2.0 * np.pi)
    return t, p


def _cluster_optima(pts: np.ndarray, vals: np.ndarray, best_val: float) -> list:
    """Deduplicated directions whose refined value ties the best within tolerance."""
    chosen = []
    for tp, v in zip(pts, vals):
        if v > best_val + OPTIMUM_CLUSTER_TOL:
            continue
        t, p = _canonical_angles(tp[0], tp[1])
        d = MeasurementDirection.from_angles(t, p)
        if all(np.linalg.norm(np.subtract(d.u, e.u)) > 1e-5 for e in chosen):
            chosen.append(d)
    chosen.sort(key=lambda m: (round(m.theta, 9), round(m.psi, 9)))
    return chosen


def _detect_free_family(fn, grid_vals, thetas, psis, best_val, best_tp):
    """Classify continuous optimum families: a psi circle, a theta arc, or
    the whole sphere.  The grid decides the whole-sphere case; the circle
    and arc are re-evaluated through the refined optimum, since grid rows
    sit slightly off it."""
    if np.all(grid_vals >= best_val - OPTIMUM_CLUSTER_TOL):
        return "free_sphere"
    theta_opt, psi_opt = _canonical_angles(best_tp[0], best_tp[1])
    if np.sin(theta_opt) >= FREE_FAMILY_MIN_SIN:
        circle = -fn(np.column_stack([np.full_like(psis, theta_opt), psis]))
        if np.all(circle >= best_val - OPTIMUM_CLUSTER_TOL):
            return "free_psi"
    arc = -fn(np.column_stack([thetas, np.full_like(thetas, psi_opt)]))
    if np.all(arc >= best_val - OPTIMUM_CLUSTER_TOL):
        return "free_theta"
    return None


def max_fidelity_bruteforce(rho, grid: GridConfig = GridConfig()) -> DiscordResult:
    """Maximize the fidelity objective over all measurement axes.

    The objective is even, F(u) = F(-u), for every state: L(-u) = -L(u)
    and both sides equal (1 + l1 + l2 - l3 - l4)/2.  The scan still
    covers the full sphere, refines from the best five cells, and
    reports every refined direction tying the maximum.
    """
    rho = check_density_matrix(rho)
    fn = _objective_batch_factory(rho)
    best_val, best_tp, pts, vals, grid_vals, thetas, psis = _sphere_minimize(fn, grid)
    f_max = -best_val
    directions = _cluster_optima(pts, vals, best_val)
    if not directions:
        t, p = _canonical_angles(best_tp[0], best_tp[1])
        directions = [MeasurementDirection.from_angles(t, p)]
    family = _detect_free_family(fn, -grid_vals, thetas, psis, f_max, best_tp)
    return make_result(f_max, directions, "bruteforce", family)


# ---------------------------------------------------------------------------
# closest classical state and discrimination quantities


def _measurement_basis(direction: MeasurementDirection) -> tuple:
    """The eigenvectors (alpha0, alpha1) of u . sigma for the outcomes +u and -u."""
    theta, psi = direction.theta, direction.psi
    alpha0 = np.array([np.cos(theta / 2.0), np.exp(1j * psi) * np.sin(theta / 2.0)])
    alpha1 = np.array([-np.exp(-1j * psi) * np.sin(theta / 2.0), np.cos(theta / 2.0)])
    return alpha0, alpha1


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

    chi = np.zeros((4, 4), dtype=complex)
    for alpha, proj in zip(_measurement_basis(direction), projectors):
        sandwich = np.kron(np.outer(alpha, alpha.conj()), I2)
        chi += sandwich @ root @ proj @ root @ sandwich
    chi = (chi + chi.conj().T) / 2.0
    chi /= np.trace(chi).real
    return CcsResult(chi, fidelity(rho, chi), degenerate)


def helstrom_success(ensemble: QsdEnsemble) -> float:
    """Optimal success probability for discriminating two states:
    (1 - tr H)/2 + (sum of positive eigenvalues of H), H = l0 rho0 - l1 rho1."""
    l0, l1 = ensemble.priors
    h = l0 * np.asarray(ensemble.rho0, dtype=complex) - l1 * np.asarray(ensemble.rho1, dtype=complex)
    vals = herm_eig((h + h.conj().T) / 2.0).eigenvalues
    return float(0.5 * (1.0 - vals.sum()) + np.sum(vals[vals > 0.0]))


def induced_ensemble(rho, direction: MeasurementDirection) -> QsdEnsemble:
    """Discrimination ensemble whose optimal success equals the fidelity
    objective at u: priors <alpha_i| rho_A |alpha_i> and conditional
    states from sqrt(rho) |alpha_i><alpha_i| (x) I sqrt(rho).

    A prior below 1e-12 is dropped: its state is replaced by I/4 at
    weight zero, so the success probability is the surviving prior.
    """
    rho = check_density_matrix(rho)
    rho_a = partial_trace_B(rho)
    root = psd_sqrt(rho)
    priors = []
    conds = []
    for alpha in _measurement_basis(direction):
        weight = float(np.real(alpha.conj() @ rho_a @ alpha))
        if weight < VANISHING_PRIOR:
            priors.append(0.0)
            conds.append(I4 / 4.0)
            continue
        sandwich = np.kron(np.outer(alpha, alpha.conj()), I2)
        conds.append(root @ sandwich @ root / weight)
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
    """Vectorized map from (N, 2) angles to the post-measurement average
    entropy sum_i p_i S(rho_B|i) for the axis-u measurement on A."""
    rho = np.asarray(rho, dtype=complex)
    base = np.stack([rho @ np.kron(s, I2) for s in PAULI])

    def objective(tp: np.ndarray) -> np.ndarray:
        us = _directions(tp[:, 0], tp[:, 1])
        mixed = np.einsum("ni,ijk->njk", us, base)
        out = np.zeros(tp.shape[0])
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


def entropic_discord(rho, grid: GridConfig = GridConfig()) -> tuple:
    """Entropy-based classical correlation and discord.

    classical_corr = S(rho_B) - min over axes of the average conditional
    entropy of B; discord = mutual information - classical_corr.
    """
    rho = check_density_matrix(rho)
    fn = _conditional_entropy_factory(rho)
    best_val, _, _, _, _, _, _ = _sphere_minimize(fn, grid)
    classical = von_neumann_entropy(partial_trace_A(rho)) - best_val
    return float(classical), float(mutual_information(rho) - classical)
