"""Reference computations made apart from the program under test.

Nothing here imports buresdiscord.  Every quantity is rebuilt from the
density matrix with numpy's Hermitian eigensolvers (`eigh`, `eigvalsh`)
and closed-form 2x2 spectra:

* the objective F_ref(u) = (1 + ||L(u)||_1) / 2 with
  L(u) = sqrt(rho) (u.sigma (x) I) sqrt(rho);
* its maximum over a fixed icosahedral point set, and the convexity
  certificate over the same set: ||L(u)||_1 is convex and 1-homogeneous
  in u, so on the cone over a flat triangle with vertices v_i and
  distance h from the origin, F <= (1 + max_i ||L(v_i)||_1 / h) / 2;
* Uhlmann fidelity, dephasing along a measurement axis, von Neumann
  entropies, mutual information and the one-axis classical correlation;
* the Ollivier-Zurek discord of Werner states (PRL 88, 017901).
"""

from __future__ import annotations

import numpy as np

SIGMA = np.array([[[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SIGMA_A = np.stack([np.kron(s, I2) for s in SIGMA])

# Eigenvalues of rho within UNRESOLVED * ||rho|| of zero are below what
# a float64 eigensolver resolves; they are set to zero.  On such a state
# sqrt(rho), and with it every fidelity, is known only to about
# sqrt(UNRESOLVED * ||rho||) ~ 3e-8 (see singular_allowance).
UNRESOLVED = 8.0 * np.finfo(float).eps
# Allowance added to every vertex trace norm in the certificate for
# rounding in sqrt(rho) and the eigensolver.
CERT_ROUNDING = 1e-12


def x_matrix(a: float, b: float, c: float, d: float, x: complex, y: complex) -> np.ndarray:
    """4x4 X-state: diagonal (a, b, c, d), x at (1, 2), y at (0, 3)."""
    rho = np.diag(np.array([a, b, c, d], dtype=complex))
    rho[1, 2], rho[2, 1] = x, np.conj(x)
    rho[0, 3], rho[3, 0] = y, np.conj(y)
    return rho


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0


def psd_root(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitian(rho))
    w[w <= UNRESOLVED * np.abs(w).max()] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def singular_allowance(rho: np.ndarray) -> float:
    """Bound on the error of F_ref caused by eigenvalues of rho that are
    zero to working precision; 0 when rho is numerically full rank.

    An eigenvalue known only to eta = UNRESOLVED * ||rho|| moves sqrt(rho)
    by up to sqrt(eta) in norm (the square root is operator monotone),
    and F(u) = (1 + ||L(u)||_1)/2 by at most 2 sqrt(eta), since
    ||dR S R||_1 <= ||dR||_2 ||R||_2 and ||R||_2 = sqrt(tr rho) = 1.
    """
    w = np.linalg.eigvalsh(_hermitian(rho))
    eta = UNRESOLVED * np.abs(w).max()
    return 2.0 * float(np.sqrt(eta)) if np.abs(w).min() <= eta else 0.0


def lambda_basis(rho: np.ndarray) -> np.ndarray:
    """L(e_x), L(e_y), L(e_z); L(u) = sum_i u_i L(e_i)."""
    root = psd_root(rho)
    return np.einsum("ab,ibc,cd->iad", root, SIGMA_A, root)


def objective(basis: np.ndarray, us: np.ndarray) -> np.ndarray:
    """F_ref at each row of `us` (unit 3-vectors)."""
    return 0.5 * (1.0 + trace_norms(basis, np.atleast_2d(us)))


def trace_norms(basis: np.ndarray, us: np.ndarray) -> np.ndarray:
    lam = _hermitian(np.einsum("ni,ijk->njk", us, basis))
    return np.abs(np.linalg.eigvalsh(lam)).sum(axis=1)


class SpherePoints:
    """Vertices and triangles of an icosahedron whose faces are split in
    four, new vertices pushed to the sphere, `level` times (10 * 4**level
    + 2 vertices).  The set is centrally symmetric and ||L(-u)||_1 =
    ||L(u)||_1, so trace norms are evaluated on one vertex of each
    antipodal pair."""

    def __init__(self, level: int):
        self.level = level
        verts, faces = _icosphere(level)
        self.verts, self.faces = verts, faces
        tri = verts[faces]
        normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        self.height = (np.abs(np.einsum("ni,ni->n", normal, tri[:, 0]))
                       / np.linalg.norm(normal, axis=1))
        key = {tuple(np.round(v, 9)): i for i, v in enumerate(verts)}
        antipode = np.array([key[tuple(np.round(-v, 9))] for v in verts])
        canonical = np.arange(len(verts)) <= antipode
        self.half = np.flatnonzero(canonical)
        rep = np.where(canonical, np.arange(len(verts)), antipode)
        self.to_half = np.searchsorted(self.half, rep)

    def vertex_norms(self, basis: np.ndarray) -> np.ndarray:
        return trace_norms(basis, self.verts[self.half])[self.to_half]

    def bounds(self, basis: np.ndarray) -> tuple:
        """(max of F_ref over the vertices, certified upper bound on max F)."""
        norms = self.vertex_norms(basis)
        lower = 0.5 * (1.0 + float(norms.max()))
        per_face = (norms[self.faces].max(axis=1) + CERT_ROUNDING) / self.height
        return lower, 0.5 * (1.0 + float(per_face.max()))


def _icosphere(level: int) -> tuple:
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([[-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
                      [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
                      [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1]])
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([[0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
                      [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
                      [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
                      [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]])
    for _ in range(level):
        edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
        unique, inverse = np.unique(edges, axis=0, return_inverse=True)
        mid = verts[unique[:, 0]] + verts[unique[:, 1]]
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
        ab, bc, ca = len(verts) + inverse.reshape(3, -1)
        a, b, c = faces.T
        verts = np.concatenate([verts, mid])
        faces = np.concatenate([np.stack(tri, axis=1) for tri in
                                ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))])
    return verts, faces


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    root = psd_root(rho)
    w = np.clip(np.linalg.eigvalsh(_hermitian(root @ sigma @ root)), 0.0, None)
    return float(np.sum(np.sqrt(w)) ** 2)


def dephase(chi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum over k = +/- of (P_k (x) I) chi (P_k (x) I), P_+- = (I +- u.sigma)/2."""
    axis = np.einsum("i,ijk->jk", u, SIGMA)
    out = np.zeros_like(chi)
    for sign in (1.0, -1.0):
        proj = np.kron((I2 + sign * axis) / 2.0, I2)
        out += proj @ chi @ proj
    return out


def _entropy_of(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis, 0 log 0 = 0."""
    w = np.clip(w, 0.0, None)
    logs = np.log2(np.where(w > 0.0, w, 1.0))
    return -np.sum(w * logs, axis=-1)


def entropy(rho: np.ndarray) -> float:
    return float(_entropy_of(np.linalg.eigvalsh(_hermitian(rho))))


def reduced_states(rho: np.ndarray) -> tuple:
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r), np.einsum("ikil->kl", r)


def mutual_information(rho: np.ndarray) -> float:
    rho_a, rho_b = reduced_states(rho)
    return entropy(rho_a) + entropy(rho_b) - entropy(rho)


def _eig2(m: np.ndarray) -> np.ndarray:
    """Both eigenvalues of each Hermitian 2x2 in a (..., 2, 2) stack."""
    mean = (m[..., 0, 0].real + m[..., 1, 1].real) / 2.0
    half = (m[..., 0, 0].real - m[..., 1, 1].real) / 2.0
    rad = np.sqrt(half * half + np.abs(m[..., 0, 1]) ** 2)
    return np.stack([mean - rad, mean + rad], axis=-1)


def classical_correlation(rho: np.ndarray, us: np.ndarray) -> np.ndarray:
    """J(u) = S(rho_B) - sum_+- p_+- S(rho_B | +-) for a projective
    measurement along each row u of `us` on qubit A."""
    _, rho_b = reduced_states(rho)
    tr_a = np.stack([np.einsum("ikil->kl", (sa @ rho).reshape(2, 2, 2, 2)) for sa in SIGMA_A])
    mixed = np.einsum("ni,ikl->nkl", us, tr_a)
    total = np.zeros(len(us))
    for sign in (1.0, -1.0):
        block = (rho_b[None] + sign * mixed) / 2.0   # p * conditional state
        w = _eig2(block)
        p = w.sum(axis=-1)
        # S(p rho) = p S(rho) - p log2 p
        total += _entropy_of(w) + p * np.log2(np.where(p > 0.0, p, 1.0))
    return entropy(rho_b) - total


def werner_discord_oz(w: float) -> float:
    """Ollivier-Zurek discord of (1 - w) I/4 + w |Bell><Bell|:
    (1-w)/4 log2(1-w) - (1+w)/2 log2(1+w) + (1+3w)/4 log2(1+3w)."""
    def xlog(v):
        return v * np.log2(v) if v > 0.0 else 0.0
    return float(xlog(1.0 - w) / 4.0 - xlog(1.0 + w) / 2.0 + xlog(1.0 + 3.0 * w) / 4.0)
