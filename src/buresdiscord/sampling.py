"""Random state and parameter generators for tests and sweeps.

Everything takes an explicit numpy Generator so runs are reproducible;
nothing here touches global RNG state.
"""

from __future__ import annotations

import numpy as np

from .states import ClassicalStateParams, XStateParams


def random_x_params(rng: np.random.Generator) -> XStateParams:
    """Valid X-state parameters: flat Dirichlet diagonal, coherences
    uniform in magnitude up to the positivity bound with uniform phase."""
    a, b, c, d = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
    x = rng.uniform(0.0, 1.0) * np.sqrt(b * c) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    y = rng.uniform(0.0, 1.0) * np.sqrt(a * d) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return XStateParams(a, b, c, d, x, y)


def random_symmetric_params(rng: np.random.Generator) -> XStateParams:
    """Random member of the a=d, b=c family."""
    a = rng.uniform(0.0, 0.5)
    b = 0.5 - a
    x = rng.uniform(0.0, 1.0) * b * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    y = rng.uniform(0.0, 1.0) * a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return XStateParams(a, b, b, a, x, y)


def random_free_psi_params(rng: np.random.Generator) -> XStateParams:
    """a=d, b=c with one coherence zero and the other above |a - b| by at
    least 0.02: the equatorial case with x y = 0, whose optima form a psi
    circle."""
    a = rng.uniform(0.05, 0.45)
    b = 0.5 - a
    size = rng.uniform(abs(a - b) + 0.02, max(a, b)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return XStateParams(a, b, b, a, size if b >= a else 0.0, 0.0 if b >= a else size)


def random_boundary_arc_params(rng: np.random.Generator) -> XStateParams:
    """a=d, b=c on the boundary |a - b| = |x| + |y| with x y != 0 and
    random phases: its optima form a theta arc through the poles."""
    while True:
        a = rng.uniform(0.05, 0.45)
        b = 0.5 - a
        gap = abs(a - b)
        ax = rng.uniform(0.2, 0.8) * gap
        ay = gap - ax
        if gap >= 0.05 and ax <= b and ay <= a:
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
            return XStateParams(a, b, b, a, ax * phases[0], ay * phases[1])


def random_degenerate_params(rng: np.random.Generator, kind: str = "bc") -> XStateParams:
    """X-states on which the rank-two closed form applies.

    kind 'bc': inner block pinned, b = c = |x|; kind 'ad': outer block
    pinned, a = d = |y| (a 'bc' state with qubit B's basis swapped);
    kind 'ad_bc': both determinant factors vanish, |x| = sqrt(bc) and
    |y| = sqrt(ad).
    """
    if kind == "bc":
        b = rng.uniform(0.05, 0.45)
        rest = 1.0 - 2.0 * b
        a = rng.uniform(0.0, rest)
        d = rest - a
        x = b * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        y = rng.uniform(0.0, 1.0) * np.sqrt(a * d) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return XStateParams(a, b, b, d, x, y)
    if kind == "ad":
        p = random_degenerate_params(rng, "bc")
        return XStateParams(p.b, p.a, p.d, p.b, p.y, p.x)
    if kind == "ad_bc":
        a, b, c, d = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
        x = np.sqrt(b * c) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        y = np.sqrt(a * d) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return XStateParams(a, b, c, d, x, y)
    raise ValueError(f"unknown kind {kind!r}")


def _unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _ball_vector(rng: np.random.Generator) -> np.ndarray:
    return _unit_vector(rng) * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)


def random_classical_params(rng: np.random.Generator) -> ClassicalStateParams:
    """Parameters of a random A-classical two-qubit state."""
    return ClassicalStateParams(
        p=rng.uniform(0.0, 0.5),
        r=tuple(_unit_vector(rng)),
        s=tuple(_ball_vector(rng)),
        t=tuple(_ball_vector(rng)),
    )


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the Bloch sphere."""
    return _unit_vector(rng)


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random two-qubit density matrix (normalized Ginibre G G^dag)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit unitary via QR with phase-fixed diagonal."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
