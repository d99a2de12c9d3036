"""Two-qubit state construction and representation conversion.

Covers X-states (nonzero entries only on the diagonal and
anti-diagonal), their closed-form spectra, the a=d, b=c symmetric
family and its Bell-diagonal correlation triple, measured-basis
classical states, the Pauli/Bloch expansion, and local unitary action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotSymmetricFamily, NotUnitary
from .linalg import I2, PAULI, _as_complex, check_density_matrix

PARAM_TRACE_TOL = 1e-9
PARAM_PSD_SLACK = 1e-12
SYMMETRIC_TOL = 1e-12
UNITARY_TOL = 1e-10
X_PATTERN_TOL = 1e-10
# the eight entries off the X pattern (the diagonal and the anti-diagonal)
OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


@dataclass(frozen=True)
class XStateParams:
    """Seven-parameter X-state: diagonal (a, b, c, d), inner coherence x at
    (1,2)/(2,1) of the central block, outer coherence y at (0,3)/(3,0).

    Positivity is equivalent to |x|^2 <= b*c and |y|^2 <= a*d.
    """

    a: float
    b: float
    c: float
    d: float
    x: complex = 0.0
    y: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))
        diag = (self.a, self.b, self.c, self.d)
        for name, value in zip("abcd", diag):
            if not np.isfinite(value) or value < -PARAM_PSD_SLACK:
                raise InvalidParams(f"diagonal entry {name} = {value!r} must be non-negative")
        if not (np.isfinite(self.x.real) and np.isfinite(self.x.imag)
                and np.isfinite(self.y.real) and np.isfinite(self.y.imag)):
            raise InvalidParams("coherences must be finite")
        total = sum(diag)
        if abs(total - 1.0) > PARAM_TRACE_TOL:
            raise InvalidParams(f"diagonal sums to {total!r}, not 1 within {PARAM_TRACE_TOL:.0e}")
        if abs(self.x) ** 2 > self.b * self.c + PARAM_PSD_SLACK:
            raise InvalidParams(f"|x|^2 = {abs(self.x) ** 2!r} exceeds b*c = {self.b * self.c!r}")
        if abs(self.y) ** 2 > self.a * self.d + PARAM_PSD_SLACK:
            raise InvalidParams(f"|y|^2 = {abs(self.y) ** 2!r} exceeds a*d = {self.a * self.d!r}")


@dataclass(frozen=True)
class XSpectrum:
    """Closed-form eigensystem of an X-state.

    ``eigenvalues[i]`` pairs with ``eigenvectors[:, i]``.  Order: the
    inner b/c block's pair with the minus root first, then the outer
    a/d block's pair likewise.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class BlochForm:
    """Pauli expansion coefficients: local vectors c_A, c_B and 3x3 correlation tensor T."""

    c_A: np.ndarray
    c_B: np.ndarray
    T: np.ndarray


@dataclass(frozen=True)
class ClassicalStateParams:
    """A-classical state data: mixing weight p in [0, 1/2], measured axis r
    (unit vector) on A, and arbitrary Bloch vectors s, t for the two
    conditional states of B.
    """

    p: float
    r: tuple
    s: tuple
    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        for name in ("r", "s", "t"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise InvalidParams(f"{name} must be a finite real 3-vector")
            object.__setattr__(self, name, tuple(vec))
        if not -PARAM_PSD_SLACK <= self.p <= 0.5 + PARAM_PSD_SLACK:
            raise InvalidParams(f"p = {self.p!r} outside [0, 1/2]")
        if abs(np.linalg.norm(self.r) - 1.0) > UNITARY_TOL:
            raise InvalidParams(f"|r| = {np.linalg.norm(self.r)!r} is not 1")
        for name in ("s", "t"):
            norm = np.linalg.norm(getattr(self, name))
            if norm > 1.0 + UNITARY_TOL:
                raise InvalidParams(f"|{name}| = {norm!r} exceeds 1")


def x_state(params: XStateParams) -> np.ndarray:
    """Assemble the 4x4 density matrix of an X-state."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = params.a
    rho[1, 1] = params.b
    rho[2, 2] = params.c
    rho[3, 3] = params.d
    rho[1, 2] = params.x
    rho[2, 1] = np.conj(params.x)
    rho[0, 3] = params.y
    rho[3, 0] = np.conj(params.y)
    return rho


def x_params_from_matrix(rho) -> XStateParams:
    """Extract X-state parameters; rejects matrices with entries off the X pattern."""
    rho = _as_complex(rho)
    if rho.shape != (4, 4):
        raise InvalidParams(f"expected 4x4, got {rho.shape}")
    stray = np.max(np.abs(rho[OFF_X]))
    if stray > X_PATTERN_TOL:
        raise InvalidParams(f"entry of magnitude {stray:.3e} off the X pattern")
    if abs(rho[2, 1] - np.conj(rho[1, 2])) > X_PATTERN_TOL or abs(rho[3, 0] - np.conj(rho[0, 3])) > X_PATTERN_TOL:
        raise InvalidParams("anti-diagonal is not Hermitian")
    return XStateParams(
        a=rho[0, 0].real, b=rho[1, 1].real, c=rho[2, 2].real, d=rho[3, 3].real,
        x=rho[1, 2], y=rho[0, 3],
    )


def _pair_root(diff: float, coh_abs2: float, sign: int) -> float:
    """Stable evaluation of diff + sign*sqrt(diff^2 + 4*coh_abs2)."""
    root = np.sqrt(diff * diff + 4.0 * coh_abs2)
    if sign * diff >= 0.0:
        return diff + sign * root
    # opposite signs cancel; rationalize to avoid losing the small value
    return sign * 4.0 * coh_abs2 / (root + abs(diff))


def x_spectrum(params: XStateParams) -> XSpectrum:
    """Closed-form eigenvalues and eigenvectors of an X-state.

    The inner block gives p_{1,2} = ((b+c) -/+ sqrt((b-c)^2 + 4|x|^2))/2
    with eigenvectors spanned by |01> and |10>; the outer block gives
    p_{3,4} from a, d, |y| on |00> and |11>.  When a coherence vanishes
    the printed eigenvector degenerates to the zero vector; the matching
    canonical basis vector is substituted.
    """
    p = np.zeros(4)
    vecs = np.zeros((4, 4), dtype=complex)
    # (first column, basis pair (i, j), rho_ii, rho_jj, coherence rho_ij)
    blocks = ((0, 1, 2, params.b, params.c, params.x), (2, 0, 3, params.a, params.d, params.y))
    for col0, i, j, top, bottom, coh in blocks:
        root = np.sqrt((top - bottom) ** 2 + 4.0 * abs(coh) ** 2)
        p[col0] = 0.5 * ((top + bottom) - root)
        p[col0 + 1] = 0.5 * ((top + bottom) + root)
        for col, sign in ((col0, -1), (col0 + 1, +1)):
            v = np.zeros(4, dtype=complex)
            v[i] = _pair_root(top - bottom, abs(coh) ** 2, sign)
            v[j] = 2.0 * np.conj(coh)
            norm = np.linalg.norm(v)
            if norm < 1e-15:
                # coh == 0: eigenvalue pair is {top, bottom}; minus root is the smaller
                v = np.zeros(4, dtype=complex)
                v[j if (top >= bottom) == (sign < 0) else i] = 1.0
                norm = 1.0
            vecs[:, col] = v / norm
    if p.min() < -PARAM_PSD_SLACK:
        raise InvalidParams(f"negative eigenvalue {p.min():.3e}")
    return XSpectrum(p, vecs)


# sigma_i (x) sigma_j at [i, j], sigma_0 = I: the Pauli basis of the Bloch form
_BASIS = np.stack([I2, *PAULI])
_PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", _BASIS, _BASIS).reshape(4, 4, 4, 4)
_PAULI_PAIRS.flags.writeable = False


def bloch_form(rho) -> BlochForm:
    """Pauli expansion coefficients of a two-qubit state, tr[rho sigma_i (x)
    sigma_j], by one contraction with the Pauli basis."""
    coeffs = np.einsum("ijkl,lk->ij", _PAULI_PAIRS, _as_complex(rho)).real
    return BlochForm(coeffs[1:, 0], coeffs[0, 1:], coeffs[1:, 1:])


def from_bloch(form: BlochForm) -> np.ndarray:
    """Rebuild the 4x4 matrix from Pauli coefficients (inverse of bloch_form)."""
    for name, arr, shape in (("c_A", form.c_A, (3,)), ("c_B", form.c_B, (3,)), ("T", form.T, (3, 3))):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != shape:
            raise InvalidParams(f"{name} must have shape {shape}")
        if np.max(np.abs(arr)) > 1.0 + PARAM_PSD_SLACK:
            raise InvalidParams(f"{name} has an entry outside [-1, 1]")
    coeffs = np.vstack([np.r_[1.0, form.c_B], np.column_stack([form.c_A, form.T])])
    return np.einsum("ij,ijkl->kl", coeffs, _PAULI_PAIRS) / 4.0


def _qubit_state(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    return (I2 + vec[0] * PAULI[0] + vec[1] * PAULI[1] + vec[2] * PAULI[2]) / 2.0


def classical_state(params: ClassicalStateParams) -> np.ndarray:
    """Assemble p * P(r) (x) rho_s + (1-p) * P(-r) (x) rho_t.

    P(+/-r) are the orthogonal projectors along the measured axis r on
    subsystem A; the output has zero discord by construction.
    """
    proj0 = _qubit_state(params.r)
    proj1 = _qubit_state(tuple(-v for v in params.r))
    rho = params.p * np.kron(proj0, _qubit_state(params.s))
    rho += (1.0 - params.p) * np.kron(proj1, _qubit_state(params.t))
    return check_density_matrix(rho, "classical state")


def local_unitary(rho, u_a, u_b) -> np.ndarray:
    """Conjugate by U_A (x) U_B after checking unitarity of both factors."""
    rho = _as_complex(rho)
    u_a = _as_complex(u_a)
    u_b = _as_complex(u_b)
    for name, u in (("U_A", u_a), ("U_B", u_b)):
        dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if dev > UNITARY_TOL:
            raise NotUnitary(f"{name}: max |U^dag U - I| = {dev:.3e}")
    u_full = np.kron(u_a, u_b)
    return u_full @ rho @ u_full.conj().T


def is_symmetric_family(params: XStateParams) -> bool:
    """True when a = d and b = c within SYMMETRIC_TOL."""
    return abs(params.a - params.d) <= SYMMETRIC_TOL and abs(params.b - params.c) <= SYMMETRIC_TOL


def require_symmetric_family(params: XStateParams) -> None:
    """Raise NotSymmetricFamily unless the state is in the a=d, b=c family."""
    if not is_symmetric_family(params):
        raise NotSymmetricFamily(
            f"requires a = d and b = c; got a - d = {params.a - params.d!r}, b - c = {params.b - params.c!r}"
        )


def symmetric_to_bd(params: XStateParams) -> tuple:
    """Correlation triple (c1, c2, c3) of the Bell-diagonal state locally
    equivalent to an a=d, b=c X-state.

    c1 = 2(|x| - |y|) carries a sign: the triple must reproduce the
    state's spectrum through p_0 = (1 - c1 - c2 - c3)/4 and
    p_i = (1 + c1 + c2 + c3 - 2 c_i)/4, which fails for |y| > |x| if the
    first component is folded to its absolute value.
    """
    require_symmetric_family(params)
    return (
        2.0 * (abs(params.x) - abs(params.y)),
        2.0 * (abs(params.x) + abs(params.y)),
        2.0 * (params.a - params.b),
    )


def bd_probs(triple) -> np.ndarray:
    """Bell-basis probabilities (p0, p1, p2, p3) of a correlation triple."""
    c1, c2, c3 = (float(v) for v in triple)
    s = c1 + c2 + c3
    p = np.array([
        (1.0 - s) / 4.0,
        (1.0 + s - 2.0 * c1) / 4.0,
        (1.0 + s - 2.0 * c2) / 4.0,
        (1.0 + s - 2.0 * c3) / 4.0,
    ])
    if p.min() < -PARAM_PSD_SLACK:
        raise InvalidParams(f"triple {triple!r} gives negative probability {p.min():.3e}")
    return p


def bd_state(triple) -> np.ndarray:
    """Bell-diagonal state with the given correlation triple."""
    bd_probs(triple)  # validate
    rho = np.eye(4, dtype=complex) / 4.0
    for ci, s in zip(triple, PAULI):
        rho += float(ci) * np.kron(s, s) / 4.0
    return rho


def werner_params(w: float) -> XStateParams:
    """Werner mixture w * (maximally entangled) + (1-w) * I/4 as X-state parameters."""
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise InvalidParams(f"werner weight {w!r} outside [0, 1]")
    return XStateParams(
        a=w / 2.0 + (1.0 - w) / 4.0,
        b=(1.0 - w) / 4.0,
        c=(1.0 - w) / 4.0,
        d=w / 2.0 + (1.0 - w) / 4.0,
        x=0.0,
        y=w / 2.0,
    )
