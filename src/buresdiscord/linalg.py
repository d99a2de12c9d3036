"""Dense complex linear algebra for 2x2 and 4x4 Hermitian matrices.

Everything here is sized for two-qubit work: a Hermitian
eigendecomposition in non-increasing order (LAPACK through
np.linalg.eigh), the positive-semidefinite square root, Uhlmann
fidelity and the squared Bures distance, trace norm, partial traces,
and the von Neumann entropy.  All functions are pure and operate on
plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotHermitian, NotPSD

HERM_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_CLAMP = 1e-10          # eigenvalues in [-PSD_CLAMP, 0) are treated as 0
# Relative floor below which eigenvalues are zeroed before square roots:
# ~20x above the rounding noise of an exactly singular state (<= 5.6e-16
# of the top eigenvalue), below the eigenvalue b eps of |x| = b (1 - eps)
# for eps >= 1e-12, b >= 0.05, whose root the closest classical state needs.
EIG_REL_FLOOR = 1e-14

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
for _m in (*PAULI, I2, I4):
    _m.flags.writeable = False


def _as_complex(mat) -> np.ndarray:
    out = np.asarray(mat, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise InvalidParams(f"expected a square matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise InvalidParams("matrix has non-finite entries")
    return out


def require_hermitian(mat) -> np.ndarray:
    """Return the matrix as a complex array, raising NotHermitian when max|H - H^dag| > HERM_TOL."""
    out = _as_complex(mat)
    dev = np.max(np.abs(out - out.conj().T))
    if dev > HERM_TOL:
        raise NotHermitian(f"max |H_ij - conj(H_ji)| = {dev:.3e} exceeds {HERM_TOL:.0e}")
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted non-increasing; eigenvector column k pairs with eigenvalue k."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(hmat) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix (LAPACK, via np.linalg.eigh).

    Eigenvalues come out non-increasing; ties are broken by a stable
    sort of the ascending LAPACK order, so degenerate spectra come out
    deterministically.
    """
    hmat = require_hermitian(hmat)
    vals, vecs = np.linalg.eigh(hmat)
    order = np.argsort(-vals, kind="stable")
    return EigenDecomposition(vals[order], vecs[:, order])


def psd_sqrt(rho) -> np.ndarray:
    """Hermitian square root of a PSD matrix; eigenvalues in [-1e-10, 0) clamp to zero."""
    dec = herm_eig(rho)
    vals = dec.eigenvalues
    if vals.min() < -PSD_CLAMP:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{PSD_CLAMP:.0e}")
    vals = np.clip(vals, 0.0, None)
    vals[vals < EIG_REL_FLOOR * vals.max(initial=0.0)] = 0.0
    vecs = dec.eigenvectors
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = (tr |sqrt(rho) sqrt(sigma)|)^2, clipped to [0, 1].

    The trace norm is the sum of singular values, so no eigenvalue floor
    drops the small terms that nearly singular states carry.  sigma goes
    through psd_sqrt as well: a non-PSD sigma raises NotPSD.
    """
    total = float(np.sum(np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(sigma), compute_uv=False)))
    return float(np.clip(total * total, 0.0, 1.0))


def bures_distance_sq(rho, sigma) -> float:
    """Squared Bures distance 2(1 - sqrt(F))."""
    return 2.0 * (1.0 - np.sqrt(fidelity(rho, sigma)))


def trace_norm(mat) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    dec = herm_eig(mat)
    return float(np.sum(np.abs(dec.eigenvalues)))


def partial_trace_B(rho) -> np.ndarray:
    """Trace out the second qubit, returning the 2x2 state of subsystem A."""
    r = _as_complex(rho).reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r)


def partial_trace_A(rho) -> np.ndarray:
    """Trace out the first qubit, returning the 2x2 state of subsystem B."""
    r = _as_complex(rho).reshape(2, 2, 2, 2)
    return np.einsum("ikil->kl", r)


def von_neumann_entropy(rho) -> float:
    """Entropy -tr(rho log2 rho) with 0 log 0 := 0; input must be Hermitian PSD."""
    dec = herm_eig(rho)
    vals = dec.eigenvalues
    if vals.min() < -PSD_CLAMP:
        raise NotPSD(f"eigenvalue {vals.min():.3e} below -{PSD_CLAMP:.0e}")
    vals = np.clip(vals, 0.0, None)
    pos = vals[vals > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def check_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity; return the matrix as complex array."""
    out = require_hermitian(rho)
    tr = np.trace(out).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidParams(f"{name}: trace {tr!r} differs from 1 by more than {TRACE_TOL:.0e}")
    wmin = herm_eig(out).eigenvalues.min()
    if wmin < -PSD_CLAMP:
        raise NotPSD(f"{name}: eigenvalue {wmin:.3e} below -{PSD_CLAMP:.0e}")
    return out
