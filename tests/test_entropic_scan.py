"""entropic_discord's sphere search against a dense scan built here with
numpy alone.

The classical correlation J = S(rho_B) - min_u sum_i p_i S(rho_B|i) is a
maximum over measurement axes u on qubit A, so the value entropic_discord
reports may not fall below the best of any set of axes.  The reference
evaluates J on a 96 x 192 (theta, psi) grid over the whole sphere, whose
cells lie off the library's mesh, from the conditional states
tr_A[(Pi_u (x) I) rho] with Pi_u = (I +- u . sigma)/2.  X-state samplers
take the library's quarter-meridian start, random_state its hemisphere
start.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from buresdiscord.discord_core import entropic_discord
from buresdiscord.sampling import (
    random_boundary_arc_params,
    random_degenerate_params,
    random_free_psi_params,
    random_state,
    random_x_params,
)
from buresdiscord.states import werner_params, x_state

GRID_SLACK = 1e-9
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

SAMPLERS = {
    "werner": lambda rng: x_state(werner_params(rng.uniform(0.0, 1.0))),
    "free_psi": lambda rng: x_state(random_free_psi_params(rng)),
    "boundary_arc": lambda rng: x_state(random_boundary_arc_params(rng)),
    "random_x": lambda rng: x_state(random_x_params(rng)),
    "bc": lambda rng: x_state(random_degenerate_params(rng, "bc")),
    "random_state": random_state,
}
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _grid_axes() -> np.ndarray:
    theta = (np.arange(96) + 0.5) * np.pi / 96
    psi = (np.arange(192) + 0.25) * 2.0 * np.pi / 192
    t, p = np.meshgrid(theta, psi, indexing="ij")
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1).reshape(-1, 3)


def _entropy(w: np.ndarray) -> np.ndarray:
    w = np.clip(w, 0.0, None)
    return -np.sum(np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0), axis=-1)


def _grid_classical_correlation(rho: np.ndarray) -> float:
    """max over the grid axes of S(rho_B) - sum_i p_i S(rho_B|i)."""
    r4 = rho.reshape(2, 2, 2, 2)
    s_b = _entropy(np.linalg.eigvalsh(np.einsum("ikil->kl", r4)))
    sigma = np.einsum("nk,kij->nij", _grid_axes(), PAULI)
    average = 0.0
    for sign in (1.0, -1.0):
        proj = (np.eye(2) + sign * sigma) / 2.0
        cond = np.einsum("nji,ikjl->nkl", proj, r4)       # tr_A[(Pi (x) I) rho], unnormalised
        cond = (cond + np.conj(np.swapaxes(cond, 1, 2))) / 2.0
        p = np.real(np.trace(cond, axis1=1, axis2=2))
        w = np.linalg.eigvalsh(cond) / np.where(p > 0.0, p, 1.0)[:, None]
        average = average + p * _entropy(w)
    return float(s_b - np.min(average))


@seed(20150)
@settings(max_examples=60, deadline=None, database=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)), rng_seed=SEEDS)
def test_never_below_a_dense_grid(sampler, rng_seed):
    rho = SAMPLERS[sampler](np.random.default_rng(rng_seed))
    classical, _ = entropic_discord(rho)
    assert classical >= _grid_classical_correlation(rho) - GRID_SLACK
