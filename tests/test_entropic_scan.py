"""entropic_discord's sphere search against a dense scan built here with
numpy alone.

The classical correlation J = S(rho_B) - min_u sum_i p_i S(rho_B|i) is a
maximum over measurement axes u on qubit A, so the value entropic_discord
reports may not fall below the best of any set of axes.  The reference
evaluates J on a 96 x 192 (theta, psi) grid over the whole sphere, whose
cells lie off the library's mesh, from the conditional states
tr_A[(Pi_u (x) I) rho] with Pi_u = (I +- u . sigma)/2.  X-state samplers
take the library's quarter-meridian start, random_state its hemisphere
start.  The same construction checks the library's conditional-entropy
objective, which works from the Bloch form with no eigensolver, axis by
axis, and that its meshes and Pauli table are built once and read-only.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import buresdiscord.discord_core as discord_core
import buresdiscord.states as states
from buresdiscord.discord_core import _conditional_entropy_factory, _entropic_mesh, entropic_discord
from buresdiscord.sampling import (
    random_boundary_arc_params,
    random_degenerate_params,
    random_direction,
    random_free_psi_params,
    random_state,
    random_x_params,
)
from buresdiscord.states import werner_params, x_state

GRID_SLACK = 1e-9
KERNEL_TOL = 1e-14
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


def _marginal_entropy(rho: np.ndarray) -> float:
    """S(rho_B)."""
    return float(_entropy(np.linalg.eigvalsh(np.einsum("ikil->kl", rho.reshape(2, 2, 2, 2)))))


def _average_entropy(rho: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_B|i) at each axis, from the partial traces."""
    r4 = rho.reshape(2, 2, 2, 2)
    sigma = np.einsum("nk,kij->nij", axes, PAULI)
    average = 0.0
    for sign in (1.0, -1.0):
        proj = (np.eye(2) + sign * sigma) / 2.0
        cond = np.einsum("nji,ikjl->nkl", proj, r4)       # tr_A[(Pi (x) I) rho], unnormalised
        cond = (cond + np.conj(np.swapaxes(cond, 1, 2))) / 2.0
        p = np.real(np.trace(cond, axis1=1, axis2=2))
        w = np.linalg.eigvalsh(cond) / np.where(p > 0.0, p, 1.0)[:, None]
        average = average + p * _entropy(w)
    return average


def _grid_classical_correlation(rho: np.ndarray) -> float:
    """max over the grid axes of S(rho_B) - sum_i p_i S(rho_B|i)."""
    return float(_marginal_entropy(rho) - np.min(_average_entropy(rho, _grid_axes())))


@seed(20150)
@settings(max_examples=60, deadline=None, database=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)), rng_seed=SEEDS)
def test_never_below_a_dense_grid(sampler, rng_seed):
    rho = SAMPLERS[sampler](np.random.default_rng(rng_seed))
    classical, _ = entropic_discord(rho)
    assert classical >= _grid_classical_correlation(rho) - GRID_SLACK


def _edge_state(name: str, rng) -> np.ndarray:
    """Edge states with exact entries where they are pure."""
    half_x, half_y = (np.eye(2) + PAULI[0]) / 2.0, (np.eye(2) + PAULI[1]) / 2.0
    return {
        "ket00": np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
        "bell": x_state(werner_params(1.0)),
        "mixed": np.eye(4, dtype=complex) / 4.0,
        "product": np.kron(half_x, half_y),
        "bc_rank_two": x_state(random_degenerate_params(rng, "bc")),
    }[name]


def _states(case: str) -> list:
    rng = np.random.default_rng(21)
    if case in SAMPLERS:
        return [SAMPLERS[case](rng) for _ in range(8)]
    return [_edge_state(case, rng)]


CASES = sorted(SAMPLERS) + ["ket00", "bell", "mixed", "product", "bc_rank_two"]
# measuring A on a pure state leaves B pure: the average entropy is exactly
# 0, which the reference misses by up to 1.1e-14 (the rounded zero
# eigenvalues of the Bell state's conditional states, through w log2 w)
PURE_CASES = ("ket00", "bell", "product")


@pytest.mark.parametrize("case", CASES)
def test_objective_matches_the_partial_traces(case):
    # p_s S(rho_B|s) from the Bloch form equals the eigenvalues of the
    # partial traces, axis by axis, and at u = +-z
    rng = np.random.default_rng(23)
    axes = np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [random_direction(rng) for _ in range(200)]])
    for rho in _states(case):
        expected = np.zeros(axes.shape[0]) if case in PURE_CASES else _average_entropy(rho, axes)
        assert np.abs(_conditional_entropy_factory(rho)(axes) - expected).max() <= KERNEL_TOL


@pytest.mark.parametrize("case", CASES)
def test_objective_at_zero_is_the_marginal_entropy(case):
    # at u = 0 both outcomes leave rho_B at weight 1/2
    for rho in _states(case):
        assert abs(_conditional_entropy_factory(rho)(np.zeros((1, 3)))[0] - _marginal_entropy(rho)) <= KERNEL_TOL


def test_objective_calls_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    rng = np.random.default_rng(24)
    fns = [_conditional_entropy_factory(rho) for case in CASES for rho in _states(case)[:1]]
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for fn in fns:
        fn(np.array([random_direction(rng) for _ in range(50)]))


def test_meshes_are_built_once(monkeypatch):
    rng = np.random.default_rng(25)
    x_rho, full_rho = x_state(random_x_params(rng)), random_state(rng)
    first = entropic_discord(x_rho), entropic_discord(full_rho)

    def refuse(*args, **kwargs):
        raise AssertionError("_split called")

    monkeypatch.setattr(discord_core, "_split", refuse)
    assert (entropic_discord(x_rho), entropic_discord(full_rho)) == first


def test_x_scan_lies_on_the_meridian(monkeypatch):
    # the cached arc [z, x] is turned onto [z, e1] of the state, vertex by
    # vertex: each keeps its height and lies on the e1 side of the plane of z and e1
    rho = x_state(random_x_params(np.random.default_rng(26)))
    e1 = discord_core._start_mesh(rho)[0][1]
    assert abs(e1[1]) > 0.1
    batches, factory = [], _conditional_entropy_factory

    def recording_factory(state):
        fn = factory(state)
        return lambda u: batches.append(u) or fn(u)

    monkeypatch.setattr(discord_core, "_conditional_entropy_factory", recording_factory)
    entropic_discord(rho)
    arc = batches[0]
    assert np.abs(arc @ np.cross([0.0, 0.0, 1.0], e1)).max() <= 1e-15
    assert np.all(arc @ e1 >= 0.0) and np.array_equal(arc[:, 2], _entropic_mesh(True)[:, 2])


def test_cached_arrays_are_read_only():
    for table in (_entropic_mesh(True), _entropic_mesh(False), states._PAULI_PAIRS):
        assert not table.flags.writeable
