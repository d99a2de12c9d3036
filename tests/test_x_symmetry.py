"""The quarter meridian of exactly X-shaped states, and the meridian path
of both sphere searches against their hemisphere path.

For an exactly X-shaped state both optima lie on the quarter meridian
arc [z, e1] that _start_mesh returns (the discord_core module docstring).
g = 2F - 1 is computed from rounded blocks, so g at any axis is at most
its maximum over the arc plus the state's _meridian_margin plus the
rounding allowance of two computed values (2 WEYL_MARGIN).  The
conditional entropy is computed from rho itself, so at any axis it is at
least its minimum over the arc less ENTROPY_ROUNDING.

(I (x) H) rho (I (x) H) has the same F and conditional entropy at every
axis, since a unitary on qubit B commutes with every measurement on A, but
it is not X-shaped, so it takes the hemisphere path.  Both paths must
give the same results.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import buresdiscord.discord_core as discord_core
from buresdiscord.discord_core import (
    BNB_EPS,
    WEYL_MARGIN,
    _conditional_entropy_factory,
    _lambda_blocks,
    _meridian_margin,
    _objective_batch_factory,
    _root,
    _split,
    _start_mesh,
    entropic_discord,
    max_fidelity_bruteforce,
)
from buresdiscord.sampling import (
    random_boundary_arc_params,
    random_degenerate_params,
    random_direction,
    random_x_params,
)
from buresdiscord.states import XStateParams, werner_params, x_state

ENTROPY_ROUNDING = 1e-13
AXIS_TOL = 1e-5          # the golden CLI axis tolerance
ENTROPIC_TOL = 1e-9
DENSE_SPLITS = 12        # 4097 arc vertices, 3.8e-4 rad apart
HADAMARD_B = np.kron(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def _xy_zero_params(rng):
    """A random X-state with one coherence set to zero."""
    p = random_x_params(rng)
    return XStateParams(p.a, p.b, p.c, p.d, *((0.0, p.y) if rng.uniform() < 0.5 else (p.x, 0.0)))


SAMPLERS = {
    "random_x": random_x_params,
    "bc": lambda rng: random_degenerate_params(rng, "bc"),
    "ad_bc": lambda rng: random_degenerate_params(rng, "ad_bc"),
    "werner": lambda rng: werner_params(rng.uniform(0.0, 1.0)),
    "xy_zero": _xy_zero_params,
    "boundary_arc": random_boundary_arc_params,
}
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _dense_arc(mat) -> np.ndarray:
    verts, cells = _start_mesh(mat)
    assert cells.shape == (1, 2)
    for _ in range(DENSE_SPLITS):
        mids, cells = _split(verts, cells)
        verts = np.vstack([verts, mids])
    return verts


@seed(20140)
@settings(max_examples=60, deadline=None, database=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)), rng_seed=SEEDS)
def test_no_axis_beats_the_arc(sampler, rng_seed):
    rng = np.random.default_rng(rng_seed)
    rho = x_state(SAMPLERS[sampler](rng))
    root = _root(rho)
    axes = np.array([random_direction(rng) for _ in range(200)])
    g = _objective_batch_factory(_lambda_blocks(root))
    assert g(axes).max() <= g(_dense_arc(root)).max() + _meridian_margin(root) + 2.0 * WEYL_MARGIN
    entropy = _conditional_entropy_factory(rho)
    assert entropy(axes).min() >= entropy(_dense_arc(rho)).min() - ENTROPY_ROUNDING


@seed(20141)
@settings(max_examples=36, deadline=None, database=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)), rng_seed=SEEDS)
def test_meridian_path_matches_the_hemisphere_path(sampler, rng_seed):
    rho = x_state(SAMPLERS[sampler](np.random.default_rng(rng_seed)))
    rotated = HADAMARD_B @ rho @ HADAMARD_B
    assert _start_mesh(rotated)[1].shape[1] == 3
    meridian, hemisphere = max_fidelity_bruteforce(rho), max_fidelity_bruteforce(rotated)

    assert abs(meridian.fidelity - hemisphere.fidelity) <= BNB_EPS + _meridian_margin(_root(rho))
    assert meridian.fidelity <= hemisphere.fidelity_upper
    assert hemisphere.fidelity <= meridian.fidelity_upper
    assert meridian.degenerate_family == hemisphere.degenerate_family
    if meridian.degenerate_family is None:
        assert len(meridian.optimal_directions) == len(hemisphere.optimal_directions)
        for d in hemisphere.optimal_directions:
            u = np.asarray(d.u)
            assert min(min(np.linalg.norm(u - v.u), np.linalg.norm(u + v.u))
                       for v in meridian.optimal_directions) <= AXIS_TOL
    assert_allclose(entropic_discord(rho), entropic_discord(rotated), rtol=0.0, atol=ENTROPIC_TOL)


def test_one_off_x_entry_takes_the_hemisphere_path(monkeypatch):
    # a single off-X entry of 1e-13 (and its conjugate) makes the state
    # non-X: the first batch is the five upper octahedron vertices, not
    # the two ends of the quarter meridian
    first_batches = []

    def counting_factory(blocks):
        fn = _objective_batch_factory(blocks)
        sizes = []
        first_batches.append(sizes)

        def counted(u):
            sizes.append(u.shape[0])
            return fn(u)
        return counted

    monkeypatch.setattr(discord_core, "_objective_batch_factory", counting_factory)
    rng = np.random.default_rng(31)
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        rho = x_state(random_x_params(rng))
        max_fidelity_bruteforce(rho)
        rho[i, j] = rho[j, i] = 1e-13
        assert _start_mesh(rho)[1].shape[1] == 3
        max_fidelity_bruteforce(rho)
    assert [sizes[0] for sizes in first_batches] == [2, 5] * 4


def test_x_states_skip_the_hemisphere_rules(monkeypatch):
    # the arc decides families by _meridian_family and never reaches
    # _detect_free_family or the compass search past MAX_EVALS
    def forbidden(*_args):
        raise AssertionError("hemisphere rule reached")

    monkeypatch.setattr(discord_core, "_detect_free_family", forbidden)
    monkeypatch.setattr(discord_core, "_compass_batch", forbidden)
    rng = np.random.default_rng(43)
    for sampler in sorted(SAMPLERS):
        for _ in range(10):
            max_fidelity_bruteforce(x_state(SAMPLERS[sampler](rng)))
    assert max_fidelity_bruteforce(np.eye(4) / 4.0).degenerate_family == "free_sphere"
