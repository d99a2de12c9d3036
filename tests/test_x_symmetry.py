"""The octant symmetry of exactly X-shaped states, and the octant path of
both sphere searches against their hemisphere path.

An exactly X-shaped state takes the same fidelity objective g = 2F - 1 and
the same average conditional entropy at the eight sign flips of an axis in
its octant frame (the discord_core module docstring).  g is computed from
rounded blocks, so its images agree within the state's _symmetry_margin
plus the rounding allowance of two computed values (2 WEYL_MARGIN).  The
conditional entropy is computed from rho itself, whose two symmetries are
exact up to the rounding of the phases of W, so its images agree within
ENTROPY_ROUNDING.

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
    _objective_batch_factory,
    _octant_frame,
    _octant_images,
    _symmetry_margin,
    _x_meridian,
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


def _margin(rho) -> float:
    return _symmetry_margin(rho, _x_meridian(rho), _lambda_blocks(rho))


@seed(20140)
@settings(max_examples=60, deadline=None, database=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)), rng_seed=SEEDS)
def test_images_agree_within_the_margin(sampler, rng_seed):
    rng = np.random.default_rng(rng_seed)
    rho = x_state(SAMPLERS[sampler](rng))
    psi0 = _x_meridian(rho)
    assert psi0 is not None
    axes = np.array([random_direction(rng) for _ in range(200)])
    images = _octant_images(axes, _octant_frame(psi0))
    g = _objective_batch_factory(_lambda_blocks(rho))(images).reshape(-1, 8)
    assert np.abs(g - g[:, :1]).max() <= _margin(rho) + 2.0 * WEYL_MARGIN
    entropy = _conditional_entropy_factory(rho)(images).reshape(-1, 8)
    assert np.abs(entropy - entropy[:, :1]).max() <= ENTROPY_ROUNDING


def test_images_are_the_eight_sign_flips():
    frame = _octant_frame(0.7)
    u = np.array([[0.48, 0.6, 0.64]])
    images = _octant_images(u, frame)
    coords = images @ frame.T
    assert_allclose(images[0], u[0], rtol=0.0, atol=1e-15)
    assert_allclose(np.abs(coords), np.tile(np.abs(u @ frame.T), (8, 1)), rtol=0.0, atol=1e-15)
    assert len({tuple(np.sign(c)) for c in coords}) == 8


@seed(20141)
@settings(max_examples=36, deadline=None, database=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)), rng_seed=SEEDS)
def test_octant_path_matches_the_hemisphere_path(sampler, rng_seed):
    rho = x_state(SAMPLERS[sampler](np.random.default_rng(rng_seed)))
    rotated = HADAMARD_B @ rho @ HADAMARD_B
    assert _x_meridian(rho) is not None and _x_meridian(rotated) is None
    octant, hemisphere = max_fidelity_bruteforce(rho), max_fidelity_bruteforce(rotated)

    assert abs(octant.fidelity - hemisphere.fidelity) <= BNB_EPS + _margin(rho)
    assert octant.fidelity <= hemisphere.fidelity_upper
    assert hemisphere.fidelity <= octant.fidelity_upper
    assert octant.degenerate_family == hemisphere.degenerate_family
    if octant.degenerate_family is None:
        assert len(octant.optimal_directions) == len(hemisphere.optimal_directions)
        for d in hemisphere.optimal_directions:
            u = np.asarray(d.u)
            assert min(min(np.linalg.norm(u - v.u), np.linalg.norm(u + v.u))
                       for v in octant.optimal_directions) <= AXIS_TOL
    assert_allclose(entropic_discord(rho), entropic_discord(rotated), rtol=0.0, atol=ENTROPIC_TOL)


def test_one_off_x_entry_takes_the_hemisphere_path(monkeypatch):
    # a single off-X entry of 1e-13 (and its conjugate) makes the state
    # non-X: the first batch is the five upper octahedron vertices, not
    # the three octant vertices
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
        assert _x_meridian(rho) is None
        max_fidelity_bruteforce(rho)
    assert [sizes[0] for sizes in first_batches] == [3, 5] * 4

