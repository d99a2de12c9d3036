"""At every latitude of an X-state, F is nondecreasing and the average
conditional entropy nonincreasing in c = cos(2 psi + arg xy).

In char_poly_coeffs psi enters only through h = 2(1 - m^2)|xy| c + ac + bd,
so F at a fixed latitude is a function of c alone; the conditional states
of B depend on psi only through the modulus of their off-diagonal entry,
which grows with c.  The discord_core module docstring proves both
monotonicities, and both sphere searches rely on them: they cover only
the meridian psi0 = -arg(xy)/2 (c = 1) of an X-state.  These tests cross-
check the proved statements on random, rank-two and near-boundary
X-states, at 33 values of c and 39 latitudes.  Each computed g = 2F - 1
carries a rounding of at most WEYL_MARGIN, so two computed values of F may
differ by WEYL_MARGIN where F is flat in c (x y = 0, or the poles); two
computed entropies may differ by ENTROPY_ROUNDING.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from buresdiscord.discord_core import (
    WEYL_MARGIN,
    _conditional_entropy_factory,
    _directions,
    _lambda_blocks,
    _objective_batch_factory,
    _root,
)
from buresdiscord.sampling import random_degenerate_params, random_x_params
from buresdiscord.states import XStateParams, x_state

LATITUDES = np.linspace(0.0, np.pi, 41)[1:-1]
C_VALUES = np.linspace(-1.0, 1.0, 33)
ENTROPY_ROUNDING = 1e-13


def _near_boundary_params(rng):
    """A random X-state whose inner or outer block is a relative 1e-12 to
    1e-6 from singular."""
    p = random_x_params(rng)
    shrink = 1.0 - 10.0 ** rng.uniform(-12.0, -6.0)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if rng.uniform() < 0.5:
        return XStateParams(p.a, p.b, p.c, p.d, np.sqrt(p.b * p.c) * shrink * phase, p.y)
    return XStateParams(p.a, p.b, p.c, p.d, p.x, np.sqrt(p.a * p.d) * shrink * phase)


SAMPLERS = {
    "random_x": random_x_params,
    "bc": lambda rng: random_degenerate_params(rng, "bc"),
    "ad": lambda rng: random_degenerate_params(rng, "ad"),
    "ad_bc": lambda rng: random_degenerate_params(rng, "ad_bc"),
    "near_boundary": _near_boundary_params,
}


def _grid(params) -> np.ndarray:
    """The axes at LATITUDES x C_VALUES, c along the second axis."""
    psi = (np.arccos(C_VALUES) - np.angle(params.x * params.y)) / 2.0
    theta, psi = np.meshgrid(LATITUDES, psi, indexing="ij")
    return _directions(theta.ravel(), psi.ravel())


@seed(20142)
@settings(max_examples=150, deadline=None, database=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)),
       rng_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fidelity_nondecreasing_in_c(sampler, rng_seed):
    params = SAMPLERS[sampler](np.random.default_rng(rng_seed))
    g = _objective_batch_factory(_lambda_blocks(_root(x_state(params))))(_grid(params))
    steps = np.diff(0.5 * (1.0 + g.reshape(LATITUDES.size, C_VALUES.size)), axis=1)
    assert steps.min() >= -WEYL_MARGIN


@seed(20143)
@settings(max_examples=150, deadline=None, database=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)),
       rng_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_conditional_entropy_nonincreasing_in_c(sampler, rng_seed):
    params = SAMPLERS[sampler](np.random.default_rng(rng_seed))
    entropy = _conditional_entropy_factory(x_state(params))(_grid(params))
    steps = np.diff(entropy.reshape(LATITUDES.size, C_VALUES.size), axis=1)
    assert steps.max() <= ENTROPY_ROUNDING
