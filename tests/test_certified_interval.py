"""Property tests for the certified interval of max_fidelity_bruteforce.

On random full-rank states, random X-states, a=d, b=c states, rank-two
X-states (b = c = |x| and both determinant factors zero), classical
states, Werner states, free-psi states and boundary-arc states, the
branch-and-bound result must satisfy:
- F at 200 random axes over the whole sphere, not only the quarter
  meridian an X-state's search covers, never exceeds fidelity_upper;
- fidelity is attained at one of optimal_directions within 1e-12;
- fidelity_upper - fidelity is at most BNB_EPS plus the rounding margin,
  plus an X-state's meridian margin, whenever the search converged,
  which it has whenever it used fewer than FAMILY_BUDGET evaluations and
  reports no family;
- fidelity is not below symmetric_fidelity or degenerate_fidelity where
  those apply.

The closed forms take the X-state parameters, the search takes their
rounded matrix.  On b = c = |x| states that matrix has an eigenvalue of
rounding size, about 1e-17, which psd_sqrt floors to zero; F moves with
the square root of such an eigenvalue, so there the closed form is met
within 1e-8 (the tolerance of the near-singular CCS properties), not
1e-12.  Every other comparison uses 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import buresdiscord.discord_core as discord_core
from buresdiscord.closed_forms import degenerate_fidelity, symmetric_fidelity
from buresdiscord.discord_core import (
    BNB_EPS,
    FAMILY_BUDGET,
    WEYL_MARGIN,
    MeasurementDirection,
    _meridian_margin,
    _root,
    _start_mesh,
    fidelity_at_direction,
    max_fidelity_bruteforce,
)
from buresdiscord.sampling import (
    random_boundary_arc_params,
    random_classical_params,
    random_degenerate_params,
    random_direction,
    random_free_psi_params,
    random_state,
    random_symmetric_params,
    random_x_params,
)
from buresdiscord.states import classical_state, werner_params, x_state

ATTAINED_TOL = 1e-12
CLOSED_FORM_TOL = {"symmetric": 1e-12, "ad_bc": 1e-12, "bc": 1e-8}
SAMPLERS = {
    "random_state": lambda rng: (random_state(rng), None),
    "random_x": lambda rng: (None, random_x_params(rng)),
    "symmetric": lambda rng: (None, random_symmetric_params(rng)),
    "bc": lambda rng: (None, random_degenerate_params(rng, "bc")),
    "ad_bc": lambda rng: (None, random_degenerate_params(rng, "ad_bc")),
    "classical": lambda rng: (classical_state(random_classical_params(rng)), None),
    "werner": lambda rng: (None, werner_params(rng.uniform(0.0, 1.0))),
    "free_psi": lambda rng: (None, random_free_psi_params(rng)),
    "boundary_arc": lambda rng: (None, random_boundary_arc_params(rng)),
}
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None)


def counted_search(rho) -> tuple:
    """max_fidelity_bruteforce(rho) and the number of objective evaluations."""
    rows = []
    factory = discord_core._objective_batch_factory

    def counting_factory(blocks):
        fn = factory(blocks)

        def counted(u):
            rows.append(u.shape[0])
            return fn(u)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discord_core, "_objective_batch_factory", counting_factory)
        result = max_fidelity_bruteforce(rho)
    return result, sum(rows)


@seed(20131)
@PROPERTY_SETTINGS
@given(sampler=st.sampled_from(sorted(SAMPLERS)), rng_seed=SEEDS)
def test_interval_holds_every_axis(sampler, rng_seed):
    rng = np.random.default_rng(rng_seed)
    rho, params = SAMPLERS[sampler](rng)
    if rho is None:
        rho = x_state(params)
    res, evals = counted_search(rho)

    sampled = [fidelity_at_direction(rho, MeasurementDirection(tuple(random_direction(rng))))
               for _ in range(200)]
    assert max(sampled) <= res.fidelity_upper
    attained = [fidelity_at_direction(rho, d) for d in res.optimal_directions]
    assert min(abs(f - res.fidelity) for f in attained) <= ATTAINED_TOL
    assert res.fidelity <= res.fidelity_upper
    if res.degenerate_family is None and evals < FAMILY_BUDGET:
        root = _root(rho)
        margin = _meridian_margin(root) if _start_mesh(root)[1].shape[1] == 2 else 0.0
        assert res.fidelity_upper - res.fidelity <= BNB_EPS + WEYL_MARGIN + margin

    if sampler == "symmetric":
        assert res.fidelity >= symmetric_fidelity(params)[0].fidelity - CLOSED_FORM_TOL[sampler]
    elif sampler in ("bc", "ad_bc"):
        assert res.fidelity >= degenerate_fidelity(params)[0] - CLOSED_FORM_TOL[sampler]
