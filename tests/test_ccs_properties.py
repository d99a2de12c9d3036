"""Property tests for the one closest-classical-state rule.

ccs_from_measurement at z is checked on X-states from every sampler
(random, b = c = |x|, a = d = |y|, both determinant factors zero), on
states a relative distance eps in [1e-12, 1e-9] from b = c = |x|, and on
the Bell state; symmetric_ccs is checked for every r in [-1, 1] on
random a=d, b=c states.  Each emitted state must have unit trace, be
positive semidefinite, reach the target fidelity within 1e-8 and be
unchanged by measuring qubit A along its axis (dephasing residual at
most 1e-10).

The z-axis CCS is diagonal, so its fidelity with an X-state splits into
the two 2x2 blocks of sqrt(chi) rho sqrt(chi), each with
tr sqrt(M) = sqrt(tr M + 2 sqrt(det M)).  That value stays exact up to
rounding where rho is a hair from singular.  linalg.fidelity, a sum of
singular values of sqrt(rho) sqrt(chi), is checked against F_z there
separately.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from buresdiscord.closed_forms import symmetric_ccs, symmetric_fidelity, x_fidelity_z
from buresdiscord.discord_core import MeasurementDirection, ccs_from_measurement, dephasing_residual
from buresdiscord.sampling import (
    random_degenerate_params,
    random_symmetric_params,
    random_x_params,
)
from buresdiscord.states import XStateParams, x_state

FIDELITY_TOL = 1e-8
RESIDUAL_TOL = 1e-10
Z_AXIS = MeasurementDirection((0.0, 0.0, 1.0))
SAMPLERS = {
    "random_x": random_x_params,
    "bc": lambda rng: random_degenerate_params(rng, "bc"),
    "ad": lambda rng: random_degenerate_params(rng, "ad"),
    "ad_bc": lambda rng: random_degenerate_params(rng, "ad_bc"),
}
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, database=None)


def diagonal_fidelity(p: XStateParams, chi: np.ndarray) -> float:
    """F(rho, chi) for the X-state rho of p and a diagonal chi."""
    q = np.clip(np.diag(chi).real, 0.0, None)
    total = 0.0
    for i, j, ri, rj, coherence in ((0, 3, p.a, p.d, p.y), (1, 2, p.b, p.c, p.x)):
        det = q[i] * q[j] * max(ri * rj - abs(coherence) ** 2, 0.0)
        total += np.sqrt(q[i] * ri + q[j] * rj + 2.0 * np.sqrt(det))
    return float(total * total)


def assert_density(chi: np.ndarray) -> None:
    assert np.abs(chi - chi.conj().T).max() <= 1e-14
    assert abs(np.trace(chi).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(chi).min() >= -1e-12


def check_z_axis_ccs(p: XStateParams) -> None:
    chi = ccs_from_measurement(x_state(p), Z_AXIS).state
    assert_density(chi)
    assert np.abs(chi - np.diag(np.diag(chi))).max() <= 1e-12
    assert abs(diagonal_fidelity(p, chi) - x_fidelity_z(p)) <= FIDELITY_TOL
    assert dephasing_residual(chi, Z_AXIS) <= RESIDUAL_TOL


@seed(20111)
@PROPERTY_SETTINGS
@given(sampler=st.sampled_from(sorted(SAMPLERS)), rng_seed=SEEDS)
def test_z_axis_ccs_on_every_sampler(sampler, rng_seed):
    check_z_axis_ccs(SAMPLERS[sampler](np.random.default_rng(rng_seed)))


@seed(20112)
@PROPERTY_SETTINGS
@given(rng_seed=SEEDS, log_eps=st.floats(min_value=-12.0, max_value=-9.0))
def test_z_axis_ccs_near_pinned_inner_block(rng_seed, log_eps):
    # |x| = b (1 - eps) straddles DEGENERATE_PRECONDITION_TOL on |x| - b
    p = random_degenerate_params(np.random.default_rng(rng_seed), "bc")
    check_z_axis_ccs(XStateParams(p.a, p.b, p.c, p.d, p.x * (1.0 - 10.0 ** log_eps), p.y))


def test_fidelity_check_near_pinned_inner_block():
    # |x| = b (1 - 1e-12): rho has eigenvalues ~1e-13, and the square roots
    # of the small eigenvalues of sqrt(rho) chi sqrt(rho) carry ~1e-7 of
    # tr sqrt(.); flooring them put fidelity_check up to 1.4e-7 off F_z
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        p = random_degenerate_params(rng, "bc")
        p = XStateParams(p.a, p.b, p.c, p.d, p.x * (1.0 - 1e-12), p.y)
        ccs = ccs_from_measurement(x_state(p), Z_AXIS)
        worst = max(worst, abs(ccs.fidelity_check - x_fidelity_z(p)))
    assert worst <= 1e-9


def test_z_axis_ccs_bell():
    check_z_axis_ccs(XStateParams(0.5, 0.0, 0.0, 0.5, y=0.5))


@seed(20113)
@PROPERTY_SETTINGS
@given(rng_seed=SEEDS, r=st.floats(min_value=-1.0, max_value=1.0))
def test_symmetric_ccs_every_r(rng_seed, r):
    # the stated axis is the first optimal axis of the closed form
    p = random_symmetric_params(np.random.default_rng(rng_seed))
    target, _ = symmetric_fidelity(p)
    ccs = symmetric_ccs(p, r=r)
    assert_density(ccs.state)
    assert abs(ccs.fidelity_check - target.fidelity) <= FIDELITY_TOL
    assert dephasing_residual(ccs.state, target.optimal_directions[0]) <= RESIDUAL_TOL
