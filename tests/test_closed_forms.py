"""Closed-form fidelities, transports, CCS families, classical correlation,
characteristic polynomial, and the rank-two subfamily."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from buresdiscord.closed_forms import (
    BRANCH_TOL,
    DISCORD_METHODS,
    bd_transport,
    bures_discord,
    char_poly_coeffs,
    classical_correlation_symmetric,
    degenerate_fidelity,
    discord_upper_bound,
    lambda1_profile,
    symmetric_ccs,
    symmetric_fidelity,
    x_candidate_discord,
    x_fidelity_equatorial,
    x_fidelity_z,
)
from buresdiscord.discord_core import (
    MeasurementDirection,
    ccs_from_measurement,
    fidelity_at_direction,
    max_fidelity_bruteforce,
)
from buresdiscord.errors import InvalidParams, NotHermitian, NotSymmetricFamily, PreconditionNotMet
from buresdiscord.linalg import I4, bures_distance_sq, fidelity
from buresdiscord.sampling import (
    random_degenerate_params,
    random_state,
    random_symmetric_params,
    random_x_params,
)
from buresdiscord.states import (
    XStateParams,
    bd_state,
    symmetric_to_bd,
    werner_params,
    x_state,
)

BELL = XStateParams(0.5, 0.0, 0.0, 0.5, y=0.5)
# branch examples with known transport data
ODD_PAIR = XStateParams(0.3, 0.2, 0.2, 0.3, x=0.2, y=0.1)
EVEN_PAIR = XStateParams(0.025, 0.475, 0.475, 0.025, x=0.075, y=0.025)


class TestSymmetricFidelity:
    def test_rejects_general_x(self):
        with pytest.raises(NotSymmetricFamily):
            symmetric_fidelity(XStateParams(0.4, 0.3, 0.2, 0.1))

    def test_axial_case(self):
        p = XStateParams(0.4, 0.1, 0.1, 0.4, x=0.05, y=0.1)
        result, branch = symmetric_fidelity(p)
        assert branch.case == "axial"
        assert branch.optimal_family == "fixed"
        expect = 0.5 + np.sqrt(0.4 ** 2 - 0.1 ** 2) + np.sqrt(0.1 ** 2 - 0.05 ** 2)
        assert abs(result.fidelity - expect) < 1e-14
        assert_allclose(result.optimal_directions[0].u, [0, 0, 1], atol=0)

    def test_equatorial_case(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, x=0.2, y=0.15)
        result, branch = symmetric_fidelity(p)
        assert branch.case == "equatorial"
        expect = 0.5 + np.sqrt(0.4 * 0.45) + np.sqrt(0.1 * 0.05)
        assert abs(result.fidelity - expect) < 1e-14
        d = result.optimal_directions[0]
        assert abs(d.theta - np.pi / 2.0) < 1e-12

    def test_equatorial_azimuth_tracks_coherence_phases(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25,
                         x=0.2 * np.exp(0.7j), y=0.15 * np.exp(-0.2j))
        result, branch = symmetric_fidelity(p)
        assert branch.case == "equatorial" and not branch.xy_zero
        assert abs(result.optimal_directions[0].psi - (-0.5 / 2.0) % (2 * np.pi)) < 1e-12

    def test_boundary_case_werner(self):
        for w in (0.3, 0.5, 0.9):
            result, branch = symmetric_fidelity(werner_params(w))
            assert branch.case == "boundary"
            assert branch.optimal_family == "free_sphere"
            assert result.degenerate_family == "free_sphere"

    def test_branch_continuity(self):
        # approach the case boundary from both sides: fidelity is continuous
        a, y = 0.35, 0.1
        b = 0.5 - a
        # boundary when |a - b| = |x| + |y|  ->  x = (a - b) - y
        x_star = (a - b) - y
        for eps in (1e-8, 1e-10):
            lo, _ = symmetric_fidelity(XStateParams(a, b, b, a, x=x_star - eps, y=y))
            hi, _ = symmetric_fidelity(XStateParams(a, b, b, a, x=x_star + eps, y=y))
            assert abs(lo.fidelity - hi.fidelity) < 1e-7

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            p = random_symmetric_params(rng)
            closed, _ = symmetric_fidelity(p)
            brute = max_fidelity_bruteforce(x_state(p))
            assert abs(closed.fidelity - brute.fidelity) < 2e-6

    def test_closed_direction_achieves_value(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            p = random_symmetric_params(rng)
            closed, branch = symmetric_fidelity(p)
            direct = max(fidelity_at_direction(x_state(p), d)
                         for d in closed.optimal_directions)
            assert abs(closed.fidelity - direct) < 1e-10


class TestBdTransport:
    def test_rejects_general_x(self):
        with pytest.raises(NotSymmetricFamily):
            bd_transport(XStateParams(0.4, 0.3, 0.2, 0.1))

    def test_transport_is_bell_diagonal(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            p = random_symmetric_params(rng)
            t = bd_transport(p)
            u_full = np.kron(t.u_a, t.u_b)
            moved = u_full @ x_state(p) @ u_full.conj().T
            assert np.abs(moved - bd_state(t.c)).max() < 1e-12

    def test_probs_are_source_spectrum(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            p = random_symmetric_params(rng)
            t = bd_transport(p)
            spec = np.sort(np.clip(np.linalg.eigvalsh(x_state(p)), 0.0, None))
            assert np.abs(np.sort(t.probs) - spec).max() < 1e-12

    def test_odd_pair_example(self):
        t = bd_transport(ODD_PAIR)
        assert_allclose(t.probs, [0.0, 0.4, 0.2, 0.4], atol=1e-15)
        assert t.m_opt == 2
        assert t.branch == "r_odd_pair"
        assert abs(t.q[t.m_opt - 1] - 8.0 / 9.0) < 1e-12

    def test_even_pair_example(self):
        t = bd_transport(EVEN_PAIR)
        assert t.m_opt == 3
        assert t.branch == "r_even_pair"
        assert abs(t.q[t.m_opt - 1] - 0.02579868786569367) < 1e-12

    def test_werner_is_generic(self):
        assert bd_transport(werner_params(0.5)).branch == "generic"

    def test_pair_split_reproduces_fidelity(self):
        # 1/2 + max_m f(m) equals the case-analysis value
        rng = np.random.default_rng(27)
        for _ in range(200):
            p = random_symmetric_params(rng)
            t = bd_transport(p)
            best = 0.0
            for m in (1, 2, 3):
                n, k = [i for i in (1, 2, 3) if i != m]
                best = max(best, np.sqrt(t.probs[0] * t.probs[m])
                           + np.sqrt(t.probs[n] * t.probs[k]))
            closed, _ = symmetric_fidelity(p)
            assert abs(0.5 + best - closed.fidelity) < 1e-12


class TestSymmetricCcs:
    def test_odd_pair_family_equal_fidelity(self):
        result, _ = symmetric_fidelity(ODD_PAIR)
        for r in np.linspace(-1.0, 1.0, 9):
            ccs = symmetric_ccs(ODD_PAIR, r=r)
            assert ccs.branch == "r_odd_pair"
            assert not ccs.branch_not_printed
            assert abs(ccs.fidelity_check - result.fidelity) < 1e-8

    def test_even_pair_family_equal_fidelity(self):
        result, _ = symmetric_fidelity(EVEN_PAIR)
        for r in np.linspace(-1.0, 1.0, 9):
            ccs = symmetric_ccs(EVEN_PAIR, r=r)
            assert ccs.branch == "r_even_pair"
            assert abs(ccs.fidelity_check - result.fidelity) < 1e-8

    def test_family_members_are_a_classical(self):
        for r in (-1.0, 0.0, 0.6):
            ccs = symmetric_ccs(ODD_PAIR, r=r)
            res = max_fidelity_bruteforce(ccs.state)
            assert res.discord <= 1e-6

    def test_generic_falls_back_flagged(self):
        ccs = symmetric_ccs(werner_params(0.5), r=0.3)
        assert ccs.branch == "generic"
        assert ccs.branch_not_printed
        assert abs(ccs.fidelity_check - (0.625 + np.sqrt(0.125 * 0.625))) < 1e-10

    @pytest.mark.parametrize("r", [7.0, -1.5, float("nan")])
    @pytest.mark.parametrize("params", [werner_params(0.5), ODD_PAIR, EVEN_PAIR],
                             ids=["generic", "r_odd_pair", "r_even_pair"])
    def test_r_outside_unit_interval_rejected_on_every_branch(self, params, r):
        with pytest.raises(InvalidParams):
            symmetric_ccs(params, r=r)

    def test_generic_without_r_not_flagged(self):
        ccs = symmetric_ccs(werner_params(0.5))
        assert not ccs.branch_not_printed

    def test_unpacking(self):
        state, check = symmetric_ccs(ODD_PAIR, r=0.0)
        assert state.shape == (4, 4)
        assert 0.0 < check <= 1.0

    def test_matches_bruteforce_everywhere(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            p = random_symmetric_params(rng)
            ccs = symmetric_ccs(p)
            closed, _ = symmetric_fidelity(p)
            assert abs(ccs.fidelity_check - closed.fidelity) < 1e-8


class TestClassicalCorrelation:
    def test_rejects_general_x(self):
        with pytest.raises(NotSymmetricFamily):
            classical_correlation_symmetric(XStateParams(0.4, 0.3, 0.2, 0.1))

    def test_maximally_mixed_is_zero(self):
        value, product = classical_correlation_symmetric(werner_params(0.0))
        assert value == 0.0
        assert_allclose(product, I4 / 4.0, atol=0)

    def test_bell_is_one(self):
        value, _ = classical_correlation_symmetric(BELL)
        assert abs(value - 1.0) < 1e-12

    def test_werner_half(self):
        value, _ = classical_correlation_symmetric(werner_params(0.5))
        assert abs(value - (2.0 - 3.0 * np.sqrt(0.125) - np.sqrt(0.625))) < 1e-12

    def test_equals_transported_distance_to_product(self):
        # C equals the squared Bures distance from the Bell-diagonal
        # frame of the state to I/4
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = random_symmetric_params(rng)
            value, _ = classical_correlation_symmetric(p)
            moved = bd_state(symmetric_to_bd(p))
            assert abs(value - bures_distance_sq(moved, I4 / 4.0)) < 1e-6

    def test_non_negative(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            value, _ = classical_correlation_symmetric(random_symmetric_params(rng))
            assert value >= -1e-12


class TestXCandidates:
    def test_axial_value_is_objective_at_z(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = random_x_params(rng)
            direct = fidelity_at_direction(x_state(p), MeasurementDirection((0.0, 0.0, 1.0)))
            assert abs(x_fidelity_z(p) - direct) < 1e-9

    def test_equatorial_value_is_objective_at_psi_opt(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            p = random_x_params(rng)
            eq = x_fidelity_equatorial(p)
            d = MeasurementDirection.from_angles(np.pi / 2.0, eq.psi_opt)
            assert abs(eq.fidelity - fidelity_at_direction(x_state(p), d)) < 1e-9

    def test_equatorial_free_when_xy_vanishes(self):
        rng = np.random.default_rng(33)
        p = XStateParams(0.4, 0.3, 0.2, 0.1, x=0.0, y=0.15)
        eq = x_fidelity_equatorial(p)
        assert eq.free_psi
        rho = x_state(p)
        for psi in rng.uniform(0.0, 2.0 * np.pi, size=10):
            d = MeasurementDirection.from_angles(np.pi / 2.0, psi)
            assert abs(fidelity_at_direction(rho, d) - eq.fidelity) < 1e-9

    def test_frozen_example_values(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1, x=0.05, y=0.1)
        assert abs(x_fidelity_z(p) - 0.5 * (1.0 + np.sqrt(0.24) + np.sqrt(0.21))) < 1e-15
        expect = 0.5 + np.sqrt(0.12 + 2.0 * np.sqrt(0.001725))
        assert abs(x_fidelity_equatorial(p).fidelity - expect) < 1e-15

    def test_maximally_mixed_equatorial_is_one(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25)
        assert abs(x_fidelity_equatorial(p).fidelity - 1.0) < 1e-15

    def test_candidates_lower_bound_bruteforce(self):
        rng = np.random.default_rng(34)
        for _ in range(60):
            p = random_x_params(rng)
            cand, _ = x_candidate_discord(p)
            brute = max_fidelity_bruteforce(x_state(p))
            assert cand.fidelity <= brute.fidelity + 1e-9

    def test_breakdown_consistency(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            p = random_x_params(rng)
            result, bd = x_candidate_discord(p)
            assert result.fidelity == max(bd.F_axial, bd.F_equatorial)
            assert bd.chosen in ("axial", "equatorial")
            assert bd.tau >= 0.0 and bd.kappa >= 0.0

    def test_tie_within_branch_tol_lists_both_axes(self):
        # F_eq - F_z is about 1e-13 here and |xy| < BRANCH_TOL: a tie, not
        # a free-psi equatorial optimum
        p = XStateParams(0.3, 0.2, 0.3, 0.2, x=1.6e-7, y=1.6e-7)
        result, bd = x_candidate_discord(p)
        assert 0.0 < bd.F_equatorial - bd.F_axial <= 1e-12
        assert [d.theta for d in result.optimal_directions] == [0.0, np.pi / 2.0]
        assert result.degenerate_family is None
        assert result.fidelity == bd.F_equatorial

    def test_symmetric_family_agreement(self):
        # symmetric_fidelity against the paper's printed a=d, b=c values,
        # chosen by the printed case split on |a-b| vs |x|+|y|
        rng = np.random.default_rng(36)
        for _ in range(200):
            p = random_symmetric_params(rng)
            a, b, ax, ay = p.a, p.b, abs(p.x), abs(p.y)
            axial = 0.5 + np.sqrt(a * a - ay * ay) + np.sqrt(b * b - ax * ax)
            equatorial = 0.5 + np.sqrt((a + ay) * (b + ax)) + np.sqrt((a - ay) * (b - ax))
            gap = abs(a - b) - (ax + ay)
            if gap > BRANCH_TOL:
                printed = axial
            elif gap < -BRANCH_TOL:
                printed = equatorial
            else:
                printed = max(axial, equatorial)
            closed, _ = symmetric_fidelity(p)
            assert abs(closed.fidelity - printed) < 1e-12

    def test_upper_bound_on_discord(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            p = random_x_params(rng)
            bound, witness = discord_upper_bound(p)
            brute = max_fidelity_bruteforce(x_state(p))
            assert bound >= brute.discord - 2e-6
            direct = fidelity_at_direction(x_state(p), witness)
            assert abs(2.0 * (1.0 - np.sqrt(direct)) - bound) < 1e-9


class TestZAxisCcs:
    """The z-axis closest classical state is ccs_from_measurement at z."""

    @staticmethod
    def ccs_z(p):
        return ccs_from_measurement(x_state(p), MeasurementDirection((0.0, 0.0, 1.0)))

    def test_diagonal_and_fidelity(self):
        rng = np.random.default_rng(38)
        for _ in range(100):
            p = random_x_params(rng)
            chi = self.ccs_z(p).state
            assert np.abs(chi - np.diag(np.diag(chi))).max() <= 1e-10
            assert abs(np.trace(chi).real - 1.0) < 1e-10
            assert abs(fidelity(x_state(p), chi) - x_fidelity_z(p)) < 1e-8

    def test_diagonal_input_fixed_point(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1)
        assert np.abs(self.ccs_z(p).state - x_state(p)).max() < 1e-12

    def test_vanishing_coherence_blocks(self):
        # x = 0 leaves only the outer coherence, y = 0 only the inner
        for p in (XStateParams(0.35, 0.3, 0.2, 0.15, x=0.0, y=0.1),
                  XStateParams(0.35, 0.3, 0.2, 0.15, x=0.12, y=0.0),
                  XStateParams(0.15, 0.2, 0.3, 0.35, x=0.0, y=0.0)):
            chi = self.ccs_z(p).state
            assert abs(fidelity(x_state(p), chi) - x_fidelity_z(p)) < 1e-10


class TestCharPoly:
    def test_determinant_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_x_params(rng)
            coeffs = char_poly_coeffs(p, rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi))
            det = np.linalg.det(x_state(p)).real
            assert abs(coeffs.t0 - det) < 1e-12

    def test_reference_state_interior_point(self):
        p = XStateParams(1/3, 1/3, 1/6, 1/6, x=1/6, y=1/6)
        coeffs = char_poly_coeffs(p, 0.5, 0.0)
        assert abs(coeffs.g - (-4.0 / 9.0)) < 1e-15
        assert abs(coeffs.delta - (-1.0 / 3.0)) < 1e-15
        assert coeffs.m_opt is not None
        assert abs(coeffs.m_opt - np.sqrt(0.3)) < 1e-12

    def test_lambda1_profile_reference_values(self):
        p = XStateParams(1/3, 1/3, 1/6, 1/6, x=1/6, y=1/6)
        lam0, g, delta = lambda1_profile(p, 0.0)
        assert abs(lam0 - 1.0 / np.sqrt(6.0)) < 1e-15
        lam1, _, _ = lambda1_profile(p, 1.0)
        assert abs(lam1 - (np.sqrt(2.0) + 1.0) / 6.0) < 1e-15
        lam_star, _, _ = lambda1_profile(p, np.sqrt(0.3))
        assert abs(lam_star - np.sqrt(5.0 / 24.0)) < 1e-15
        assert abs(g - (-4.0 / 9.0)) < 1e-15 and abs(delta - (-1.0 / 3.0)) < 1e-15

    @pytest.mark.parametrize("m", [5.0, -1.0 - 1e-12, float("nan")])
    def test_m_outside_unit_interval_rejected(self, m):
        p = XStateParams(1/3, 1/3, 1/6, 1/6, x=1/6, y=1/6)
        with pytest.raises(InvalidParams):
            lambda1_profile(p, m)
        with pytest.raises(InvalidParams):
            char_poly_coeffs(p, m, 0.0)


class TestDegenerateFidelity:
    def test_requires_preconditions(self):
        with pytest.raises(PreconditionNotMet):
            degenerate_fidelity(XStateParams(0.4, 0.3, 0.2, 0.1, x=0.05))

    def test_frozen_example(self):
        p = XStateParams(0.25, 0.3, 0.3, 0.15, x=0.3)
        value, m_opt, regime = degenerate_fidelity(p)
        assert abs(value - (0.5 + np.sqrt(0.12))) < 1e-14
        assert m_opt == 0.0

    def test_endpoint_rule_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        for kind in ("bc", "ad_bc"):
            for _ in range(30):
                p = random_degenerate_params(rng, kind)
                value, _, _ = degenerate_fidelity(p)
                brute = max_fidelity_bruteforce(x_state(p))
                assert abs(value - brute.fidelity) < 1e-6

    def test_value_is_endpoint_max(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = random_degenerate_params(rng, "ad_bc")
            value, m_opt, _ = degenerate_fidelity(p)
            expect = max(x_fidelity_z(p), x_fidelity_equatorial(p).fidelity)
            assert value == expect
            assert m_opt in (0.0, 1.0) or m_opt == (0.0, 1.0)

    def test_bell_qualifies(self):
        # det factors both vanish for Bell, and the value is 1/2
        value, _, _ = degenerate_fidelity(BELL)
        assert abs(value - 0.5) < 1e-14

    def test_tie_rule_is_the_candidates(self):
        # m_opt is the pair exactly when the candidate lists both axes, and
        # bures_discord reports the endpoint rule as before: m_opt by the
        # BRANCH_TOL tie of F_z and F_eq, written out here.  F_z = F_eq at
        # |y| = 0.2 on the b = c = |x| = 0.1, a = 0.5, d = 0.3 line, so the
        # near-tie states put F_z - F_eq within about 2.6e-12 of zero
        rng = np.random.default_rng(44)
        states = [random_degenerate_params(rng, kind)
                  for kind in ("bc", "ad", "ad_bc") for _ in range(30)]
        near_tie = [XStateParams(0.5, 0.1, 0.1, 0.3, x=0.1, y=y)
                    for y in 0.2 + 1e-13 * np.arange(-30, 31)]
        near_tie += [XStateParams(p.b, p.a, p.d, p.b, p.y, p.x) for p in near_tie]
        ties = 0
        for p in states + near_tie:
            f_z, f_eq = x_fidelity_z(p), x_fidelity_equatorial(p).fidelity
            if abs(f_z - f_eq) <= BRANCH_TOL:
                want = (0.0, 1.0)
            else:
                want = 1.0 if f_z > f_eq else 0.0
            cand, _ = x_candidate_discord(p)
            value, m_opt, regime = degenerate_fidelity(p)
            assert (m_opt == (0.0, 1.0)) == (len(cand.optimal_directions) == 2)
            assert m_opt == want and value == max(f_z, f_eq)
            result, trail, extra = bures_discord(x_state(p))
            assert trail == ["degenerate_preconditions->degenerate_fidelity"]
            assert extra == {"candidate_gap": 0.0, "degenerate": {"m_opt": want, "regime": regime}}
            assert result.fidelity == value
            ties += want == (0.0, 1.0)
        assert 0 < ties < len(near_tie)


RANK_TWO = XStateParams(0.4, 0.3, 0.2, 0.1, x=np.sqrt(0.06), y=0.2)
GENERAL_X = XStateParams(0.4, 0.3, 0.2, 0.1, x=0.05)


class TestBuresDiscord:
    @pytest.mark.parametrize("params, method, trail", [
        (ODD_PAIR, "auto", "symmetric_family->symmetric_fidelity"),
        (ODD_PAIR, "closed", "closed->symmetric_fidelity"),
        (RANK_TWO, "auto", "degenerate_preconditions->degenerate_fidelity"),
        (RANK_TWO, "closed", "closed->degenerate_fidelity"),
        (GENERAL_X, "auto", "general->candidates+bruteforce"),
        (GENERAL_X, "candidates", "candidates"),
        (GENERAL_X, "bruteforce", "bruteforce"),
    ])
    def test_trail(self, params, method, trail):
        _, got, extra = bures_discord(x_state(params), method)
        assert got == [trail]
        assert next(iter(extra)) == "candidate_gap"

    def test_symmetric_state_uses_case_analysis(self):
        result, _, extra = bures_discord(x_state(ODD_PAIR))
        closed, branch = symmetric_fidelity(ODD_PAIR)
        assert result == closed
        assert list(extra) == ["candidate_gap", "symmetric_branch"]
        assert extra["symmetric_branch"]["case"] == branch.case
        assert extra["candidate_gap"] == closed.fidelity - x_candidate_discord(ODD_PAIR)[0].fidelity

    def test_rank_two_state_uses_endpoint_rule(self):
        result, _, extra = bures_discord(x_state(RANK_TWO))
        assert list(extra) == ["candidate_gap", "degenerate"]
        assert extra["degenerate"] == {"m_opt": 0.0, "regime": "interior"}
        assert result.method == "degenerate"
        assert result.fidelity == degenerate_fidelity(RANK_TWO)[0]
        assert extra["candidate_gap"] == 0.0

    def test_general_x_state_falls_back_to_bruteforce(self):
        result, _, extra = bures_discord(x_state(GENERAL_X))
        cand, breakdown = x_candidate_discord(GENERAL_X)
        assert result.method == "bruteforce"
        assert list(extra) == ["candidate_gap", "candidates"]
        assert extra["candidates"]["F_axial"] == breakdown.F_axial
        assert extra["candidate_gap"] == result.fidelity - cand.fidelity
        assert extra["candidate_gap"] >= -1e-9

    def test_candidates_have_no_gap(self):
        result, _, extra = bures_discord(x_state(GENERAL_X), "candidates")
        assert result == x_candidate_discord(GENERAL_X)[0]
        assert extra["candidate_gap"] is None

    def test_closed_rejects_general_x_state(self):
        with pytest.raises(PreconditionNotMet):
            bures_discord(x_state(GENERAL_X), "closed")

    def test_non_x_input_goes_to_bruteforce(self):
        rho = random_state(np.random.default_rng(5))
        for method in ("auto", "bruteforce"):
            result, trail, extra = bures_discord(rho, method)
            assert result.method == "bruteforce"
            assert trail == ["bruteforce"]
            assert extra == {"candidate_gap": None}

    @pytest.mark.parametrize("method", ["closed", "candidates"])
    def test_non_x_input_rejected_by_x_methods(self, method):
        with pytest.raises(InvalidParams):
            bures_discord(random_state(np.random.default_rng(5)), method)

    @pytest.mark.parametrize("method", DISCORD_METHODS)
    def test_non_hermitian_input_rejected(self, method):
        # an imaginary part on the diagonal is no X-state parameter, so the
        # X paths would drop it; every method validates rho first
        rho = x_state(XStateParams(0.3, 0.2, 0.2, 0.3, 0.1, 0.15))
        rho[0, 0] += 0.2j
        with pytest.raises(NotHermitian):
            bures_discord(rho, method)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParams):
            bures_discord(x_state(ODD_PAIR), "exact")
