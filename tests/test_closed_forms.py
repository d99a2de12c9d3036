"""Closed-form fidelities, transports, CCS families, classical correlation,
characteristic polynomial, and the rank-two subfamily."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from buresdiscord.closed_forms import (
    bd_transport,
    char_poly_coeffs,
    classical_correlation_symmetric,
    closed_form_discord,
    degenerate_fidelity,
    discord_upper_bound,
    lambda1_profile,
    symmetric_ccs,
    symmetric_fidelity,
    x_candidate_discord,
    x_ccs_z,
    x_fidelity_equatorial,
    x_fidelity_z,
)
from buresdiscord.discord_core import (
    MeasurementDirection,
    fidelity_at_direction,
    max_fidelity_bruteforce,
)
from buresdiscord.errors import NotSymmetricFamily, PreconditionNotMet
from buresdiscord.linalg import I4, bures_distance_sq, fidelity, herm_eig
from buresdiscord.sampling import (
    random_degenerate_params,
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

    def test_symmetric_family_agreement(self):
        # on the a=d, b=c family the candidate maximum is the exact value
        rng = np.random.default_rng(36)
        for _ in range(200):
            p = random_symmetric_params(rng)
            cand, _ = x_candidate_discord(p)
            closed, _ = symmetric_fidelity(p)
            assert abs(cand.fidelity - closed.fidelity) < 1e-12

    def test_upper_bound_on_discord(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            p = random_x_params(rng)
            bound, witness = discord_upper_bound(p)
            brute = max_fidelity_bruteforce(x_state(p))
            assert bound >= brute.discord - 2e-6
            direct = fidelity_at_direction(x_state(p), witness)
            assert abs(2.0 * (1.0 - np.sqrt(direct)) - bound) < 1e-9


class TestXCcsZ:
    def test_diagonal_and_fidelity(self):
        rng = np.random.default_rng(38)
        for _ in range(100):
            p = random_x_params(rng)
            chi = x_ccs_z(p)
            assert np.abs(chi - np.diag(np.diag(chi))).max() <= 1e-10
            assert abs(np.trace(chi).real - 1.0) < 1e-10
            assert abs(fidelity(x_state(p), chi) - x_fidelity_z(p)) < 1e-8

    def test_matches_projector_construction(self):
        from buresdiscord.discord_core import ccs_from_measurement
        rng = np.random.default_rng(39)
        for _ in range(50):
            p = random_x_params(rng)
            chi = x_ccs_z(p)
            general = ccs_from_measurement(x_state(p), MeasurementDirection((0.0, 0.0, 1.0)))
            if general.degenerate_projector:
                continue
            assert np.abs(chi - general.state).max() < 1e-8

    def test_diagonal_input_fixed_point(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1)
        assert np.abs(x_ccs_z(p) - x_state(p)).max() < 1e-12

    def test_vanishing_coherence_blocks(self):
        # x = 0 exercises the inner-block fallback, y = 0 the outer
        for p in (XStateParams(0.35, 0.3, 0.2, 0.15, x=0.0, y=0.1),
                  XStateParams(0.35, 0.3, 0.2, 0.15, x=0.12, y=0.0),
                  XStateParams(0.15, 0.2, 0.3, 0.35, x=0.0, y=0.0)):
            chi = x_ccs_z(p)
            assert abs(fidelity(x_state(p), chi) - x_fidelity_z(p)) < 1e-10


class TestCharPoly:
    def test_vieta_against_eigensolver(self):
        from buresdiscord.discord_core import lambda_matrix
        rng = np.random.default_rng(40)
        for _ in range(200):
            p = random_x_params(rng)
            m = rng.uniform(-1.0, 1.0)
            psi = rng.uniform(0.0, 2.0 * np.pi)
            coeffs = char_poly_coeffs(p, m, psi)
            st = np.sqrt(1.0 - m * m)
            d = MeasurementDirection((st * np.cos(psi), st * np.sin(psi), m))
            lam = herm_eig(lambda_matrix(x_state(p), d)).eigenvalues
            e1 = lam.sum()
            e2 = sum(lam[i] * lam[j] for i in range(4) for j in range(i + 1, 4))
            e3 = sum(lam[i] * lam[j] * lam[k] for i in range(4)
                     for j in range(i + 1, 4) for k in range(j + 1, 4))
            e4 = lam.prod()
            assert abs(coeffs.t3 + e1) < 1e-10
            assert abs(coeffs.t2 - e2) < 1e-10
            assert abs(coeffs.t1 + e3) < 1e-10
            assert abs(coeffs.t0 - e4) < 1e-10

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


class TestClosedFormDiscord:
    def test_symmetric_state_uses_case_analysis(self):
        result, source, detail = closed_form_discord(ODD_PAIR)
        assert source == "symmetric_fidelity"
        assert detail == symmetric_fidelity(ODD_PAIR)[1]
        assert result.method == "symmetric_closed"

    def test_rank_two_state_uses_endpoint_rule(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1, x=np.sqrt(0.06), y=0.2)
        result, source, (m_opt, regime) = closed_form_discord(p)
        assert source == "degenerate_fidelity"
        assert m_opt == 0.0
        assert regime == "interior"
        assert result.method == "degenerate"
        assert result.fidelity == degenerate_fidelity(p)[0]

    def test_general_x_state_raises(self):
        with pytest.raises(PreconditionNotMet):
            closed_form_discord(XStateParams(0.4, 0.3, 0.2, 0.1, x=0.05))
