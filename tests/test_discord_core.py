"""Measurement objective, brute-force optimizer, CCS construction,
discrimination bridge, and the entropic cross-check."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import buresdiscord.discord_core as discord_core
from buresdiscord.discord_core import (
    BNB_EPS,
    EIG_BATCH,
    MAX_EVALS,
    WEYL_MARGIN,
    MeasurementDirection,
    QsdEnsemble,
    _compass_batch,
    _conditional_entropy_factory,
    _directions,
    _lambda_blocks,
    _meridian_margin,
    _objective_batch_factory,
    _on_angles,
    _root,
    ccs_from_measurement,
    dephasing_residual,
    entropic_discord,
    fidelity_at_direction,
    helstrom_success,
    induced_ensemble,
    lambda_matrix,
    max_fidelity_bruteforce,
    mutual_information,
)
from buresdiscord.closed_forms import symmetric_fidelity
from buresdiscord.errors import InvalidParams
from buresdiscord.linalg import (
    I4,
    check_density_matrix,
    fidelity,
    herm_eig,
    psd_sqrt,
    trace_norm,
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
from buresdiscord.states import XStateParams, classical_state, werner_params, x_state

BELL = x_state(XStateParams(0.5, 0.0, 0.0, 0.5, y=0.5))


def _fixed_symmetric_params(rng):
    """An a=d, b=c state whose optimal axis is isolated (axial or equatorial)."""
    while True:
        p = random_symmetric_params(rng)
        if symmetric_fidelity(p)[1].optimal_family == "fixed":
            return p


class TestMeasurementDirection:
    def test_from_angles(self):
        d = MeasurementDirection.from_angles(np.pi / 2.0, 0.0)
        assert_allclose(d.u, [1.0, 0.0, 0.0], atol=1e-15)

    def test_angles_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = random_direction(rng)
            d = MeasurementDirection(tuple(u))
            back = MeasurementDirection.from_angles(d.theta, d.psi)
            assert np.abs(np.asarray(back.u) - u).max() < 1e-12

    def test_sigma_is_hermitian_involution(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sig = MeasurementDirection(tuple(random_direction(rng))).sigma()
            assert np.abs(sig - sig.conj().T).max() < 1e-14
            assert np.abs(sig @ sig - np.eye(2)).max() < 1e-13

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidParams):
            MeasurementDirection((1.0, 1.0, 0.0))


class TestLambdaMatrix:
    def test_trace_is_a_bloch_component(self):
        # tr L(u) equals the A-side Bloch vector dotted with u
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = random_state(rng)
            u = random_direction(rng)
            lam = lambda_matrix(rho, MeasurementDirection(tuple(u)))
            sig = MeasurementDirection(tuple(u)).sigma()
            expect = np.trace(rho @ np.kron(sig, np.eye(2))).real
            assert abs(np.trace(lam).real - expect) < 1e-12

    def test_eigenvalues_match_product_operator(self):
        # L(u) shares its spectrum with (sigma_u x I) rho
        rng = np.random.default_rng(6)
        for _ in range(50):
            rho = random_state(rng)
            d = MeasurementDirection(tuple(random_direction(rng)))
            lam_eigs = herm_eig(lambda_matrix(rho, d)).eigenvalues
            prod = np.kron(d.sigma(), np.eye(2)) @ rho
            prod_eigs = np.sort(np.linalg.eigvals(prod).real)[::-1]
            assert np.abs(lam_eigs - prod_eigs).max() < 1e-10


class TestObjective:
    def test_full_rank_trace_norm_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = random_state(rng)
            d = MeasurementDirection(tuple(random_direction(rng)))
            expect = 0.5 * (1.0 + trace_norm(lambda_matrix(rho, d)))
            assert abs(fidelity_at_direction(rho, d) - expect) < 1e-9

    def test_even_under_flip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rho = random_state(rng)
            u = random_direction(rng)
            f1 = fidelity_at_direction(rho, MeasurementDirection(tuple(u)))
            f2 = fidelity_at_direction(rho, MeasurementDirection(tuple(-u)))
            assert abs(f1 - f2) < 1e-11

    def test_batch_matches_single_direction(self):
        rng = np.random.default_rng(20)
        for rho in [random_state(rng), x_state(random_degenerate_params(rng, kind="bc"))]:
            tp = np.column_stack([rng.uniform(0.0, np.pi, 40), rng.uniform(0.0, 2.0 * np.pi, 40)])
            single = [fidelity_at_direction(rho, MeasurementDirection.from_angles(t, p)) for t, p in tp]
            g = _objective_batch_factory(_lambda_blocks(_root(rho)))(_directions(tp[:, 0], tp[:, 1]))
            assert_allclose(0.5 * (1.0 + g), single, rtol=0.0, atol=1e-13)

    def test_at_least_half(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = fidelity_at_direction(random_state(rng),
                                      MeasurementDirection(tuple(random_direction(rng))))
            assert f >= 0.5 - 1e-12

    def test_bell_is_flat_half(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = MeasurementDirection(tuple(random_direction(rng)))
            assert abs(fidelity_at_direction(BELL, d) - 0.5) < 1e-12

    def test_matches_ccs_fidelity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rho = random_state(rng)
            d = MeasurementDirection(tuple(random_direction(rng)))
            ccs = ccs_from_measurement(rho, d)
            assert abs(ccs.fidelity_check - fidelity_at_direction(rho, d)) < 1e-8


class TestBruteForce:
    def test_maximally_mixed(self):
        res = max_fidelity_bruteforce(I4 / 4.0)
        assert abs(res.fidelity - 1.0) < 1e-10
        assert res.discord < 1e-10
        assert res.degenerate_family == "free_sphere"

    def test_bell_value_and_flat_family(self):
        res = max_fidelity_bruteforce(BELL)
        assert abs(res.fidelity - 0.5) < 1e-10
        assert abs(res.discord - (2.0 - np.sqrt(2.0))) < 1e-9
        assert res.degenerate_family == "free_sphere"

    def test_werner_free_sphere(self):
        res = max_fidelity_bruteforce(x_state(werner_params(0.5)))
        expect = 0.5 + 0.125 + np.sqrt(0.125 * 0.625)
        assert abs(res.fidelity - expect) < 1e-9
        assert res.degenerate_family == "free_sphere"

    def test_family_tags_discriminate(self):
        # a generic state must not be tagged as having a flat optimum set,
        # and a genuinely free psi circle must be detected
        generic = XStateParams(a=0.4, b=0.3, c=0.2, d=0.1, x=0.05, y=0.1)
        assert max_fidelity_bruteforce(x_state(generic)).degenerate_family is None
        equatorial = XStateParams(a=0.2, b=0.3, c=0.3, d=0.2, x=0.25, y=0.0)
        res = max_fidelity_bruteforce(x_state(equatorial))
        assert res.degenerate_family == "free_psi"
        fixed_psi = XStateParams(a=0.2, b=0.3, c=0.3, d=0.2, x=0.2, y=0.1)
        assert max_fidelity_bruteforce(x_state(fixed_psi)).degenerate_family is None

    def test_classical_states_have_zero_discord(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = classical_state(random_classical_params(rng))
            res = max_fidelity_bruteforce(rho)
            assert res.discord <= 1e-6

    def test_beats_every_grid_direction(self):
        rng = np.random.default_rng(13)
        rho = x_state(random_x_params(rng))
        res = max_fidelity_bruteforce(rho)
        for _ in range(200):
            d = MeasurementDirection(tuple(random_direction(rng)))
            assert fidelity_at_direction(rho, d) <= res.fidelity + 1e-7

    def test_discord_consistency(self):
        rng = np.random.default_rng(14)
        res = max_fidelity_bruteforce(x_state(random_x_params(rng)))
        assert abs(res.discord - 2.0 * (1.0 - np.sqrt(res.fidelity))) < 1e-12

    def test_never_below_best_scan_cell(self):
        # the certified interval holds every cell of a 64 x 128 (theta, psi)
        # scan's upper half: fidelity_upper is above each and the certified
        # maximum at most BNB_EPS below the best
        thetas, psis = np.meshgrid(np.linspace(0.0, np.pi, 64)[:32],
                                   np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False), indexing="ij")
        cells = _directions(thetas.ravel(), psis.ravel())
        rng = np.random.default_rng(17)
        arc = XStateParams(0.35, 0.15, 0.15, 0.35, 0.12 * np.exp(0.7j), 0.08 * np.exp(-0.3j))
        states = ([x_state(random_x_params(rng)) for _ in range(4)]
                  + [random_state(rng) for _ in range(4)]
                  + [x_state(werner_params(w)) for w in (0.0, 0.3, 1.0)]
                  + [x_state(arc)])
        for rho in states:
            best_cell = 0.5 * (1.0 + _objective_batch_factory(_lambda_blocks(_root(rho)))(cells).max())
            res = max_fidelity_bruteforce(rho)
            assert res.fidelity >= best_cell - BNB_EPS
            assert res.fidelity_upper >= best_cell

    def test_scan_evaluates_the_upper_half_only(self, monkeypatch):
        # entropic_discord scans the start mesh split five times: the upper
        # hemisphere (2113 vertices) for a non-X state, the quarter meridian
        # (33) for an X-state
        batches = []

        def counting_factory(rho):
            fn = _conditional_entropy_factory(rho)

            def counted(u):
                batches.append(u.shape[0])
                return fn(u)
            return counted

        monkeypatch.setattr(discord_core, "_conditional_entropy_factory", counting_factory)
        entropic_discord(random_state(np.random.default_rng(18)))
        assert batches[0] == 2113
        batches.clear()
        entropic_discord(x_state(random_x_params(np.random.default_rng(18))))
        assert batches[0] == 33

    def test_branch_and_bound_batches(self, monkeypatch):
        # the first batch is the five upper octahedron vertices for a non-X
        # state and the two ends of the quarter meridian for an X-state, eigvalsh
        # never takes more than EIG_BATCH rows, and both stay under
        # MAX_EVALS evaluations
        batches, eig_rows = [], []
        eigvalsh = np.linalg.eigvalsh

        def counting_factory(blocks):
            fn = _objective_batch_factory(blocks)

            def counted(u):
                batches.append(u.copy())
                return fn(u)
            return counted

        def counting_eigvalsh(a):
            eig_rows.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(discord_core, "_objective_batch_factory", counting_factory)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        max_fidelity_bruteforce(random_state(np.random.default_rng(18)))
        assert_allclose(batches[0], [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        assert sum(b.shape[0] for b in batches) < MAX_EVALS
        batches.clear()
        params = random_x_params(np.random.default_rng(18))
        max_fidelity_bruteforce(x_state(params))
        psi0 = -(np.angle(params.x) + np.angle(params.y)) / 2.0
        assert_allclose(batches[0], [[0, 0, 1], [np.cos(psi0), np.sin(psi0), 0]], rtol=0.0, atol=1e-15)
        assert sum(b.shape[0] for b in batches) < MAX_EVALS
        fn = _objective_batch_factory(_lambda_blocks(_root(random_state(np.random.default_rng(19)))))
        fn(np.tile([0.0, 0.0, 1.0], (EIG_BATCH + 3, 1)))
        assert max(eig_rows) == EIG_BATCH == 4096 and eig_rows[-1] == 3

    def test_free_theta_arc_through_a_pole(self):
        # the refined optimum of a boundary state lands on a pole, where psi
        # says nothing about where the arc runs
        found = XStateParams(0.3, 0.2, 0.2, 0.3, x=0.05, y=0.05)
        assert max_fidelity_bruteforce(x_state(found)).degenerate_family == "free_theta"
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = random_boundary_arc_params(rng)
            assert symmetric_fidelity(p)[1].optimal_family == "free_theta"
            assert max_fidelity_bruteforce(x_state(p)).degenerate_family == "free_theta"

    def test_isolated_optima_get_no_family(self):
        rng = np.random.default_rng(24)
        states = ([x_state(_fixed_symmetric_params(rng)) for _ in range(10)]
                  + [x_state(random_x_params(rng)) for _ in range(5)]
                  + [random_state(rng) for _ in range(5)]
                  + [x_state(random_degenerate_params(rng, kind="bc")) for _ in range(5)]
                  + [classical_state(random_classical_params(rng)) for _ in range(5)])
        for rho in states:
            assert max_fidelity_bruteforce(rho).degenerate_family is None

    def test_axes_match_the_symmetric_closed_form(self):
        # every reported axis of an isolated a=d, b=c optimum lies within
        # 1e-5 (the golden CLI axis tolerance) of the exact axis, up to sign
        rng = np.random.default_rng(5)
        for _ in range(150):
            p = _fixed_symmetric_params(rng)
            exact = np.asarray(symmetric_fidelity(p)[0].optimal_directions[0].u)
            for d in max_fidelity_bruteforce(x_state(p)).optimal_directions:
                u = np.asarray(d.u)
                assert min(np.linalg.norm(u - exact), np.linalg.norm(u + exact)) < 1e-5

    def test_flat_x_optimum_certifies(self):
        # the 681st state of the benchmark's general_x order at seed 11: its
        # optimum is flat but not free, and the search of the whole sphere
        # stopped at MAX_EVALS, 1.8e-8 short of a certificate; the quarter
        # meridian certifies it
        params = XStateParams(0.23212481552445258, 0.27521489971054086, 0.26056665607924484,
                              0.23209362868576172, 0.027457123713844376 - 0.011619651109412727j,
                              -0.006539953352175827 + 0.004443432909549713j)
        rho = x_state(params)
        res = max_fidelity_bruteforce(rho)
        assert res.degenerate_family is None
        assert abs(res.fidelity - 0.9982969631952363) <= BNB_EPS
        assert res.fidelity_upper - res.fidelity <= BNB_EPS + WEYL_MARGIN + _meridian_margin(_root(rho))

    @pytest.mark.parametrize("eps, family", [
        (0.0, "free_psi"), (1e-300, "free_psi"), (1e-14, "free_psi"), (1e-12, "free_psi"),
        (1e-10, "free_psi"), (1e-8, "free_psi"), (1e-6, None), (1e-4, None),
    ])
    def test_free_psi_tag_at_small_xy(self, eps, family):
        # the zero coherence of a free-psi state replaced by eps: the circle
        # stays tied while F moves by less than the tie tolerance along it
        rng = np.random.default_rng(37)
        for _ in range(10):
            p = random_free_psi_params(rng)
            small = eps * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            p = XStateParams(p.a, p.b, p.c, p.d, p.x if p.x else small, p.y if p.y else small)
            assert max_fidelity_bruteforce(x_state(p)).degenerate_family == family

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        rho = x_state(random_x_params(rng))
        a = max_fidelity_bruteforce(rho)
        b = max_fidelity_bruteforce(rho)
        assert a.fidelity == b.fidelity
        assert a.optimal_directions == b.optimal_directions


class TestCompassSearch:
    def test_rotated_quadratic(self):
        # condition number 20, minimum off the starting points
        centre = np.array([0.3, -0.2])
        rot = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
        hess = rot @ np.diag([1.0, 20.0]) @ rot.T

        def quadratic(p):
            d = p - centre
            return np.einsum("ni,ij,nj->n", d, hess, d)

        starts = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.5]])
        pts, vals = _compass_batch(quadratic, starts, (0.1, 0.1))
        assert np.abs(pts - centre).max() < 1e-5
        assert_allclose(vals, quadratic(pts), rtol=0.0, atol=0.0)

    def test_constant_objective_costs_one_trial_batch(self):
        batches = []

        def constant(p):
            batches.append(p.shape[0])
            return np.full(p.shape[0], 0.7)

        starts = np.array([[0.1, 0.2], [1.0, 3.0], [2.0, 5.0]])
        pts, _ = _compass_batch(constant, starts, (0.1, 0.1))
        assert batches == [3, 12]
        assert np.array_equal(pts, starts)

    def test_never_above_its_start(self):
        rng = np.random.default_rng(22)
        fn = _on_angles(_objective_batch_factory(_lambda_blocks(_root(random_state(rng)))))
        starts = np.column_stack([rng.uniform(0.0, np.pi, 20), rng.uniform(0.0, 2.0 * np.pi, 20)])
        _, vals = _compass_batch(fn, starts, (0.3, 0.3))
        assert np.all(vals <= fn(starts))


class TestMirroredScan:
    @pytest.mark.parametrize("factory", [
        pytest.param(lambda rho: _objective_batch_factory(_lambda_blocks(_root(rho))),
                     id="_objective_batch_factory"),
        _conditional_entropy_factory,
    ])
    def test_mirrored_half_matches_direct_scan(self, factory):
        # both objectives are even in u, which lets both searches scan the
        # upper hemisphere of a non-X state only: f(-u) = f(u)
        rng = np.random.default_rng(19)
        states = ([x_state(random_x_params(rng)) for _ in range(3)]
                  + [random_state(rng) for _ in range(3)]
                  + [x_state(random_degenerate_params(rng, kind="bc")) for _ in range(3)])
        for rho in states:
            fn = factory(rho)
            u = np.array([random_direction(rng) for _ in range(200)])
            assert_allclose(fn(-u), fn(u), rtol=0.0, atol=1e-14)


class TestCcs:
    def test_unit_trace_and_psd(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            rho = random_state(rng)
            d = MeasurementDirection(tuple(random_direction(rng)))
            ccs = ccs_from_measurement(rho, d)
            check_density_matrix(ccs.state)

    def test_ccs_is_a_classical(self):
        # measuring along the construction axis leaves the state fixed
        rng = np.random.default_rng(17)
        for _ in range(10):
            rho = random_state(rng)
            d = MeasurementDirection(tuple(random_direction(rng)))
            ccs = ccs_from_measurement(rho, d)
            res = max_fidelity_bruteforce(ccs.state)
            assert res.discord <= 1e-6

    def test_two_tuple_unpacking(self):
        state, check = ccs_from_measurement(I4 / 4.0, MeasurementDirection((0.0, 0.0, 1.0)))
        assert state.shape == (4, 4)
        assert abs(check - 1.0) < 1e-12

    def test_classical_input_is_fixed_point(self):
        rng = np.random.default_rng(18)
        cp = random_classical_params(rng)
        rho = classical_state(cp)
        ccs = ccs_from_measurement(rho, MeasurementDirection(tuple(cp.r)))
        assert np.abs(ccs.state - rho).max() < 1e-10
        assert abs(ccs.fidelity_check - 1.0) < 1e-10

    def test_degenerate_projector_flagged(self):
        # Bell at any axis gives L(u) = 0, so the projector cut is ambiguous
        ccs = ccs_from_measurement(BELL, MeasurementDirection((0.0, 0.0, 1.0)))
        assert ccs.degenerate_projector
        # I/4 at z has eigenvalues (1/4, 1/4, -1/4, -1/4): the cut is sharp
        sharp = ccs_from_measurement(I4 / 4.0, MeasurementDirection((0.0, 0.0, 1.0)))
        assert not sharp.degenerate_projector


class TestDephasingResidual:
    def test_bell_at_z_is_half(self):
        # dephasing along z removes the two 1/2 coherences of the Bell state
        assert dephasing_residual(BELL, MeasurementDirection((0.0, 0.0, 1.0))) == 0.5

    def test_classical_state_own_axis_and_perpendicular(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cp = random_classical_params(rng)
            rho = classical_state(cp)
            r = np.asarray(cp.r)
            perp = np.cross(r, random_direction(rng))
            perp /= np.linalg.norm(perp)
            assert dephasing_residual(rho, MeasurementDirection(tuple(r))) < 1e-15
            assert dephasing_residual(rho, MeasurementDirection(tuple(perp))) > 1e-3

    def test_ccs_residual_along_its_axis(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            d = MeasurementDirection(tuple(random_direction(rng)))
            ccs = ccs_from_measurement(random_state(rng), d)
            assert dephasing_residual(ccs.state, d) <= 1e-10


class TestDiscrimination:
    def test_bridge_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            rho = random_state(rng)
            d = MeasurementDirection(tuple(random_direction(rng)))
            ens = induced_ensemble(rho, d)
            assert abs(helstrom_success(ens) - fidelity_at_direction(rho, d)) < 1e-9

    def test_orthogonal_states_perfectly_distinguishable(self):
        ens = QsdEnsemble(
            priors=(0.5, 0.5),
            rho0=np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
            rho1=np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex),
        )
        assert abs(helstrom_success(ens) - 1.0) < 1e-12

    def test_identical_states_give_prior(self):
        ens = QsdEnsemble(priors=(0.7, 0.3), rho0=I4 / 4.0, rho1=I4 / 4.0)
        assert abs(helstrom_success(ens) - 0.7) < 1e-12

    def test_maximally_mixed_ensemble(self):
        # both induced states equal I/4, so success is the larger prior;
        # for I/4 the priors are (1/2, 1/2) at every direction
        ens = induced_ensemble(I4 / 4.0, MeasurementDirection((0.0, 0.0, 1.0)))
        assert_allclose(ens.priors, [0.5, 0.5], atol=1e-13)
        assert abs(helstrom_success(ens) - 1.0) < 1e-12

    def test_vanishing_prior_branch(self):
        # A-side pure state pointing at +z: the -z outcome never fires
        rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0).astype(complex)
        ens = induced_ensemble(rho, MeasurementDirection((0.0, 0.0, 1.0)))
        assert ens.priors[1] < 1e-12
        assert abs(helstrom_success(ens) - 1.0) < 1e-10


class TestEntropic:
    def test_bell_values(self):
        cc, disc = entropic_discord(BELL)
        assert abs(cc - 1.0) < 1e-6
        assert abs(disc - 1.0) < 1e-6

    def test_product_state_no_correlations(self):
        rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
        assert abs(mutual_information(rho)) < 1e-10
        cc, disc = entropic_discord(rho)
        assert abs(cc) < 1e-6 and abs(disc) < 1e-6

    def test_classical_state_zero_discord(self):
        rng = np.random.default_rng(20)
        rho = classical_state(random_classical_params(rng))
        cc, disc = entropic_discord(rho)
        assert abs(disc) < 1e-6
        assert cc >= -1e-9

    def test_additivity(self):
        rng = np.random.default_rng(21)
        rho = random_state(rng)
        cc, disc = entropic_discord(rho)
        assert abs((cc + disc) - mutual_information(rho)) < 1e-10
