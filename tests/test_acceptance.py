"""Acceptance suite: the ten package-level criteria, one test each.

Each test prints a single pass/fail line (visible with -s / -rP) and
asserts the stated tolerances.

Criterion 1 checks the printed arithmetic of the worked example at the
reference state (g, delta, m_opt and the rank-two profile lambda1 at
0, 1 and m_opt) and then settles the example's claim that the sphere
maximum beats both candidate axes by more than 1e-4.  It does so with a
certified upper bound U on max F that does not use the optimizer:
F(u) = (1 + ||L(u)||_1)/2 and ||L(u)||_1 is convex and 1-homogeneous in
u, so on a spherical triangle with unit vertices v_i whose plane lies at
distance h from the origin, F <= (1 + max_i ||L(v_i)||_1 / h)/2.  The
maximum of that over a subdivided icosahedron bounds F on the whole
sphere.  At the reference state U lies within 1e-4 of the equatorial
candidate, so the claimed gap is refuted; the test asserts that, that
the brute-force optimizer lands between the candidate and U, and that
the printed interior axis (m_opt, psi_opt) is not a maximizer.
"""

import time

import numpy as np
import pytest

from buresdiscord.closed_forms import (
    bd_transport,
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
    helstrom_success,
    induced_ensemble,
    lambda_matrix,
    max_fidelity_bruteforce,
)
from buresdiscord.linalg import (
    I4,
    bures_distance_sq,
    fidelity,
    herm_eig,
    trace_norm,
)
from buresdiscord.sampling import (
    random_classical_params,
    random_degenerate_params,
    random_direction,
    random_state,
    random_symmetric_params,
    random_unitary,
    random_x_params,
)
from buresdiscord.states import (
    XStateParams,
    classical_state,
    local_unitary,
    symmetric_to_bd,
    x_state,
)

REFERENCE = XStateParams(1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0,
                         x=1.0 / 6.0, y=1.0 / 6.0)
BELL = XStateParams(0.5, 0.0, 0.0, 0.5, y=0.5)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


# Subdivision level of the icosahedral certificate in criterion 1: level
# k has 10 * 4**k + 2 vertices and 20 * 4**k triangles.
CERT_LEVEL = 6
# Allowance added to every vertex trace norm for rounding in sqrt(rho)
# and the eigensolver; both err by a few ulps on matrices of norm <= 1.
CERT_ROUNDING = 1e-12


def _icosphere(level: int) -> tuple:
    """Unit vertices (V, 3) and triangles (T, 3) of an icosahedron whose
    faces are split into four, edge midpoints pushed to the sphere,
    `level` times.  The cones over the triangles tile R^3."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([[-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
                      [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
                      [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1]])
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([[0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
                      [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
                      [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
                      [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]])
    for _ in range(level):
        edges = np.sort(np.concatenate(
            [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
        unique, inverse = np.unique(edges, axis=0, return_inverse=True)
        mid = verts[unique[:, 0]] + verts[unique[:, 1]]
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
        ab, bc, ca = len(verts) + inverse.reshape(3, -1)
        a, b, c = faces.T
        verts = np.concatenate([verts, mid])
        faces = np.concatenate([np.stack(tri, axis=1) for tri in
                                ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))])
    return verts, faces


def _certified_fidelity_bound(rho, level: int) -> tuple:
    """Upper bound on max over unit u of F(u) = (1 + ||L(u)||_1)/2,
    returned with the number of vertices evaluated.

    L(u) = sum_i u_i L(e_i) is linear and the trace norm is convex, so
    any u in the cone over a triangle is p/|p| with p on the flat
    triangle, ||L(p)||_1 <= max_i ||L(v_i)||_1 and |p| >= h.
    """
    verts, faces = _icosphere(level)
    base = np.stack([lambda_matrix(rho, MeasurementDirection(tuple(e)))
                     for e in np.eye(3)])
    lam = np.einsum("ni,ijk->njk", verts, base)
    lam = (lam + np.conj(np.swapaxes(lam, 1, 2))) / 2.0
    norms = np.abs(np.linalg.eigvalsh(lam)).sum(axis=1) + CERT_ROUNDING
    tri = verts[faces]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    h = (np.abs(np.einsum("ni,ni->n", normal, tri[:, 0]))
         / np.linalg.norm(normal, axis=1))
    return 0.5 * (1.0 + float(np.max(norms[faces].max(axis=1) / h))), len(verts)


def test_criterion_01_reference_state_regression():
    coeffs = char_poly_coeffs(REFERENCE, 0.5, 0.0)
    lam0, g, delta = lambda1_profile(REFERENCE, 0.0)
    lam1, _, _ = lambda1_profile(REFERENCE, 1.0)
    m_opt = coeffs.m_opt
    lam_star, _, _ = lambda1_profile(REFERENCE, m_opt)

    arithmetic = {
        "g": abs(g - (-4.0 / 9.0)),
        "delta": abs(delta - (-1.0 / 3.0)),
        "m_opt": abs(m_opt - np.sqrt(3.0 / 10.0)),
        "lam(0)": abs(lam0 - 1.0 / np.sqrt(6.0)),
        "lam(1)": abs(lam1 - (np.sqrt(2.0) + 1.0) / 6.0),
        "lam(m_opt)": abs(lam_star - np.sqrt(5.0 / 24.0)),
    }
    rho = x_state(REFERENCE)
    equatorial = x_fidelity_equatorial(REFERENCE)
    candidates = max(x_fidelity_z(REFERENCE), equatorial.fidelity)
    bound, n_vertices = _certified_fidelity_bound(rho, CERT_LEVEL)
    brute = max_fidelity_bruteforce(rho).fidelity
    f_interior = fidelity_at_direction(
        rho, MeasurementDirection.from_angles(np.arccos(m_opt), equatorial.psi_opt))

    arithmetic_ok = max(arithmetic.values()) <= 1e-12
    gap_refuted = bound - candidates < 1e-4
    brute_ok = candidates - 1e-9 <= brute <= bound
    interior_ok = f_interior < candidates - 1e-4
    _line(1, arithmetic_ok and gap_refuted and brute_ok and interior_ok,
          f"arithmetic max dev {max(arithmetic.values()):.2e} (tol 1e-12); "
          f"certified max F <= {bound:.10f} ({n_vertices} vertices), "
          f"U - candidates = {bound - candidates:.2e} (tol 1e-4); "
          f"brute - candidates = {brute - candidates:.2e}; "
          f"F(m_opt, psi_opt) = {f_interior:.6f}")
    assert arithmetic_ok, arithmetic
    assert gap_refuted, (
        f"certified bound {bound!r} exceeds the candidate value {candidates!r} "
        f"by {bound - candidates:.3e}; a gap above 1e-4 is not ruled out")
    assert brute_ok, (
        f"brute-force maximum {brute!r} outside [candidates - 1e-9, U] = "
        f"[{candidates - 1e-9!r}, {bound!r}]")
    assert interior_ok, (
        f"F at the interior axis (m_opt, psi_opt) = {f_interior!r} is not "
        f"below the candidate value {candidates!r} by more than 1e-4")


def test_criterion_02_symmetric_family_exactness():
    rng = np.random.default_rng(2002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        p = random_symmetric_params(rng)
        closed, _ = symmetric_fidelity(p)
        brute = max_fidelity_bruteforce(x_state(p))
        worst = max(worst, abs(closed.fidelity - brute.fidelity))
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-6 and elapsed <= 60.0
    _line(2, ok, f"500 states, max |closed - brute| = {worst:.2e} "
                 f"(tol 2e-6), {elapsed:.1f}s (limit 60s)")
    assert worst <= 2e-6
    assert elapsed <= 60.0


def test_criterion_03_candidate_bound():
    rng = np.random.default_rng(2003)
    worst_over = 0.0
    worst_under = 0.0
    for _ in range(500):
        p = random_x_params(rng)
        cand, _ = x_candidate_discord(p)
        bound, _ = discord_upper_bound(p)
        brute = max_fidelity_bruteforce(x_state(p))
        worst_over = max(worst_over, cand.fidelity - brute.fidelity)
        worst_under = max(worst_under, brute.discord - bound)
    ok = worst_over <= 1e-9 and worst_under <= 2e-6
    _line(3, ok, f"500 states, candidate excess {worst_over:.2e} (tol 1e-9), "
                 f"bound deficit {worst_under:.2e} (tol 2e-6)")
    assert worst_over <= 1e-9
    assert worst_under <= 2e-6


def test_criterion_04_zero_discord_characterization():
    rng = np.random.default_rng(2004)
    worst = 0.0
    for _ in range(200):
        rho = classical_state(random_classical_params(rng))
        worst = max(worst, max_fidelity_bruteforce(rho).discord)
    bell = max_fidelity_bruteforce(x_state(BELL))
    bell_dev = abs(bell.discord - (2.0 - np.sqrt(2.0)))
    ok = worst <= 1e-6 and bell_dev <= 2e-6
    _line(4, ok, f"200 classical states, max discord {worst:.2e} (tol 1e-6); "
                 f"Bell discord dev {bell_dev:.2e} (tol 2e-6)")
    assert worst <= 1e-6
    assert bell_dev <= 2e-6


def test_criterion_05_local_unitary_invariance():
    rng = np.random.default_rng(2005)
    worst = 0.0
    for _ in range(100):
        rho = x_state(random_x_params(rng))
        moved = local_unitary(rho, random_unitary(rng), random_unitary(rng))
        f0 = max_fidelity_bruteforce(rho).fidelity
        f1 = max_fidelity_bruteforce(moved).fidelity
        worst = max(worst, abs(f0 - f1))
    ok = worst <= 2e-6
    _line(5, ok, f"100 triples, max |F(rho) - F(U rho U+)| = {worst:.2e} (tol 2e-6)")
    assert worst <= 2e-6


def test_criterion_06_discrimination_bridge():
    rng = np.random.default_rng(2006)
    worst_bridge = 0.0
    worst_trace = 0.0
    for _ in range(500):
        rho = random_state(rng)
        d = MeasurementDirection(tuple(random_direction(rng)))
        objective = fidelity_at_direction(rho, d)
        worst_bridge = max(worst_bridge,
                           abs(helstrom_success(induced_ensemble(rho, d)) - objective))
        trace_form = 0.5 * (1.0 + trace_norm(lambda_matrix(rho, d)))
        worst_trace = max(worst_trace, abs(trace_form - objective))
    ok = worst_bridge <= 1e-9 and worst_trace <= 1e-9
    _line(6, ok, f"500 pairs, bridge dev {worst_bridge:.2e}, "
                 f"trace-norm dev {worst_trace:.2e} (tol 1e-9)")
    assert worst_bridge <= 1e-9
    assert worst_trace <= 1e-9


def test_criterion_07_characteristic_polynomial():
    rng = np.random.default_rng(2007)
    worst_coeff = 0.0
    worst_det = 0.0
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
        worst_coeff = max(worst_coeff, abs(coeffs.t3 + e1), abs(coeffs.t2 - e2),
                          abs(coeffs.t1 + e3), abs(coeffs.t0 - e4))
        worst_det = max(worst_det, abs(coeffs.t0 - np.linalg.det(x_state(p)).real))
    ok = worst_coeff <= 1e-10 and worst_det <= 1e-12
    _line(7, ok, f"200 draws, Vieta dev {worst_coeff:.2e} (tol 1e-10), "
                 f"det dev {worst_det:.2e} (tol 1e-12)")
    assert worst_coeff <= 1e-10
    assert worst_det <= 1e-12


def test_criterion_08_classical_correlation():
    mixed = classical_correlation_symmetric(
        XStateParams(0.25, 0.25, 0.25, 0.25))[0]
    bell = classical_correlation_symmetric(BELL)[0]

    rng = np.random.default_rng(2008)
    worst = 0.0
    for _ in range(100):
        p = random_symmetric_params(rng)
        value, _ = classical_correlation_symmetric(p)
        t = bd_transport(p)
        u_full = np.kron(t.u_a, t.u_b)
        moved = u_full @ x_state(p) @ u_full.conj().T
        worst = max(worst, abs(value - bures_distance_sq(moved, I4 / 4.0)))
    ok = mixed == 0.0 and abs(bell - 1.0) <= 1e-12 and worst <= 1e-6
    _line(8, ok, f"C(I/4) = {mixed!r} (exact 0); |C(Bell) - 1| = {abs(bell - 1.0):.2e} "
                 f"(tol 1e-12); 100 states, transport dev {worst:.2e} (tol 1e-6)")
    assert mixed == 0.0
    assert abs(bell - 1.0) <= 1e-12
    assert worst <= 1e-6


def test_criterion_09_ccs_validity():
    rng = np.random.default_rng(2009)
    emitted = []  # (source, ccs state, claimed fidelity)

    # measurement-projector construction on general states
    for _ in range(6):
        rho = x_state(random_x_params(rng))
        d = MeasurementDirection(tuple(random_direction(rng)))
        ccs = ccs_from_measurement(rho, d)
        emitted.append((rho, ccs.state, fidelity_at_direction(rho, d)))

    # projector CCS at z on the pinned rank-two states (b = c = |x|, a = d = |y|)
    for kind in ("bc", "ad"):
        for _ in range(3):
            p = random_degenerate_params(rng, kind)
            ccs = ccs_from_measurement(x_state(p), MeasurementDirection((0.0, 0.0, 1.0)))
            emitted.append((x_state(p), ccs.state, x_fidelity_z(p)))

    # symmetric-family branches (the r families and the generic fallback)
    for p in (XStateParams(0.3, 0.2, 0.2, 0.3, x=0.2, y=0.1),
              XStateParams(0.025, 0.475, 0.475, 0.025, x=0.075, y=0.025)):
        target, _ = symmetric_fidelity(p)
        for r in (-1.0, 0.0, 0.5):
            chi = symmetric_ccs(p, r=r)
            emitted.append((x_state(p), chi.state, target.fidelity))
    for _ in range(4):
        p = random_symmetric_params(rng)
        target, _ = symmetric_fidelity(p)
        emitted.append((x_state(p), symmetric_ccs(p).state, target.fidelity))

    worst_trace = 0.0
    worst_discord = 0.0
    worst_fid = 0.0
    for source, state, claimed in emitted:
        worst_trace = max(worst_trace, abs(np.trace(state).real - 1.0))
        worst_discord = max(worst_discord, max_fidelity_bruteforce(state).discord)
        worst_fid = max(worst_fid, abs(fidelity(source, state) - claimed))

    # unique axial optimum: projector CCS at z must come out diagonal
    worst_offdiag = 0.0
    found = 0
    while found < 10:
        p = random_x_params(rng)
        _, breakdown = x_candidate_discord(p)
        if breakdown.chosen != "axial" or breakdown.F_axial - breakdown.F_equatorial < 1e-6:
            continue
        found += 1
        ccs = ccs_from_measurement(x_state(p), MeasurementDirection((0.0, 0.0, 1.0)))
        off = np.abs(ccs.state - np.diag(np.diag(ccs.state))).max()
        worst_offdiag = max(worst_offdiag, off)

    ok = (worst_trace <= 1e-10 and worst_discord <= 1e-6
          and worst_fid <= 1e-6 and worst_offdiag <= 1e-10)
    _line(9, ok, f"{len(emitted)} emitted states: trace dev {worst_trace:.2e} "
                 f"(tol 1e-10), discord {worst_discord:.2e} (tol 1e-6), "
                 f"fidelity dev {worst_fid:.2e} (tol 1e-6), "
                 f"axial off-diag {worst_offdiag:.2e} (tol 1e-10)")
    assert worst_trace <= 1e-10
    assert worst_discord <= 1e-6
    assert worst_fid <= 1e-6
    assert worst_offdiag <= 1e-10


def test_criterion_10_degenerate_formula():
    rng = np.random.default_rng(2010)
    worst = 0.0
    for kind in ("bc", "ad_bc"):
        for _ in range(50):
            p = random_degenerate_params(rng, kind)
            value, _, _ = degenerate_fidelity(p)
            brute = max_fidelity_bruteforce(x_state(p))
            worst = max(worst, abs(value - brute.fidelity))
    ok = worst <= 1e-6
    _line(10, ok, f"100 precondition states, max |closed - brute| = {worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6
