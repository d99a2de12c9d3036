"""
For general X-states the maximal measured fidelity has two closed-form
candidates: a polar-axis value and an equatorial value at the phase that
aligns the two coherences.  Their maximum is a certified lower bound on
the true optimum; this script measures how tight it is on random states
and inspects the characteristic-polynomial machinery behind the analysis.
"""

import numpy as np

from buresdiscord import (
    MeasurementDirection,
    ccs_from_measurement,
    char_poly_coeffs,
    lambda1_profile,
    max_fidelity_bruteforce,
    x_candidate_discord,
    x_fidelity_equatorial,
    x_fidelity_z,
    x_state,
)
from buresdiscord import XStateParams
from buresdiscord.sampling import random_x_params

rng = np.random.default_rng(7)

# --- candidate tightness over random X-states -------------------------
worst = 0.0
axial_wins = 0
for _ in range(200):
    params = random_x_params(rng)
    result, breakdown = x_candidate_discord(params)
    brute = max_fidelity_bruteforce(x_state(params))
    worst = max(worst, brute.fidelity - result.fidelity)
    if breakdown.chosen == "axial":
        axial_wins += 1

print(f"200 random X-states: max (brute - candidate) = {worst:.3e}")
print(f"axial candidate won {axial_wins} times, "
      f"equatorial {200 - axial_wins} times")

# --- one state in detail ----------------------------------------------
params = XStateParams(a=0.4, b=0.3, c=0.2, d=0.1, x=0.05, y=0.1)
f_ax = x_fidelity_z(params)
f_eq = x_fidelity_equatorial(params)
brute = max_fidelity_bruteforce(x_state(params))
print()
print(f"axial candidate      F' = {f_ax:.12f}")
print(f"equatorial candidate F\" = {f_eq.fidelity:.12f}"
      f"  at psi = {f_eq.psi_opt:.6f}")
print(f"brute force          F  = {brute.fidelity:.12f}")

# The closest classical state for the z-axis measurement is diagonal in
# the computational basis and reaches the axial candidate F'; it is the
# closest classical state outright when the axial candidate wins.
z_axis = MeasurementDirection((0.0, 0.0, 1.0))
chi, chi_fidelity = ccs_from_measurement(x_state(params), z_axis)
off = np.abs(chi - np.diag(np.diag(chi))).max()
print(f"axial CCS off-diagonal magnitude: {off:.1e},"
      f" |F(rho, CCS) - F'| = {abs(chi_fidelity - f_ax):.1e}")

# --- characteristic polynomial of the fidelity operator ----------------
# Along the meridian at the optimal phase the eigenvalues of the operator
# under the square root are roots of a monic quartic whose coefficients
# are polynomial in m = cos(theta).  Vieta's formulas against the
# numerically diagonalized operator confirm them (t_k carries the usual
# alternating sign relative to the elementary symmetric polynomial e_k).
m = 0.37
from buresdiscord import herm_eig, lambda_matrix

coeffs = char_poly_coeffs(params, m, f_eq.psi_opt)
direction = MeasurementDirection.from_angles(np.arccos(m), f_eq.psi_opt)
vals = herm_eig(lambda_matrix(x_state(params), direction)).eigenvalues
e1 = vals.sum()
e2 = sum(vals[i] * vals[j] for i in range(4) for j in range(i + 1, 4))
e3 = sum(vals[i] * vals[j] * vals[k]
         for i in range(4) for j in range(i + 1, 4)
         for k in range(j + 1, 4))
e4 = np.prod(vals)
print()
print(f"Vieta check at m = {m}:")
print(f"  t3 {coeffs.t3:+.12f}  vs  -e1 {-e1:+.12f}")
print(f"  t2 {coeffs.t2:+.12f}  vs  +e2 {e2:+.12f}")
print(f"  t1 {coeffs.t1:+.12f}  vs  -e3 {-e3:+.12f}")
print(f"  t0 {coeffs.t0:+.12f}  vs  +e4 {e4:+.12f}")

# The largest root as a function of m decides between the candidates; the
# g and delta invariants classify where the profile can turn around.
lam1, g, delta = lambda1_profile(params, m)
print(f"lambda1({m}) = {lam1:.12f},  g = {g:+.6f},  delta = {delta:+.6f}")
if coeffs.m_opt is None:
    print("no interior stationary point for this state")
elif abs(coeffs.m_opt) <= 1.0:
    print(f"interior stationary point at m_opt = {coeffs.m_opt:.12f}")
else:
    print(f"stationary point m_opt = {coeffs.m_opt:.6f} lies outside"
          " [-1, 1]: the axis endpoint wins")
