"""Two steps of the meridian proof in the discord_core module docstring,
checked symbolically with sympy.

- The characteristic polynomial p of L(u), with the coefficients of
  closed_forms.char_poly_coeffs, depends on c = cos(2 psi + arg xy) only
  through h = kappa c + ac + bd, kappa = 2(1 - m^2)|xy|, and
  dp/dc = -kappa lambda^2.  The symbolic coefficients are checked against
  char_poly_coeffs at seeded random states, so the polynomial is the
  library's.
- The sign of dg/dc reduces to the identity
  a^2 (b+s)(b+t) - b^2 (a+s)(a+t) = (a - b)[ab(s + t) + st(a + b)].
"""

import numpy as np
import sympy as sp

from buresdiscord.closed_forms import char_poly_coeffs
from buresdiscord.sampling import random_x_params

LAM, M, C, KAPPA = sp.symbols("lambda m c kappa", real=True)
A, B, CC, D, AX2, AY2 = sp.symbols("a b c_diag d ax2 ay2", real=True)
H = KAPPA * C + A * CC + B * D
COEFFS = (
    M * (CC + D - A - B),                                      # t3
    M**2 * (A * B - B * CC - A * D + CC * D + AX2 + AY2) - H,  # t2
    M * ((A - D) * (B * CC - AX2) + (B - CC) * (A * D - AY2)),  # t1
    (A * D - AY2) * (B * CC - AX2),                            # t0
)


def test_char_poly_moves_with_c():
    p = LAM**4 + COEFFS[0] * LAM**3 + COEFFS[1] * LAM**2 + COEFFS[2] * LAM + COEFFS[3]
    assert sp.expand(sp.diff(p, C) + KAPPA * LAM**2) == 0
    coeffs = sp.lambdify((M, C, KAPPA, A, B, CC, D, AX2, AY2), COEFFS)
    rng = np.random.default_rng(41)
    for _ in range(5):
        params = random_x_params(rng)
        m, psi = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
        xy = params.x * params.y
        c = np.cos(2.0 * psi + np.angle(xy))
        kappa = 2.0 * (1.0 - m * m) * abs(xy)
        got = coeffs(m, c, kappa, params.a, params.b, params.c, params.d, abs(params.x) ** 2, abs(params.y) ** 2)
        expect = char_poly_coeffs(params, m, psi)
        np.testing.assert_allclose(got, (expect.t3, expect.t2, expect.t1, expect.t0), rtol=0.0, atol=1e-15)


def test_sign_identity():
    a, b, s, t = sp.symbols("a b s t")
    lhs = a**2 * (b + s) * (b + t) - b**2 * (a + s) * (a + t)
    assert sp.expand(lhs - (a - b) * (a * b * (s + t) + s * t * (a + b))) == 0
