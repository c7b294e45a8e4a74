"""Checking the closed forms against integration and simulation.

Two independent oracles: composite Gauss-Legendre quadrature of the
defining integrals, with the panel count doubled until two sums agree,
and a seeded Monte-Carlo sampler built on the competing-risks
factorization of the survival function.  The closed form is treated as
ground truth; the oracles exist to catch it lying.
"""

import numpy as np

from gmlife import (
    GmParams,
    annuity,
    integrate_m,
    integrate_survival,
    mc_remaining_life,
    positive_shape_check,
    remaining_life,
)
from gmlife.life import commutation_m

basis = GmParams(alpha=0.001, beta=0.000012, gamma_exp=0.101314)
delta = 0.026559

print("quadrature vs closed form")
for x in (0.0, 40.0, 80.0):
    closed = annuity(basis, delta, x)
    quad = integrate_survival(basis, delta, x, tol=1e-11)
    print(f"  a_bar({x:>4.0f}) closed {closed:.12f}  quadrature {quad.value:.12f}"
          f"  ({quad.evaluations} integrand calls, "
          f"rel diff {abs(closed - quad.value) / quad.value:.1e})")
m_closed = commutation_m(basis, delta, 30.0)
m_quad = integrate_m(basis, delta, 30.0, tol=1e-11)
print(f"  M(30)      closed {m_closed:.12f}  quadrature {m_quad.value:.12f}"
      f"  (rel diff {abs(m_closed - m_quad.value) / m_quad.value:.1e})")

print("\nseeded Monte-Carlo vs closed form (n = 200000 per age)")
rng = np.random.default_rng(12345)
for x in (0.0, 40.0, 65.0):
    est = mc_remaining_life(basis, x, 200_000, rng)
    closed = remaining_life(basis, x)
    dev = abs(est.mean - closed) / est.std_error
    print(f"  e_{x:<4.0f} closed {closed:.4f}  mc {est.mean:.4f} "
          f"+/- {est.std_error:.4f}  ({dev:.2f} standard errors)")

# A basis where hazard+interest exceeds the ageing rate pushes the shape of
# the paper's gamma-CDF expression negative, out of that expression's reach;
# the closed form, one series for every shape, still matches quadrature.
steep = GmParams(alpha=0.08, beta=0.0005, gamma_exp=0.06)
steep_delta = 0.05
shape = positive_shape_check(steep, steep_delta)
closed = annuity(steep, steep_delta, 50.0)
quad = integrate_survival(steep, steep_delta, 50.0, tol=1e-12)
print(f"\nnegative-shape basis (shape = {shape:.4f}):")
print(f"  a_bar(50) closed {closed:.12f}  quadrature {quad.value:.12f}"
      f"  (rel diff {abs(closed - quad.value) / quad.value:.1e})")
