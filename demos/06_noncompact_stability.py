"""Strict stability on the real line: the cubic-phase family into S^2.

A cubic phase A = a g^3 + b g^2 + c g + d yields a strictly stable map
whenever a = 0 or b^2 - 3ac <= 0 (the pointwise curvature term
(A'')^2 + 2 A''' A' then stays nonnegative).  Outside the certificate the
quadratic form can genuinely turn negative: the classical witness is
A = g^3 - 2g with a cos^6 normal section.  Every form value below is exact,
an element of Q[pi]; its sign and its float come from an enclosure of pi.
"""

from fractions import Fraction as F

from bihindex.noncompact import (
    COUNTEREXAMPLE_PHASE,
    CubicPhase,
    SectionPair,
    counterexample_value,
    hessian_form,
    integrand_min,
    is_strictly_stable,
)
from bihindex.bumps import PolynomialBump

print("=== the certificate on sample phases ===")
for coeffs in [(0, 1, 0, 0), (1, 0, 1, 0), (2, -1, 3, 5), (1, 0, -2, 0), (1, 3, 1, 0)]:
    phase = CubicPhase(*(F(x) for x in coeffs))
    verdict = is_strictly_stable(phase).value
    wmin = integrand_min(phase)
    print(f"  A with (a,b,c,d)={coeffs}: min curvature term {str(wmin):>6} -> {verdict}")

print("\n=== the negative-energy witness ===")
value = counterexample_value()
print(f"  quadratic form of the cos^6 normal section under A = g^3 - 2g: {float(value):.6f}")
print(f"  exactly {value}")
section = SectionPair(f2=PolynomialBump.make(0, F(7, 5), power=6))
h = hessian_form(COUNTEREXAMPLE_PHASE, section)
print(f"  the normal section (1 - (5g/7)^2)^6 on |g| < 7/5, same phase: {float(h):.9f}")
print(f"  exactly {h} (a polynomial bump gives a rational)")
