"""Along the nullity direction the reduced bienergy has a quartic minimum.

Deforming the critical latitude by t*sin(theta) -- a nullity direction of
the reduced problem at n = 2, R = b = 1 -- changes the reduced bienergy by

    E(t) = 1/2 int_0^{2pi} [ -t sin(theta) - cos(2 t sin(theta))/2 ]^2 d(theta)
         = pi/8 + pi t^2/2 + (pi/8) J0(4t),

whose derivative is exactly pi t - pi J1(4t) / 2.  Both sides are power
series with coefficients in pi Q; the identity is proved at every order
from a base coefficient and the common term ratio of two hypergeometric
terms.  The first three derivatives at 0 vanish and the fourth equals
12 pi: the direction does not preserve the bienergy, but the energy has a
genuine local minimum along it.
"""

from bihindex.reduced import (
    TERM_RATIO,
    bessel_nullity_check,
    bessel_side_coefficient,
    energy_coefficient,
)

rep = bessel_nullity_check()

print("=== E(t) / pi from the closed form ===")
terms = [f"{c} t^{i}" for i in range(11) if (c := energy_coefficient(i))]
print("  " + " + ".join(terms).replace("+ -", "- ") + " + ...")

print("\n=== E'(t) against pi t - pi J1(4t)/2, first coefficients ===")
for j in range(1, 9):
    a, b = 2 * j * energy_coefficient(2 * j), bessel_side_coefficient(j)
    print(f"  t^{2 * j - 1:<3} E'/pi: {str(a):>22}   Bessel side / pi: {str(b):>22}")

print("\n=== the identity at every order, and the quartic minimum ===")
d1, d2, d3 = rep.derivatives_at_zero
print(f"  E'(0), E''(0), E'''(0) = {d1}, {d2}, {d3}")
print(f"  ratio {rep.ratio}, term ratio {TERM_RATIO} on both sides at j = 2..6: "
      f"proved for every order: {rep.ratio_proved}")
print(f"  normalized E''''(0) = {rep.fourth_derivative_normalized} "
      f"= {float(rep.fourth_derivative_normalized):.12f}  (target {rep.fourth_derivative_target})")
print(f"  all checks pass: {rep.all_ok}")
