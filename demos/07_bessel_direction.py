"""Along the nullity direction the reduced bienergy has a quartic minimum.

Deforming the critical latitude by t*sin(theta) -- a nullity direction of
the reduced problem at n = 2, R = b = 1 -- changes the reduced bienergy by

    E(t) = 1/2 int_0^{2pi} [ -t sin(theta) - cos(2 t sin(theta))/2 ]^2 d(theta),

whose derivative is exactly pi t - pi J1(4t) / 2.  Both sides are power
series with coefficients in pi Q, computed here exactly (E from Wallis
integrals of powers of sin(theta)).  The first three derivatives at 0
vanish and the fourth equals 12 pi: the direction does not preserve the
bienergy, but the energy has a genuine local minimum along it.
"""

from bihindex.reduced import (
    BESSEL_ORDER,
    bessel_nullity_check,
    bessel_rate_series,
    nullity_direction_energy_series,
)

rep = bessel_nullity_check()

print("=== E(t) / pi as an exact series ===")
terms = [f"{c} t^{i}" for i, c in enumerate(nullity_direction_energy_series(10)) if c]
print("  " + " + ".join(terms).replace("+ -", "- ") + " + ...")

print("\n=== E'(t) against pi t - pi J1(4t)/2, coefficient by coefficient ===")
energy = nullity_direction_energy_series()
rate = [i * c for i, c in enumerate(energy) if i]
for i, (a, b) in enumerate(zip(rate, bessel_rate_series(BESSEL_ORDER - 1))):
    if a or b:
        print(f"  t^{i:<3} E'/pi: {str(a):>22}   Bessel side / pi: {str(b):>22}")

print("\n=== the quartic minimum ===")
d1, d2, d3 = rep.derivatives_at_zero
print(f"  E'(0), E''(0), E'''(0) = {d1}, {d2}, {d3}")
print(f"  coefficient ratios: mean {rep.ratio_mean}, spread {rep.ratio_spread}")
print(f"  normalized E''''(0) = {rep.fourth_derivative_normalized} "
      f"= {float(rep.fourth_derivative_normalized):.12f}  (target {rep.fourth_derivative_target})")
print(f"  all checks pass: {rep.all_ok}")
