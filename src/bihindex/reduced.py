"""Reduced (equivariant) index and nullity, and the two stability checks.

For the equivariant family S^{n-1}(R) x S^1 -> target, the restriction of
the second-variation operator to equivariant sections v(theta) d/d(alpha)
is v'''' - c4 * v with a single constant

    c4 = (n-1)^2 / R^4                    (round sphere target)
    c4 = 4 (n-1)^2 / (b (b+1)^2 R^4)      (rotationally symmetric ellipsoid)

so the reduced eigenvalues are m^4 - c4 with multiplicity 1 (m = 0) and 2
(m >= 1).  Writing t = c4^(1/4):

    reduced index   = 1 + 2 floor(t)   and reduced nullity = 0   if t not in N*
    reduced index   = 1 + 2 (t - 1)    and reduced nullity = 2   if t in N*

The boundary decision is made in exact rational arithmetic, so R and b must
be exact rationals; the ellipsoid at b = 1 reduces to the sphere constant.

Two further stability checks live here, both exact: the quadratic form
integral of (v'')^2 + 4 (v')^2 for the conformal log-radial diffeomorphism
of the punctured 4-space (strictly positive on nonzero compactly supported
v, and rational on a polynomial bump with rational data), and the quartic
behaviour of the reduced bienergy along the nullity direction at n = 2,
R = b = 1, where

    E(t) = 1/2 * int_0^{2 pi} [ -t sin(theta) - cos(2 t sin(theta))/2 ]^2 d(theta)
         = pi/8 + pi t^2/2 + (pi/8) J0(4t) = pi/4 + pi t^4/2 - 2 pi t^6/9 + ...

Its first three derivatives at 0 vanish, its fourth is 12 pi, and
E'(t) = pi t - pi J1(4t)/2 at every order (proved in bessel_nullity_check).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .bumps import Bump
from .exact import QPi, exact_rational


class ReducedProblem(NamedTuple("ReducedProblem", [("n", int), ("radius", Fraction),
                                                   ("b", Fraction | None)])):
    """Equivariant problem data; b None means the round sphere target."""

    __slots__ = ()

    def __new__(cls, n: int, radius, b=None) -> ReducedProblem:  # _make and _replace skip it
        if n < 2:
            raise ValueError("need n >= 2")
        radius = exact_rational(radius, "radius")
        if radius <= 0:
            raise ValueError("radius must be positive")
        if b is not None and (b := exact_rational(b, "b")) <= 0:
            raise ValueError("b must be positive")
        return super().__new__(cls, n, radius, b)

    def critical_cos_2alpha(self) -> Fraction:
        """cos 2 alpha = (b - 1)/(b + 1) at the critical latitude alpha, exactly;
        0 for the round sphere."""
        if self.b is None:
            return Fraction(0)
        return (self.b - 1) / (self.b + 1)

    def critical_latitude(self) -> float:
        """The constant latitude of the critical map, in (0, pi/2)."""
        return 0.5 * math.acos(float(self.critical_cos_2alpha()))

    def quartic_constant(self) -> Fraction:
        """c4 with reduced eigenvalues m^4 - c4."""
        nm1 = self.n - 1
        if self.b is None:
            return Fraction(nm1 * nm1, 1) / self.radius**4
        return Fraction(4 * nm1 * nm1, 1) / (self.b * (self.b + 1) ** 2 * self.radius**4)


def _integer_fourth_root_floor(x: Fraction) -> tuple[int, bool]:
    """(floor of x^(1/4), exactness flag) for a positive rational x."""
    p, q = x.numerator, x.denominator
    t = math.isqrt(math.isqrt(p // q))  # floor(sqrt(floor(y))) = floor(sqrt(y)), twice
    return t, t**4 * q == p


def reduced_index_nullity(problem: ReducedProblem) -> tuple[int, int]:
    """(reduced index, reduced nullity), boundary decided exactly."""
    c4 = problem.quartic_constant()
    t, exact = _integer_fourth_root_floor(c4)
    if exact:
        return 1 + 2 * (t - 1), 2
    return 1 + 2 * t, 0


def reduced_index_torus(k: int) -> tuple[int, int]:
    """Reduced (index, nullity) of the degree-k torus map: (1 + 2(k-1), 2).

    The equivariant operator is v'''' - k^4 v, i.e. the sphere problem with
    n = 2, R = 1/k; the threshold k is an integer, so the nullity is 2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return reduced_index_nullity(ReducedProblem(n=2, radius=Fraction(1, k)))


# -- conformal diffeomorphism of the punctured R^4 ------------------------------

def conformal_hessian(v: Bump) -> QPi:
    """Quadratic form integral of (v'')^2 + 4 (v')^2 over the support of v, exactly."""
    d1 = v.profile().derivative()
    d2 = d1.derivative()
    return v.integral(d2 * d2 + 4 * d1 * d1)


# -- the nullity-direction energy in closed form ---------------------------------

TERM_RATIO = "-4/(j(j+1))"  # of the coefficients of t^(2j+1), t^(2j-1) on both sides


def energy_coefficient(i: int) -> Fraction:
    """e_i with E(t) = pi * sum_i e_i t^i.  With s = sin(theta),
    E = 1/2 int [t^2 s^2 + t s cos(2ts) + cos^2(2ts)/4] d(theta); the middle
    term is odd under theta -> -theta, so it integrates to 0, and
    cos^2 x = (1 + cos 2x)/2 with J0(x) = (1/2 pi) int cos(x s) d(theta) gives
    E = pi/8 + pi t^2/2 + (pi/8) J0(4t), J0(4t) = sum_j (-4)^j t^2j / (j!)^2."""
    if i % 2:
        return Fraction(0)
    j = i // 2
    polynomial = {0: Fraction(1, 8), 1: Fraction(1, 2)}.get(j, 0)  # pi/8 + pi t^2/2
    return polynomial + Fraction((-4) ** j, 8 * math.factorial(j) ** 2)


def bessel_side_coefficient(j: int) -> Fraction:
    """Coefficient of t^(2j-1), j >= 1, in t - J1(4t)/2, from
    J1(x) = sum_j (-1)^j (x/2)^(2j+1) / (j! (j+1)!)."""
    j1_term = Fraction((-4) ** (j - 1), math.factorial(j - 1) * math.factorial(j))
    return (1 if j == 1 else 0) - j1_term


class BesselNullityReport(NamedTuple):
    derivatives_at_zero: tuple[QPi, QPi, QPi]
    ratio: Fraction  # of the coefficients of t^3 in E'(t) and in pi t - pi J1(4t)/2
    ratio_proved: bool  # E'(t) = ratio (pi t - pi J1(4t)/2) at every order
    fourth_derivative_normalized: QPi
    fourth_derivative_target: QPi

    @property
    def all_ok(self) -> bool:
        return (
            all(d == 0 for d in self.derivatives_at_zero)
            and self.ratio_proved
            and self.fourth_derivative_normalized == self.fourth_derivative_target
        )


def bessel_nullity_check() -> BesselNullityReport:
    """Prove E'(t) = pi t - pi J1(4t)/2 at every order, and the quartic minimum.

    Let a_j = 2j e_2j and b_j = bessel_side_coefficient(j), the coefficients
    of t^(2j-1) in E'/pi and t - J1(4t)/2; both are 0 at j = 1.  For j >= 2
    they are hypergeometric terms, so (the premise) each term ratio is in
    lowest terms a rational function of j of degree <= 2 over degree <= 2,
    and two such functions that agree at 5 integers are equal: their
    cross-multiplied difference has degree <= 4.  So the base a_2 = ratio * b_2
    and the term ratio -4/(j(j+1)) of a and of b at j = 2..6 prove
    a_j = ratio * b_j for every j.  The ratio is 1.
    """
    def rate(j: int) -> Fraction:
        return 2 * j * energy_coefficient(2 * j)

    ratio = rate(2) / bessel_side_coefficient(2)
    proved = rate(1) == ratio * bessel_side_coefficient(1) and all(
        side(j + 1) == side(j) * Fraction(-4, j * (j + 1))
        for side in (rate, bessel_side_coefficient) for j in range(2, 7)
    )
    return BesselNullityReport(
        derivatives_at_zero=tuple(
            QPi((0, math.factorial(r) * energy_coefficient(r))) for r in (1, 2, 3)),
        ratio=ratio,
        ratio_proved=proved,
        fourth_derivative_normalized=QPi((0, 24 * energy_coefficient(4) / ratio)),
        fourth_derivative_target=QPi((0, 12)),
    )
