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
         = pi/4 + pi t^4/2 - 2 pi t^6/9 + pi t^8/18 - ...

is a power series with coefficients in pi Q (Wallis integrals of powers of
sin(theta)).  Its first three derivatives at 0 vanish, E'(t) equals
pi t - pi J1(4t)/2 coefficient by coefficient, and its fourth derivative at
0 is 12 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .bumps import Bump
from .exact import QPi


class DegenerateThresholdError(ValueError):
    """Raised when the integrality decision cannot be made exactly."""


def _as_fraction(x, name: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (Rational, str)):
        raise DegenerateThresholdError(
            f"{name} must be an exact rational (int, Fraction or rational string); "
            f"got {type(x).__name__} -- the boundary decision would be a float guess"
        )
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise DegenerateThresholdError(f"cannot parse {name}={x!r} as a rational") from exc


@dataclass(frozen=True)
class ReducedProblem:
    """Equivariant problem data; b None means the round sphere target."""

    n: int
    radius: Fraction
    b: Fraction | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2")
        object.__setattr__(self, "radius", _as_fraction(self.radius, "radius"))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.b is not None:
            object.__setattr__(self, "b", _as_fraction(self.b, "b"))
            if self.b <= 0:
                raise ValueError("b must be positive")

    def critical_latitude(self) -> float:
        """The constant latitude of the critical map, in (0, pi/2)."""
        if self.b is None:
            return math.pi / 4
        return 0.5 * math.acos(float((self.b - 1) / (self.b + 1)))

    def quartic_constant(self) -> Fraction:
        """c4 with reduced eigenvalues m^4 - c4."""
        nm1 = self.n - 1
        if self.b is None:
            return Fraction(nm1 * nm1, 1) / self.radius**4
        return Fraction(4 * nm1 * nm1, 1) / (self.b * (self.b + 1) ** 2 * self.radius**4)


@dataclass(frozen=True)
class ReducedSpectrumEntry:
    m: int
    eigenvalue: Fraction
    multiplicity: int


def reduced_spectrum(problem: ReducedProblem, m_max: int) -> list[ReducedSpectrumEntry]:
    c4 = problem.quartic_constant()
    return [
        ReducedSpectrumEntry(m, Fraction(m**4) - c4, 1 if m == 0 else 2)
        for m in range(0, m_max + 1)
    ]


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


# -- the nullity-direction energy as an exact series -----------------------------

BESSEL_ORDER = 24  # E(t) through t^24, so E'(t) is compared through t^23


def nullity_direction_energy_series(order: int = BESSEL_ORDER) -> tuple[Fraction, ...]:
    """(e_0, ..., e_order) with E(t) = pi * sum_i e_i t^i + O(t^(order + 1)).

    With s = sin(theta), u = -t s - cos(2 t s)/2 is a power series in t with
    monomials in s as coefficients; E = 1/2 int u^2 sends each s^p to its
    Wallis integral.
    """
    u = {(1, 1): Fraction(-1)}  # (power of t, power of s) -> coefficient
    for j in range(order // 2 + 1):  # -cos(2 t s)/2 = -1/2 sum_j (-4)^j (t s)^(2j) / (2j)!
        u[(2 * j, 2 * j)] = Fraction(-((-4) ** j), 2 * math.factorial(2 * j))
    coeffs = [Fraction(0)] * (order + 1)
    for (i1, p1), c1 in u.items():
        for (i2, p2), c2 in u.items():
            p = p1 + p2  # int_0^{2 pi} sin^p / (2 pi) = C(p, p/2) / 2^p, and 0 for odd p
            if i1 + i2 <= order and p % 2 == 0:
                coeffs[i1 + i2] += c1 * c2 * Fraction(math.comb(p, p // 2), 2**p)
    return tuple(coeffs)


def bessel_rate_series(order: int) -> tuple[Fraction, ...]:
    """(r_0, ..., r_order) with pi t - pi J1(4t)/2 = pi * sum_i r_i t^i + O(t^(order + 1)),
    from J1(x) = sum_j (-1)^j (x/2)^(2j+1) / (j! (j+1)!)."""
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[1] = Fraction(1)
    for j in range((order - 1) // 2 + 1):
        coeffs[2 * j + 1] -= Fraction((-4) ** j, math.factorial(j) * math.factorial(j + 1))
    return tuple(coeffs)


@dataclass(frozen=True)
class BesselNullityReport:
    derivatives_at_zero: tuple[QPi, QPi, QPi]
    ratio_values: tuple[Fraction, ...]  # E' / (pi t - pi J1(4t)/2), where the latter's != 0
    ratio_mean: Fraction
    ratio_spread: Fraction
    ratio_ok: bool  # E' = ratio_mean (pi t - pi J1(4t)/2), coefficient by coefficient
    fourth_derivative_normalized: QPi
    fourth_derivative_target: QPi

    @property
    def vanishing_ok(self) -> bool:
        return all(d == 0 for d in self.derivatives_at_zero)

    @property
    def fourth_ok(self) -> bool:
        return self.fourth_derivative_normalized == self.fourth_derivative_target

    @property
    def all_ok(self) -> bool:
        return self.vanishing_ok and self.ratio_ok and self.fourth_ok


def bessel_nullity_check() -> BesselNullityReport:
    """Verify the quartic local-minimum behaviour along the nullity direction.

    (i) the first three derivatives of E at 0 vanish; (ii) the series of
    E'(t) is a constant multiple of that of pi t - pi J1(4t)/2 through
    t^(BESSEL_ORDER - 1); (iii) after dividing out that constant, the fourth
    derivative of E at 0 equals 12 pi.  All three are exact equalities.
    """
    e = nullity_direction_energy_series(BESSEL_ORDER)
    rate = tuple(i * c for i, c in enumerate(e) if i)
    bessel = bessel_rate_series(BESSEL_ORDER - 1)
    ratios = tuple(a / b for a, b in zip(rate, bessel) if b)
    mean = sum(ratios) / len(ratios)
    return BesselNullityReport(
        derivatives_at_zero=tuple(QPi((0, math.factorial(r) * e[r])) for r in (1, 2, 3)),
        ratio_values=ratios,
        ratio_mean=mean,
        ratio_spread=(max(ratios) - min(ratios)) / abs(mean),
        ratio_ok=rate == tuple(mean * r for r in bessel),
        fourth_derivative_normalized=QPi((0, 24 * e[4] / mean)),
        fourth_derivative_target=QPi((0, 12)),
    )
