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

Two further stability checks live here: the quadratic form
integral of (v'')^2 + 4 (v')^2 for the conformal log-radial diffeomorphism
of the punctured 4-space (strictly positive on nonzero compactly supported
v), and the quartic behaviour of the reduced bienergy along the nullity
direction at n = 2, R = b = 1, where

    E(t) = 1/2 * int_0^{2 pi} [ -t sin(theta) - cos(2 t sin(theta))/2 ]^2 d(theta)

has E'(t) = pi t - pi J1(4t)/2 and fourth derivative 12 pi at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .bumps import _SupportedFunction
from .quadrature import adaptive_integrate, derivative_at_zero


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

def conformal_hessian(v: _SupportedFunction) -> float:
    """Quadratic form integral of (v'')^2 + 4 (v')^2 over the support of v."""
    lo, hi = v.support

    def integrand(u: np.ndarray) -> np.ndarray:
        return v(u, 2) ** 2 + 4.0 * v(u, 1) ** 2

    return adaptive_integrate(integrand, lo, hi)


# -- Bessel function and the nullity-direction energy ----------------------------

def j1(x: float) -> float:
    """Bessel function of the first kind, order one, by its power series.

    Terms are added until they drop below 1e-15 in magnitude; the series is
    alternating for the |x| <= 10 range used here, so the truncation error is
    below the last term.
    """
    if abs(x) > 10.0:
        raise ValueError("series evaluation restricted to |x| <= 10")
    half = x / 2.0
    term = half  # j = 0 term: (x/2) / (0! 1!)
    total = term
    j = 0
    while abs(term) > 1e-15:
        j += 1
        term *= -(half * half) / (j * (j + 1))
        total += term
    return total


def nullity_direction_energy(t: float, rel_tol: float = 1e-12) -> float:
    """E(t): the normalised reduced bienergy along the nullity direction."""

    def integrand(theta: np.ndarray) -> np.ndarray:
        u = -t * np.sin(theta) - 0.5 * np.cos(2.0 * t * np.sin(theta))
        return u * u

    return 0.5 * adaptive_integrate(integrand, 0.0, 2.0 * math.pi, rel_tol=rel_tol)


def nullity_direction_energy_rate(t: float, rel_tol: float = 1e-12) -> float:
    """E'(t), computed by differentiating under the integral sign."""

    def integrand(theta: np.ndarray) -> np.ndarray:
        st = np.sin(theta)
        u = -t * st - 0.5 * np.cos(2.0 * t * st)
        du = -st + st * np.sin(2.0 * t * st)
        return u * du

    return adaptive_integrate(integrand, 0.0, 2.0 * math.pi, rel_tol=rel_tol)


@dataclass(frozen=True)
class BesselNullityReport:
    derivatives_at_zero: tuple[float, float, float]
    ratio_values: tuple[float, ...]
    ratio_mean: float
    ratio_spread: float
    fourth_derivative_normalized: float
    fourth_derivative_target: float

    @property
    def vanishing_ok(self) -> bool:
        return all(abs(d) < 1e-5 for d in self.derivatives_at_zero)

    @property
    def ratio_ok(self) -> bool:
        return self.ratio_spread < 1e-4

    @property
    def fourth_ok(self) -> bool:
        target = self.fourth_derivative_target
        return abs(self.fourth_derivative_normalized - target) <= 0.01 * target

    @property
    def all_ok(self) -> bool:
        return self.vanishing_ok and self.ratio_ok and self.fourth_ok


def bessel_nullity_check(
    t_grid: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
) -> BesselNullityReport:
    """Verify the quartic local-minimum behaviour along the nullity direction.

    (i) the first three derivatives of E at 0 vanish; (ii) E'(t) is a
    constant multiple of pi t - pi J1(4t)/2 on the grid; (iii) after dividing
    out that constant, the fourth derivative of E at 0 equals 12 pi.
    """
    d1 = derivative_at_zero(nullity_direction_energy, 1, h0=0.05, levels=3)
    d2 = derivative_at_zero(nullity_direction_energy, 2, h0=0.05, levels=3)
    d3 = derivative_at_zero(nullity_direction_energy, 3, h0=0.05, levels=3)
    ratios = tuple(
        nullity_direction_energy_rate(t) / (math.pi * t - 0.5 * math.pi * j1(4.0 * t))
        for t in t_grid
    )
    mean = sum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / abs(mean)
    d4 = derivative_at_zero(nullity_direction_energy, 4, h0=0.1, levels=3)
    return BesselNullityReport(
        derivatives_at_zero=(d1, d2, d3),
        ratio_values=ratios,
        ratio_mean=mean,
        ratio_spread=spread,
        fourth_derivative_normalized=d4 / mean,
        fourth_derivative_target=12.0 * math.pi,
    )
