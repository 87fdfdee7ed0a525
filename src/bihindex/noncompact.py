"""Strict stability of the cubic-phase biharmonic lines R -> S^2.

The maps send gamma to (cos A, sin A, 0) with A = a g^3 + b g^2 + c g + d
(a^2 + b^2 > 0 keeps them proper).  For compactly supported sections
V = f1 T + f2 N (T tangent, N normal to the equator) the second-variation
quadratic form integrates by parts into

    int (f1'')^2 + (f2'' + (A')^2 f2)^2 + [(A'')^2 + 2 A''' A'] f2^2,

so positivity of  w(g) = (A'')^2 + 2 A''' A' = 72 a^2 g^2 + 48 a b g
+ 4 b^2 + 12 a c  is a sufficient condition for strict stability.  Its
global minimum is -4 (b^2 - 3 a c) when a != 0 and the constant 4 b^2 when
a = 0, hence the exact certificate: stable when a = 0 or b^2 - 3 a c <= 0.

For a rational phase and bumps with rational data the form is an exact
element of Q[pi]: A' is a polynomial in each bump's local variable
x = g - center, and f1 and f2 never multiply each other, so each term is a
TrigPoly integrated over its own support.  Outside the certificate the form
can turn negative: with A = g^3 - 2 g and f2 = cos^6 on a half-period it is
2079 pi^9/262144 - ... + 186219151800876019 pi/31457280000000 ~ -3.537.

hessian_form is the only route to the form here.  The fourth-order
operator I2 and its pairing int <I2 V, V>, the form before integrating by
parts, are a test oracle (tests/oracles.py); test_integration_by_parts_oracle
checks that both give the same element of Q[pi].
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .bumps import Bump, CosPowerBump, TrigPoly
from .exact import QPi, exact_rational


class NotProperError(ValueError):
    """Raised when a = b = 0 (the phase is affine and the map harmonic)."""


class Stability(enum.Enum):
    STABLE = "stable"
    NOT_CERTIFIED = "not-certified"


class CubicPhase(NamedTuple("CubicPhase", [(x, Fraction) for x in "abcd"])):
    """A = a g^3 + b g^2 + c g + d with exact rational coefficients."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, a, b, c, d=0) -> CubicPhase:
        a, b, c, d = (exact_rational(x, name) for x, name in zip((a, b, c, d), "abcd"))
        if a == 0 and b == 0:
            raise NotProperError("a = b = 0 gives a harmonic (not proper) map")
        return super().__new__(cls, a, b, c, d)

    def derivatives(self, center: Fraction) -> tuple[TrigPoly, TrigPoly, TrigPoly]:
        """A', A'', A''' as polynomials in x = g - center."""
        a, b, c, g = self.a, self.b, self.c, center
        d1 = TrigPoly.polynomial((3 * a * g * g + 2 * b * g + c, 6 * a * g + 2 * b, 3 * a))
        return d1, d1.derivative(), d1.derivative(2)


def integrand_min(phase: CubicPhase) -> Fraction:
    """Exact global minimum of w over the line."""
    a, b, c = phase.a, phase.b, phase.c
    if a == 0:
        return 4 * b * b
    return -4 * (b * b - 3 * a * c)


def is_strictly_stable(phase: CubicPhase) -> Stability:
    """Stable iff the minimum of w is nonnegative (exact); the condition is
    sufficient, so the other outcome is NOT_CERTIFIED, never 'unstable'."""
    return Stability.STABLE if integrand_min(phase) >= 0 else Stability.NOT_CERTIFIED


class SectionPair(NamedTuple):
    """Compactly supported section f1 T + f2 N; None means the zero function."""

    f1: Bump | None = None
    f2: Bump | None = None


def hessian_form(phase: CubicPhase, section: SectionPair) -> QPi:
    """The integrated-by-parts quadratic form of the section, exactly."""
    total = QPi()
    if section.f1 is not None:
        f1dd = section.f1.profile().derivative(2)
        total += section.f1.integral(f1dd * f1dd)
    if section.f2 is not None:
        f = section.f2.profile()
        ap, app, appp = phase.derivatives(section.f2.center)
        inner = f.derivative(2) + ap * ap * f
        total += section.f2.integral(inner * inner + (app * app + 2 * appp * ap) * f * f)
    return total


COUNTEREXAMPLE_PHASE = CubicPhase(Fraction(1), Fraction(0), Fraction(-2), Fraction(0))
COUNTEREXAMPLE_SECTION = SectionPair(f1=None, f2=CosPowerBump(center=Fraction(0), power=6))


def counterexample_value() -> QPi:
    """Hessian of the cos^6 normal section under A = g^3 - 2g; ~ -3.537 < 0."""
    return hessian_form(COUNTEREXAMPLE_PHASE, COUNTEREXAMPLE_SECTION)

