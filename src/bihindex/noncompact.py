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
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction

from .bumps import Bump, CosPowerBump, TrigPoly, _rational
from .exact import QPi


class NotProperError(ValueError):
    """Raised when a = b = 0 (the phase is affine and the map harmonic)."""


class Stability(enum.Enum):
    STABLE = "stable"
    NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class CubicPhase:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _rational(getattr(self, name), name))
        if self.a == 0 and self.b == 0:
            raise NotProperError("a = b = 0 gives a harmonic (not proper) map")

    def derivatives(self, center: Fraction) -> tuple[TrigPoly, TrigPoly, TrigPoly]:
        """A', A'', A''' as polynomials in x = g - center."""
        a, b, c, g = self.a, self.b, self.c, center
        d1 = TrigPoly.polynomial((3 * a * g * g + 2 * b * g + c, 6 * a * g + 2 * b, 3 * a))
        return d1, d1.derivative(), d1.derivative(2)


def curvature_integrand(phase: CubicPhase, g: Fraction) -> Fraction:
    """w(g) = (A'')^2 + 2 A''' A' = 72 a^2 g^2 + 48 a b g + 4 b^2 + 12 a c, exact."""
    g = Fraction(g)
    a, b, c = phase.a, phase.b, phase.c
    return 72 * a * a * g * g + 48 * a * b * g + 4 * b * b + 12 * a * c


def integrand_min(phase: CubicPhase) -> Fraction:
    """Exact global minimum of w over the line."""
    a, b, c = phase.a, phase.b, phase.c
    if a == 0:
        return 4 * b * b
    return -4 * (b * b - 3 * a * c)


def is_strictly_stable(phase: CubicPhase) -> Stability:
    """Stable iff a = 0 or b^2 - 3ac <= 0 (exact); the condition is
    sufficient, so the other outcome is NOT_CERTIFIED, never 'unstable'."""
    if phase.a == 0 or phase.b**2 - 3 * phase.a * phase.c <= 0:
        return Stability.STABLE
    return Stability.NOT_CERTIFIED


@dataclass(frozen=True)
class SectionPair:
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


def i2_sections(phase: CubicPhase, section: SectionPair) -> tuple[TrigPoly, TrigPoly]:
    """Image of the section under the fourth-order operator, componentwise,
    each in its own bump's local variable (zero where the bump is None).

    Tangential: f1''''.  Normal: f2'''' + 2 (A')^2 f2'' + 4 A'' A' f2'
    + (4 A''' A' + 3 (A'')^2 + (A')^4) f2.
    """
    tangential = normal = TrigPoly()
    if section.f1 is not None:
        tangential = section.f1.profile().derivative(4)
    if section.f2 is not None:
        f = section.f2.profile()
        ap, app, appp = phase.derivatives(section.f2.center)
        ap2 = ap * ap
        normal = (
            f.derivative(4)
            + 2 * ap2 * f.derivative(2)
            + 4 * app * ap * f.derivative()
            + (4 * appp * ap + 3 * app * app + ap2 * ap2) * f
        )
    return tangential, normal


def i2_pairing(phase: CubicPhase, section: SectionPair) -> QPi:
    """int < I2 V, V >, the pre-integration-by-parts form of the Hessian."""
    tangential, normal = i2_sections(phase, section)
    total = QPi()
    if section.f1 is not None:
        total += section.f1.integral(tangential * section.f1.profile())
    if section.f2 is not None:
        total += section.f2.integral(normal * section.f2.profile())
    return total


COUNTEREXAMPLE_PHASE = CubicPhase(Fraction(1), Fraction(0), Fraction(-2), Fraction(0))
COUNTEREXAMPLE_SECTION = SectionPair(f1=None, f2=CosPowerBump(center=Fraction(0), power=6))


def counterexample_value() -> QPi:
    """Hessian of the cos^6 normal section under A = g^3 - 2g; ~ -3.537 < 0."""
    return hessian_form(COUNTEREXAMPLE_PHASE, COUNTEREXAMPLE_SECTION)


def find_instability_witness(
    phase: CubicPhase, tries: int = 60, seed: int = 0
) -> tuple[SectionPair, QPi] | None:
    """Best-effort search for a section with negative Hessian.

    Tries cos^6 normal bumps with random rational centres within 1 of the
    vertex of w(g), where w is most negative, and returns (section, value)
    for the first whose form is exactly negative.  Finding nothing proves
    nothing -- the certificate is one-sided.
    """
    if is_strictly_stable(phase) is Stability.STABLE:
        return None
    g_min = -phase.b / (3 * phase.a) if phase.a else Fraction(0)
    rng = random.Random(seed)
    for _ in range(tries):
        center = g_min + Fraction(rng.randint(-64, 64), 64)
        section = SectionPair(f2=CosPowerBump(center=center, power=6))
        val = hessian_form(phase, section)
        if val.sign() < 0:
            return section, val
    return None
