"""Compactly supported test sections, and the exact algebra they live in.

Sections are bumps with rational data in their local variable x = u - center:
PolynomialBump (1 - y^2)^p * W(y), y = x/halfwidth (C^{p-1} at its ends; p >= 5
keeps four derivatives continuous), and CosPowerBump cos^p x on |x| <= pi/2
(cos^6 is only C^5, the regularity the instability example needs).  Their
derivatives and products with polynomials are TrigPolys: sums of c x^k cos(w x)
and c x^k sin(w x), c rational and w >= 0 an integer, closed under +, * and
d/dx, and integrated exactly over a rational interval when no term oscillates
(a rational) and over [-pi/2, pi/2] (an element of Q[pi]).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .exact import QPi, exact_rational

COS, SIN = 0, 1
_COS_AT_HALF_PI = (1, 0, -1, 0)  # cos(w pi/2), by w mod 4
_SIN_AT_HALF_PI = (0, 1, 0, -1)


def _put(terms: dict, k: int, w: int, trig: int, c: Fraction) -> None:
    """Add c x^k trig(w x) to terms, folding w < 0 and dropping sin(0 x)."""
    if w < 0:
        w, c = -w, (-c if trig == SIN else c)
    if not c or (trig == SIN and w == 0):
        return
    total = terms.pop((k, w, trig), 0) + c
    if total:
        terms[(k, w, trig)] = total


class TrigPoly:
    """Sum of c x^k cos(w x) and c x^k sin(w x), stored as {(k, w, COS|SIN): c}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int], Fraction] | None = None) -> None:
        self.terms = terms or {}  # in the normal form that _put keeps

    @classmethod
    def polynomial(cls, coeffs) -> TrigPoly:
        """sum_k coeffs[k] x^k."""
        return cls({(k, 0, COS): Fraction(c) for k, c in enumerate(coeffs) if c})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TrigPoly) and self.terms == other.terms

    def __add__(self, other: TrigPoly) -> TrigPoly:
        terms = dict(self.terms)
        for (k, w, trig), c in other.terms.items():
            _put(terms, k, w, trig, c)
        return TrigPoly(terms)

    def __mul__(self, other: TrigPoly | int | Fraction) -> TrigPoly:
        if not isinstance(other, TrigPoly):
            return TrigPoly({key: c * other for key, c in self.terms.items()} if other else {})
        terms: dict = {}
        for (k1, w1, t1), c1 in self.terms.items():
            for (k2, w2, t2), c2 in other.terms.items():
                k, c = k1 + k2, c1 * c2
                if w1 == 0 or w2 == 0:  # a plain power of x times one term
                    _put(terms, k, w1 + w2, t2 if w1 == 0 else t1, c)
                elif t1 == t2:  # cos a cos b, sin a sin b = [cos(a - b) +- cos(a + b)] / 2
                    _put(terms, k, w1 - w2, COS, c / 2)
                    _put(terms, k, w1 + w2, COS, c / 2 if t1 == COS else -c / 2)
                else:  # sin a cos b = [sin(a + b) + sin(a - b)] / 2
                    a, b = (w1, w2) if t1 == SIN else (w2, w1)
                    _put(terms, k, a + b, SIN, c / 2)
                    _put(terms, k, a - b, SIN, c / 2)
        return TrigPoly(terms)

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> TrigPoly:
        out = self
        for _ in range(order):
            terms: dict = {}
            for (k, w, trig), c in out.terms.items():
                if k:
                    _put(terms, k - 1, w, trig, k * c)
                _put(terms, k, w, 1 - trig, -w * c if trig == COS else w * c)
            out = TrigPoly(terms)
        return out

    def antiderivative(self) -> TrigPoly:
        """An F with F' = self, by parts: int x^j cos = x^j sin / w - (j/w) int x^(j-1) sin
        and int x^j sin = -x^j cos / w + (j/w) int x^(j-1) cos."""
        terms: dict = {}
        for (k, w, trig), c in self.terms.items():
            if w == 0:
                _put(terms, k + 1, 0, COS, c / (k + 1))
                continue
            for j in range(k, -1, -1):
                _put(terms, j, w, 1 - trig, c / w if trig == COS else -c / w)
                c = c * j / w if trig == SIN else -c * j / w
                trig = 1 - trig
        return TrigPoly(terms)

    def at_half_pi(self, side: int = 1) -> QPi:
        """The value at x = side * pi/2 (side = +1 or -1), in Q[pi]."""
        coeffs = [Fraction(0)] * (1 + max((k for k, _, _ in self.terms), default=0))
        for (k, w, trig), c in self.terms.items():
            value = _COS_AT_HALF_PI[w % 4] if trig == COS else side * _SIN_AT_HALF_PI[w % 4]
            coeffs[k] += c * value * Fraction(side, 2) ** k
        return QPi(coeffs)

    def integrate_half_period(self) -> QPi:
        """int over [-pi/2, pi/2]."""
        anti = self.antiderivative()
        return anti.at_half_pi(1) - anti.at_half_pi(-1)

    def integrate(self, lo: Fraction, hi: Fraction) -> Fraction:
        """int over [lo, hi] of a TrigPoly with no oscillating term."""
        if any(w for _, w, _ in self.terms):
            raise ValueError("an oscillating term has no rational integral")
        anti = self.antiderivative().terms.items()
        return sum((c * (hi**k - lo**k) for (k, _, _), c in anti), Fraction(0))


class PolynomialBump(NamedTuple("PolynomialBump", [("center", Fraction), ("halfwidth", Fraction),
                                                   ("ycoeffs", tuple[Fraction, ...])])):
    """P((u - center) / halfwidth) for |u - center| < halfwidth, zero outside;
    ycoeffs holds P, lowest degree first."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, center, halfwidth, ycoeffs) -> PolynomialBump:
        center = exact_rational(center, "center")
        halfwidth = exact_rational(halfwidth, "halfwidth")
        ycoeffs = tuple(exact_rational(c, "ycoeff") for c in ycoeffs)
        if halfwidth <= 0:
            raise ValueError("halfwidth must be positive")
        return super().__new__(cls, center, halfwidth, ycoeffs)

    @classmethod
    def make(cls, center, halfwidth, power: int = 6, weights=(1,)) -> PolynomialBump:
        """(1 - y^2)^power * (weights[0] + weights[1] y + ...)."""
        if power < 5:
            raise ValueError("power >= 5 keeps four continuous derivatives")
        poly = [Fraction(0)] * (2 * power + len(weights))
        for i in range(power + 1):
            for j, w in enumerate(weights):
                poly[2 * i + j] += (-1) ** i * math.comb(power, i) * exact_rational(w, "weight")
        return cls(center, halfwidth, tuple(poly))

    def profile(self) -> TrigPoly:
        return TrigPoly.polynomial(c / self.halfwidth**k for k, c in enumerate(self.ycoeffs))

    def integral(self, p: TrigPoly) -> QPi:
        """int of p(x) over the support |x| < halfwidth."""
        return QPi((p.integrate(-self.halfwidth, self.halfwidth),))


class CosPowerBump(NamedTuple("CosPowerBump", [("center", Fraction), ("power", int)])):
    """cos^power(u - center) for |u - center| <= pi/2, zero outside."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, center, power: int) -> CosPowerBump:
        center = exact_rational(center, "center")
        if (power := operator.index(power)) < 6 or power % 2:
            raise ValueError("power must be even and >= 6")
        return super().__new__(cls, center, power)

    def profile(self) -> TrigPoly:
        # cos^p x = 2^-p [ C(p, p/2) + 2 sum_{j=1}^{p/2} C(p, p/2 - j) cos(2 j x) ]
        p, half = self.power, self.power // 2
        return TrigPoly({(0, 2 * j, COS): Fraction((2 if j else 1) * math.comb(p, half - j), 2**p)
                         for j in range(half + 1)})

    def integral(self, p: TrigPoly) -> QPi:
        """int of p(x) over the support |x| <= pi/2."""
        return p.integrate_half_period()


Bump = PolynomialBump | CosPowerBump
