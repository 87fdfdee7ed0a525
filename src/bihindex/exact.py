"""Exact scalar arithmetic: big integers, Z[sqrt(2)], quadratic surds, Q[pi].

Every number that decides a result here lives in one of four exact domains:

  * plain Python ``int`` (arbitrary precision) -- lattice labels, discriminants;
  * ``QuadExt`` -- elements a + b*sqrt(2), the theta frequencies and rule
    coefficients of the blocks (a block itself is the integer pair A, B of
    A + sqrt(2) B);
  * ``Surd`` -- reals of the shape (p + sign*sqrt(s)) / q, the closed-form
    eigenvalues of the fourth-order second-variation operator;
  * ``QPi`` -- polynomials in pi over Q, the values of the quadratic forms.

Each value type derives from ``Exact`` and is immutable.  Integer parts pass
through ``operator.index``, rational parts through ``exact_rational``, and an
operator takes only its own type, an int or (for Surd and QPi) a Fraction, never
a bool, float or text: any other operand gets NotImplemented, so ``==`` is False.

Sign and comparison decisions are made without floating point: a single
radical is handled by case analysis on p and p^2 - s, a difference of two
surds by repeated squaring with sign bookkeeping, and an element of Q[pi] by
a rational enclosure of pi, refined until it decides.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from numbers import Rational
from operator import index


def int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _rational(x) -> Fraction | None:
    """x as a Fraction if it is a rational number and not a bool, else None."""
    return None if isinstance(x, bool) or not isinstance(x, Rational) else Fraction(x)


def exact_rational(x, name: str) -> Fraction:
    """x as a Fraction: TypeError unless x is a rational number and not a bool.
    Text is not parsed here; the CLI turns each rational option into a Fraction."""
    f = _rational(x)
    if f is None:
        raise TypeError(f"{name} must be an exact rational, got {type(x).__name__}")
    return f


def sign_p_plus_q_sqrt(p: int, q: int, s: int) -> int:
    """Exact sign of p + q*sqrt(s) for integers p, q and s >= 0."""
    if s < 0:
        raise ValueError("negative radicand")
    if s == 0 or q == 0:
        return int_sign(p)
    if q < 0:
        return -sign_p_plus_q_sqrt(-p, -q, s)
    # q > 0, s > 0: positive unless p < 0, in which case compare p^2 with q^2 s
    if p >= 0:
        return 1
    return int_sign(q * q * s - p * p)


def sign_two_radicals(a: int, b: int, s: int, c: int, t: int) -> int:
    """Exact sign of a + b*sqrt(s) + c*sqrt(t) (s, t >= 0)."""
    if t == 0:
        c = 0
    if c == 0:
        return sign_p_plus_q_sqrt(a, b, s)
    if b == 0:
        return sign_p_plus_q_sqrt(a, c, t)
    left = sign_p_plus_q_sqrt(a, b, s)   # sign of a + b*sqrt(s)
    right = int_sign(c)                  # sign of c*sqrt(t)
    if left == 0:
        return right
    if left == right:
        return left
    # opposite signs: compare (a + b sqrt(s))^2 against c^2 t
    d = sign_p_plus_q_sqrt(a * a + b * b * s - c * c * t, 2 * a * b, s)
    if d == 0:
        return 0
    return left if d > 0 else right


class Exact:
    """Base of the exact values: __init__ sets the slots, nothing sets them later."""

    __slots__ = ()

    def __setattr__(self, *_args) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class QuadExt(Exact):
    """Element a + b*sqrt(2) of the ring Z[sqrt(2)]."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0) -> None:
        object.__setattr__(self, "a", index(a))
        object.__setattr__(self, "b", index(b))

    @classmethod
    def _coerce(cls, x: int | QuadExt) -> QuadExt:
        if isinstance(x, QuadExt):
            return x
        return cls(x) if isinstance(x, int) and not isinstance(x, bool) else NotImplemented

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: int | QuadExt) -> QuadExt:
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b)

    def __mul__(self, other: int | QuadExt) -> QuadExt:
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else QuadExt(
            self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self.a == o.a and self.b == o.b

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"({self.a}{self.b:+}*sqrt2)"


QUAD_ZERO = QuadExt(0, 0)
QUAD_ONE = QuadExt(1, 0)
QUAD_SQRT2 = QuadExt(0, 1)


class Surd(Exact):
    """Exact real (p + branch*sqrt(s)) / q with integers p, s >= 0, q > 0.

    Equality and ordering are decided exactly; no canonical form is imposed,
    so e.g. (6 - sqrt(528))/2 and (3 - 2*sqrt(33))  -- entered as
    (3 - sqrt(132))/1 -- compare equal.
    """

    __slots__ = ("p", "s", "q", "branch")

    def __init__(self, p: int, s: int, q: int = 1, branch: int = 1) -> None:
        p, s, q, branch = index(p), index(s), index(q), index(branch)
        if s < 0:
            raise ValueError("radicand must be nonnegative")
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        if q < 0:
            p, q = -p, -q
            branch = -branch
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "branch", branch)

    @classmethod
    def _coerce(cls, x: Surd | int | Fraction) -> Surd:
        if isinstance(x, Surd):
            return x
        f = _rational(x)
        return NotImplemented if f is None else cls(f.numerator, 0, f.denominator)

    def sign(self) -> int:
        return sign_p_plus_q_sqrt(self.p, self.branch, self.s)

    def _cmp(self, other: Surd) -> int:
        # sign of self - other = [A + B sqrt(s1) + C sqrt(s2)] / (q1 q2), q's > 0
        a = self.p * other.q - other.p * self.q
        b = self.branch * other.q
        c = -other.branch * self.q
        return sign_two_radicals(a, b, self.s, c, other.s)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._cmp(o) == 0

    def __lt__(self, other: Surd | int | Fraction) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self._cmp(o) < 0

    __hash__ = None  # type: ignore[assignment]  # no canonical form

    def __floor__(self) -> int:
        # sqrt(s) lies in [r, r + 1) for r = isqrt(s), and strictly inside unless s = r^2
        r = math.isqrt(self.s)
        return (self.p + self.branch * r - (self.branch < 0 and r * r != self.s)) // self.q

    def __float__(self) -> float:
        # sqrt(s) to 64 bits past the point, with no float of s; opposite signs take
        # the conjugate form (p^2 - s)/(q (p - branch sqrt(s))), so no digit cancels
        # and the quotient overflows only when the value does
        one, r = 1 << 64, math.isqrt(self.s << 128)
        if self.p * self.branch >= 0:
            return (self.p * one + self.branch * r) / (self.q * one)
        return (self.p * self.p - self.s) * one / (self.q * (self.p * one - self.branch * r))

    def __repr__(self) -> str:
        return f"Surd(p={self.p}, s={self.s}, q={self.q}, branch={self.branch:+d})"

    def __str__(self) -> str:
        if self.s == 0:
            return str(Fraction(self.p, self.q))
        sgn = "+" if self.branch > 0 else "-"
        core = f"{self.p} {sgn} sqrt({self.s})"
        return f"({core})/{self.q}" if self.q != 1 else f"({core})"


# -- the field Q[pi] ------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def pi_enclosure(n: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < pi < lo + 16^-n (n >= 1) from the first n terms of the series
    pi = sum_k 16^-k (4/(8k+1) - 2/(8k+4) - 1/(8k+5) - 1/(8k+6)) of Bailey, Borwein
    and Plouffe: every term is positive, and the tail is below 16^-n 4/(8n+1) 16/15."""
    lo = sum((Fraction(4, 8 * k + 1) - Fraction(2, 8 * k + 4) - Fraction(1, 8 * k + 5)
              - Fraction(1, 8 * k + 6)) / 16**k for k in range(n))
    return lo, lo + Fraction(1, 16**n)


def _qpi(x: QPi | int | Fraction) -> QPi:
    if isinstance(x, QPi):
        return x
    f = _rational(x)
    return NotImplemented if f is None else QPi((f,))


@functools.total_ordering
class QPi(Exact):
    """Element c0 + c1 pi + ... + cn pi^n of Q[pi], coefficients lowest first.

    pi is transcendental, so two elements are equal exactly when their
    coefficients are, and a nonzero element has a sign that a fine enough
    enclosure of pi decides.  float() gives the correctly rounded value.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        c = [exact_rational(x, "coefficient") for x in coeffs]
        while c and not c[-1]:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __add__(self, other: QPi | int | Fraction) -> QPi:
        o = _qpi(other)
        return NotImplemented if o is NotImplemented else QPi(
            x + y for x, y in itertools.zip_longest(self.coeffs, o.coeffs, fillvalue=0))

    __radd__ = __add__

    def __sub__(self, other: QPi | int | Fraction) -> QPi:
        o = _qpi(other)
        return NotImplemented if o is NotImplemented else self + o * -1

    def __mul__(self, scalar: int | Fraction) -> QPi:
        f = _rational(scalar)
        return NotImplemented if f is None else QPi(c * f for c in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = _qpi(other)
        return NotImplemented if o is NotImplemented else self.coeffs == o.coeffs

    def __lt__(self, other: QPi | int | Fraction) -> bool:
        o = _qpi(other)
        return NotImplemented if o is NotImplemented else (self - o).sign() < 0

    def _refine(self, decided) -> Fraction:
        """lo of the first enclosure lo <= self <= hi (n = 16, 32, ... terms) that decides."""
        n = 16
        while True:
            lo = hi = Fraction(0)
            for k, c in enumerate(self.coeffs):
                a, b = (c * p**k for p in pi_enclosure(n))
                lo, hi = lo + min(a, b), hi + max(a, b)
            if decided(lo, hi):
                return lo
            n *= 2

    def sign(self) -> int:
        return int_sign(self._refine(lambda lo, hi: int_sign(lo) == int_sign(hi)))

    def __float__(self) -> float:
        # an element of degree >= 1 is irrational, so never a tie between floats
        return float(self._refine(lambda lo, hi: float(lo) == float(hi)))

    def __repr__(self) -> str:
        return f"QPi({self})"

    def __str__(self) -> str:
        """Highest power first, as in 2079/262144*pi^9 - 12587751/13107200*pi^7."""
        names = ["", "*pi"] + [f"*pi^{k}" for k in range(2, len(self.coeffs))]
        terms = [f"{c}{names[k]}" for k, c in reversed(list(enumerate(self.coeffs))) if c]
        return " + ".join(terms).replace("+ -", "- ") or "0"
