"""Exact scalar arithmetic: big integers, Z[sqrt(2)], quadratic surds, Q[pi].

Every number that decides a result here lives in one of four exact domains:

  * plain Python ``int`` (arbitrary precision) -- lattice labels, discriminants;
  * ``QuadExt`` -- elements a + b*sqrt(2), the entries of the block matrices;
  * ``Surd`` -- reals of the shape (p + sign*sqrt(s)) / q, the closed-form
    eigenvalues of the fourth-order second-variation operator;
  * ``QPi`` -- polynomials in pi over Q, the values of the quadratic forms.

Sign and comparison decisions are made without floating point: a single
radical is handled by case analysis on p and p^2 - s, a difference of two
surds by repeated squaring with sign bookkeeping, and an element of Q[pi] by
a rational enclosure of pi, refined until it decides.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# Arbitrary-precision signed integer; Python's int already satisfies the
# closure/no-overflow contract, so it is used directly.
ExactInt = int

SQRT2 = math.sqrt(2.0)


def int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


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
    if s == 0:
        b = 0
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
    if right == 0 or left == right:
        return left
    # opposite signs: compare (a + b sqrt(s))^2 against c^2 t
    d = sign_p_plus_q_sqrt(a * a + b * b * s - c * c * t, 2 * a * b, s)
    if d == 0:
        return 0
    return left if d > 0 else right


class QuadExt:
    """Element a + b*sqrt(2) of the ring Z[sqrt(2)]."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("QuadExt is immutable")

    @classmethod
    def _coerce(cls, x: int | QuadExt) -> QuadExt:
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, int):
            return cls(x, 0)
        return NotImplemented  # type: ignore[return-value]

    def is_rational(self) -> bool:
        return self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: int | QuadExt) -> QuadExt:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: int | QuadExt) -> QuadExt:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: int | QuadExt) -> QuadExt:
        return (-self) + other

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b)

    def __mul__(self, other: int | QuadExt) -> QuadExt:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadExt:
        if n < 0:
            raise ValueError("negative power in Z[sqrt(2)]")
        out = QuadExt(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * SQRT2

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


class Surd:
    """Exact real (p + branch*sqrt(s)) / q with integers p, s >= 0, q > 0.

    Equality and ordering are decided exactly; no canonical form is imposed,
    so e.g. (6 - sqrt(528))/2 and (3 - 2*sqrt(33))  -- entered as
    (3 - sqrt(132))/1 -- compare equal.
    """

    __slots__ = ("p", "s", "q", "branch")

    def __init__(self, p: int, s: int, q: int = 1, branch: int = 1) -> None:
        if s < 0:
            raise ValueError("radicand must be nonnegative")
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        if q < 0:
            p, q = -p, -q
            branch = -branch
        if s == 0:
            branch = 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "branch", branch)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("Surd is immutable")

    @classmethod
    def from_rational(cls, x: int | Fraction) -> Surd:
        f = Fraction(x)
        return cls(f.numerator, 0, f.denominator)

    def sign(self) -> int:
        return sign_p_plus_q_sqrt(self.p, self.branch, self.s)

    def _cmp(self, other: Surd) -> int:
        # sign of self - other = [A + B sqrt(s1) + C sqrt(s2)] / (q1 q2), q's > 0
        a = self.p * other.q - other.p * self.q
        b = self.branch * other.q
        c = -other.branch * self.q
        return sign_two_radicals(a, b, self.s, c, other.s)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Surd.from_rational(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: Surd) -> bool:
        return self._cmp(self._as_surd(other)) < 0

    def __le__(self, other: Surd) -> bool:
        return self._cmp(self._as_surd(other)) <= 0

    def __gt__(self, other: Surd) -> bool:
        return self._cmp(self._as_surd(other)) > 0

    def __ge__(self, other: Surd) -> bool:
        return self._cmp(self._as_surd(other)) >= 0

    @staticmethod
    def _as_surd(x: Surd | int | Fraction) -> Surd:
        if isinstance(x, Surd):
            return x
        return Surd.from_rational(x)

    __hash__ = None  # type: ignore[assignment]  # no canonical form

    def __neg__(self) -> Surd:
        return Surd(-self.p, self.s, self.q, -self.branch)

    def is_rational(self) -> bool:
        if self.s == 0:
            return True
        r = math.isqrt(self.s)
        return r * r == self.s

    def as_fraction(self) -> Fraction:
        if self.s == 0:
            return Fraction(self.p, self.q)
        r = math.isqrt(self.s)
        if r * r != self.s:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.p + self.branch * r, self.q)

    def __float__(self) -> float:
        return (self.p + self.branch * math.sqrt(self.s)) / self.q

    def __repr__(self) -> str:
        return f"Surd(p={self.p}, s={self.s}, q={self.q}, branch={self.branch:+d})"

    def __str__(self) -> str:
        if self.s == 0:
            return str(Fraction(self.p, self.q))
        sgn = "+" if self.branch > 0 else "-"
        core = f"{self.p} {sgn} sqrt({self.s})"
        return f"({core})/{self.q}" if self.q != 1 else f"({core})"


def surd_sign(v: Surd) -> int:
    """Exact sign in {-1, 0, +1} of the real represented by ``v``."""
    return v.sign()


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
    return x if isinstance(x, QPi) else QPi((x,))


@functools.total_ordering
class QPi:
    """Element c0 + c1 pi + ... + cn pi^n of Q[pi], coefficients lowest first.

    pi is transcendental, so two elements are equal exactly when their
    coefficients are, and a nonzero element has a sign that a fine enough
    enclosure of pi decides.  float() gives the correctly rounded value.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        c = [Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.coeffs = tuple(c)

    def __add__(self, other: QPi | int | Fraction) -> QPi:
        a, b = self.coeffs, _qpi(other).coeffs
        a, b = a + (0,) * (len(b) - len(a)), b + (0,) * (len(a) - len(b))
        return QPi(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __sub__(self, other: QPi | int | Fraction) -> QPi:
        return self + _qpi(other) * -1

    def __mul__(self, scalar: int | Fraction) -> QPi:
        return QPi(c * scalar for c in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QPi, int, Fraction)):
            return NotImplemented
        return self.coeffs == _qpi(other).coeffs

    def __lt__(self, other: QPi | int | Fraction) -> bool:
        return (self - other).sign() < 0

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
