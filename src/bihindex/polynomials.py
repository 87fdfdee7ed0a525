"""Integer polynomials with exact evaluation and exact real-root counting.

Root counting is done with Sturm sequences over the rationals.  The count of
distinct roots in (-inf, 0) / (0, +inf) comes from sign variations of the
Sturm chain at -inf, 0, +inf; the multiplicity of the root 0 is read off the
trailing-coefficient valuation.  Counts with multiplicity are only needed
for symmetric matrices, whose real-rooted characteristic polynomials
``matrices.eigenvalue_signs`` counts by Descartes' rule of signs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Literal

Region = Literal["negative", "zero", "positive"]


class IntPolynomial:
    """Univariate polynomial with integer coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_args) -> None:
        raise AttributeError("IntPolynomial is immutable")

    # -- basic structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __call__(self, x: int | Fraction):
        out: int | Fraction = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> IntPolynomial:
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPolynomial:
        if n < 0:
            raise ValueError("negative power")
        out = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


# -- rational polynomial helpers (lists of Fraction, lowest degree first) ----

def _ftrim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _fderiv(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _frem(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Remainder of p divided by the nonzero q."""
    r = list(p)
    dq = len(q) - 1
    lq = q[-1]
    while r and len(r) - 1 >= dq:
        shift = len(r) - 1 - dq
        factor = r[-1] / lq
        for i, c in enumerate(q):
            r[shift + i] -= factor * c
        r = _ftrim(r)
    return r


def _to_fr(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


# -- Sturm machinery ---------------------------------------------------------

def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [list(p), _fderiv(p)]
    while chain[-1]:
        r = _frem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _variations(signs: Iterable[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _sign_at_minus_inf(p: list[Fraction]) -> int:
    lc = p[-1]
    deg = len(p) - 1
    s = 1 if lc > 0 else -1
    return s if deg % 2 == 0 else -s


def _sign_at_plus_inf(p: list[Fraction]) -> int:
    return 1 if p[-1] > 0 else -1


def _sign_at(p: list[Fraction], x: Fraction) -> int:
    v = Fraction(0)
    for c in reversed(p):
        v = v * x + c
    return (v > 0) - (v < 0)


def zero_root_multiplicity(p: IntPolynomial) -> int:
    """Multiplicity of the root 0, i.e. the trailing-coefficient valuation."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    v = 0
    while p.coeffs[v] == 0:
        v += 1
    return v


def _deflate_zero(p: IntPolynomial) -> IntPolynomial:
    v = zero_root_multiplicity(p)
    return IntPolynomial(p.coeffs[v:])


def _count_distinct(p: IntPolynomial, region: Region) -> int:
    q = _deflate_zero(p)
    if q.degree <= 0:
        return 0
    chain = _sturm_chain(_to_fr(q))
    v_at_zero = _variations(_sign_at(c, Fraction(0)) for c in chain)
    if region == "negative":
        v_lo = _variations(_sign_at_minus_inf(c) for c in chain)
        return v_lo - v_at_zero
    v_hi = _variations(_sign_at_plus_inf(c) for c in chain)
    return v_at_zero - v_hi


def count_roots(p: IntPolynomial, region: Region) -> int:
    """Exact real-root count of ``p`` in the given sign region.

    ``zero`` counts the root 0 with multiplicity; ``negative``/``positive``
    count distinct roots.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if region == "zero":
        return zero_root_multiplicity(p)
    if region not in ("negative", "positive"):
        raise ValueError(f"unknown region {region!r}")
    return _count_distinct(p, region)
