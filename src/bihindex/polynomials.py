"""Integer polynomials with exact evaluation and exact real-root counting.

Root counting is done with Sturm sequences of primitive integer polynomials:
each member is a positive multiple of the classical one, found by integer
pseudo-division and content removal.  The count of distinct roots in
(-inf, 0) / (0, +inf) comes from sign variations of the chain at -inf, 0,
+inf, which are read off each member's leading coefficient, degree and
constant term; the multiplicity of the root 0 is read off the
trailing-coefficient valuation.  Counts with multiplicity are only needed
for symmetric matrices, whose real-rooted characteristic polynomials
``matrices.eigenvalue_signs`` counts by Descartes' rule of signs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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

    def __call__(self, x: int | Fraction):
        out: int | Fraction = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

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


# -- Sturm machinery ---------------------------------------------------------
# A root count reads only the signs of the chain members, so each member may
# be any positive multiple of the classical one.  The chain is kept in
# primitive integer coefficient lists, lowest degree first.

def _sturm_chain(p: list[int]) -> list[list[int]]:
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        b = chain[-1]
        scale, lead = abs(b[-1]), 1 if b[-1] > 0 else -1
        r = chain[-2]
        for shift in range(len(r) - len(b), -1, -1):
            # r <- |lc(b)| r - sign(lc(b)) lc(r) x^shift b cancels the top term,
            # which is dropped
            top = lead * r[-1]
            r = [scale * c for c in r[:shift]] + [
                scale * c - top * d for c, d in zip(r[shift:-1], b)]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        g = gcd(*r)  # positive, since r is not zero
        chain.append([-c // g for c in r])
    return chain


def _variations(values: Iterable[int]) -> int:
    """Sign changes along the nonzero entries of ``values``."""
    neg = [v < 0 for v in values if v]
    return sum(1 for a, b in zip(neg, neg[1:]) if a != b)


def zero_root_multiplicity(p: IntPolynomial) -> int:
    """Multiplicity of the root 0, i.e. the trailing-coefficient valuation."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    v = 0
    while p.coeffs[v] == 0:
        v += 1
    return v


def _count_distinct(p: IntPolynomial, region: Region) -> int:
    q = list(p.coeffs[zero_root_multiplicity(p):])
    if len(q) <= 1:
        return 0
    chain = _sturm_chain(q)
    v_at_zero = _variations(c[0] for c in chain)
    if region == "negative":
        v_lo = _variations(c[-1] if len(c) % 2 else -c[-1] for c in chain)
        return v_lo - v_at_zero
    v_hi = _variations(c[-1] for c in chain)
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
