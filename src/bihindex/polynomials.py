"""Integer polynomials with exact evaluation and exact real-root counting.

Root counting is done with Sturm sequences of primitive integer polynomials:
each member is a positive multiple of the classical one, found by integer
pseudo-division and content removal; a step whose degree drops by one (the
first step always, and every step of a normal chain) is one closed-form
comprehension.  ``count_roots`` gives the number of distinct roots in
(-inf, 0) or (0, +inf): the difference of the chain's sign variations at 0
and at that region's infinity, both read in one pass off each member's
constant term, leading coefficient and degree.  ``zero_root_multiplicity``
gives the multiplicity of the root 0, the trailing-coefficient valuation.
Counts with multiplicity are only needed for symmetric matrices, whose
real-rooted characteristic polynomials ``matrices.eigenvalue_signs`` counts
by Descartes' rule of signs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterable, Literal

from .exact import Exact

Region = Literal["negative", "positive"]


class IntPolynomial(Exact):
    """Univariate polynomial with integer coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

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


# -- Sturm machinery ---------------------------------------------------------
# A root count reads only the signs of the chain members, so each member may
# be any positive multiple of the classical one.  The chain is kept in
# primitive integer coefficient lists, lowest degree first.  A step whose
# degree drops by one, which is the first step p -> p' always and every step
# of a normal chain, is the closed form of its one division round: with
# lb = lc(b), c1 = lb a_top and c0 = lb a_top-1 - a_top b_top-1,
# lb^2 a - (c1 x + c0) b is lb^2 times the remainder; its two top terms
# vanish and are not formed.  A larger drop takes one pseudo-division round
# per degree.

def _sturm_chain(p: list[int]) -> list[list[int]]:
    a, b = p, [i * c for i, c in enumerate(p)][1:]
    chain = [a, b]
    while len(b) > 1:
        lb = b[-1]
        if len(a) == len(b) + 1:
            # r_i from a_i, b_i-1 (b_-1 = 0) and b_i
            lb2, c1, c0 = lb * lb, lb * a[-1], lb * a[-2] - a[-1] * b[-2]
            r = [lb2 * x - c1 * y - c0 * z for x, y, z in zip(a, (0, *b), b[:-1])]
        else:
            scale, lead = abs(lb), 1 if lb > 0 else -1
            r = a
            for shift in range(len(r) - len(b), -1, -1):
                # r <- |lb| r - sign(lb) lc(r) x^shift b cancels the top term,
                # which is dropped
                top = lead * r[-1]
                r = [scale * c for c in r[:shift]] + [
                    scale * c - top * d for c, d in zip(r[shift:-1], b)]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        g = gcd(*r)  # positive, since r is not zero
        a, b = b, [-c // g for c in r]
        chain.append(b)
    return chain


def zero_root_multiplicity(p: IntPolynomial) -> int:
    """Multiplicity of the root 0, i.e. the trailing-coefficient valuation."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    v = 0
    while p.coeffs[v] == 0:
        v += 1
    return v


def count_roots(p: IntPolynomial, region: Region) -> int:
    """Number of distinct real roots of ``p`` in (-inf, 0) for ``negative``
    or in (0, +inf) for ``positive``, by one Sturm chain of p with its roots
    at 0 divided out; ``zero_root_multiplicity`` counts the root 0."""
    if region not in ("negative", "positive"):
        raise ValueError(f"unknown region {region!r}")
    q = list(p.coeffs[zero_root_multiplicity(p):])
    if len(q) <= 1:
        return 0
    # one pass reads the sign variations at 0 (constant terms, zeros skipped;
    # q[0] != 0) and at the region's infinity (leading coefficients, times
    # (-1)^degree at -inf), starting from the signs of q, the first member
    minus = region == "negative"
    at_zero, at_inf = q[0] < 0, (q[-1] < 0) != (minus and len(q) % 2 == 0)
    v_zero = v_inf = 0
    for c in _sturm_chain(q):
        if c[0] and (c[0] < 0) != at_zero:
            at_zero = not at_zero
            v_zero += 1
        if ((c[-1] < 0) != (minus and len(c) % 2 == 0)) != at_inf:
            at_inf = not at_inf
            v_inf += 1
    return v_inf - v_zero if minus else v_zero - v_inf
