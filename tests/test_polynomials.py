"""Root counting: distinct-root Sturm counts against constructed-root and
bisection oracles.  Counts with multiplicity are eigenvalue sign counts of
symmetric matrices; tests/test_matrices.py covers them."""

import random
from fractions import Fraction

import pytest

from bihindex.legendre import p5_polynomial
from bihindex.polynomials import IntPolynomial, _sturm_chain, count_roots, zero_root_multiplicity

from oracles import poly_product


def test_basic_algebra():
    p = IntPolynomial([1, 2, 3])
    q = IntPolynomial([0, 1])
    assert poly_product(p, q).coeffs == (0, 1, 2, 3)
    assert p(2) == 1 + 4 + 12
    assert p(Fraction(1, 2)) == Fraction(11, 4)
    assert poly_product(q, q, q).coeffs == (0, 0, 0, 1)
    assert poly_product() == IntPolynomial([1])
    assert IntPolynomial([0, 0]).is_zero()


def test_count_roots_examples():
    assert count_roots(IntPolynomial([-1, 0, 1]), "negative") == 1  # x^2 - 1
    assert count_roots(IntPolynomial([-1, 0, 1]), "positive") == 1
    assert count_roots(IntPolynomial([0, 0, 1]), "zero") == 2       # x^2
    assert count_roots(IntPolynomial([2, 0, 1]), "negative") == 0   # x^2 + 2
    assert count_roots(IntPolynomial([0, 1, 1]), "negative") == 1   # x(x+1)
    assert count_roots(IntPolynomial([0, 1, 1]), "zero") == 1


def _poly_from_linear_factors(factors):
    """prod (q x - p) as an IntPolynomial, factors given as Fractions p/q."""
    return poly_product(*(IntPolynomial([-r.numerator, r.denominator]) for r in factors))


def _negated(p):
    return IntPolynomial([-c for c in p.coeffs])


def test_counts_against_constructed_roots():
    rng = random.Random(2024)
    for trial in range(200):
        n_lin = rng.randint(1, 4)
        roots = []
        for _ in range(n_lin):
            num = rng.randint(-6, 6)
            den = rng.randint(1, 4)
            mult = rng.randint(1, 3)
            roots.extend([Fraction(num, den)] * mult)
        p = _poly_from_linear_factors(roots)
        # optionally multiply by an irreducible quadratic (no real roots)
        if rng.random() < 0.5:
            a = rng.randint(1, 3)
            b = rng.randint(-2, 2)
            c = rng.randint(1, 4) + b * b  # discriminant b^2 - 4ac < 0 since 4ac > b^2
            p = poly_product(p, IntPolynomial([c, b, a]))
        distinct = set(roots)
        neg_d = sum(1 for r in distinct if r < 0)
        pos_d = sum(1 for r in distinct if r > 0)
        zero_m = sum(1 for r in roots if r == 0)
        assert count_roots(p, "negative") == neg_d, (trial, roots)
        assert count_roots(p, "positive") == pos_d
        assert count_roots(p, "zero") == zero_m
        # a negative leading coefficient: -p has the same roots, and p(-x)
        # has the roots of p mirrored
        for region in ("negative", "zero", "positive"):
            assert count_roots(_negated(p), region) == count_roots(p, region)
        mirrored = IntPolynomial([c * (-1) ** i for i, c in enumerate(p.coeffs)])
        assert count_roots(mirrored, "negative") == pos_d
        assert count_roots(mirrored, "positive") == neg_d


def _classical_sturm_chain(coeffs):
    """p, p' and the negated remainders, by long division over the rationals."""
    chain = [[Fraction(c) for c in coeffs], [Fraction(i * c) for i, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        while len(r) >= len(b):
            factor, shift = r[-1] / b[-1], len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= factor * c
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def test_sturm_chain_is_a_positive_multiple_of_the_classical_chain():
    # the integer chain may scale each member by a positive constant and by
    # nothing else.  The inputs make every kind of step: degree drops of 1
    # (the closed-form step), 2 and at least 3 (one pseudo-division round per
    # degree), each also with a negative leading coefficient of the divisor,
    # which exercises the sign(lc) factor; the quintics P5(m, n) up to
    # (50, 50) bring coefficients of more than 100 bits
    rng = random.Random(31)
    inputs = []
    for trial in range(300):
        if trial % 2:
            roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
            inputs.append(_poly_from_linear_factors(roots))
        else:
            inputs.append(IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [1]))
    for _ in range(100):  # gaps in the degrees make the larger drops
        sparse = [rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(rng.randint(1, 9))]
        inputs.append(IntPolynomial(sparse + [1]))
    quintics = [p5_polynomial(m, n) for m, n in ((1, 1), (2, 1), (3, 2), (17, 40), (50, 50))]
    assert max(abs(c).bit_length() for c in quintics[-1].coeffs) > 100
    steps = set()
    for p in inputs + quintics:
        for q in (p, _negated(p)):
            chain = _sturm_chain(list(q.coeffs))
            classical = _classical_sturm_chain(q.coeffs)
            assert len(chain) == len(classical), q
            for member, ref in zip(chain, classical):
                ratio = Fraction(member[-1]) / ref[-1]
                assert ratio > 0 and member == [ratio * c for c in ref], q
            # (degree drop, capped at 3; lc < 0) of each step a -> b -> r
            steps.update((min(len(a) - len(b), 3), b[-1] < 0) for a, b in zip(chain, chain[1:-1]))
    assert steps == {(drop, neg) for drop in (1, 2, 3) for neg in (False, True)}


def _bisection_root_count(p: IntPolynomial, lo: float, hi: float, depth: int = 60) -> int:
    """Count sign-change roots of a squarefree polynomial in (lo, hi)."""

    def ev(x: float) -> float:
        out = 0.0
        for c in reversed(p.coeffs):
            out = out * x + c
        return out

    # subdivide; squarefree + simple roots means sign changes find them all
    pieces = 4096
    xs = [lo + (hi - lo) * i / pieces for i in range(pieces + 1)]
    vals = [ev(x) for x in xs]
    count = 0
    for i in range(pieces):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            continue
        if a * b < 0:
            count += 1
    return count


def test_sturm_against_bisection_oracle():
    # 200 random squarefree-by-construction polynomials of degree <= 6 with
    # distinct integer-spaced roots, away from the sampling grid pathologies
    rng = random.Random(99)
    for _ in range(200):
        deg = rng.randint(1, 6)
        roots = rng.sample(range(-8, 9), deg)
        p = _poly_from_linear_factors([Fraction(r) for r in roots])
        # roots live in [-8, 8] by construction; grid spacing << 1 finds them all
        neg = _bisection_root_count(p, -9.5, -1e-9)
        pos = _bisection_root_count(p, 1e-9, 9.5)
        assert count_roots(p, "negative") == neg
        assert count_roots(p, "positive") == pos


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        count_roots(IntPolynomial([]), "negative")
    with pytest.raises(ValueError):
        zero_root_multiplicity(IntPolynomial([]))


def test_unknown_region_rejected():
    with pytest.raises(ValueError, match="unknown region 'inside'"):
        count_roots(IntPolynomial([-1, 0, 1]), "inside")


def test_high_degree_big_coefficients():
    # (x - 10^9)^2 (x + 10^9) has exact big-int arithmetic throughout
    big = 10**9
    p = poly_product(IntPolynomial([-big, 1]), IntPolynomial([-big, 1]), IntPolynomial([big, 1]))
    assert count_roots(p, "positive") == 1
    assert count_roots(p, "negative") == 1
    assert p(big) == 0 and p(-big) == 0
    assert p(big + 1) == (big + 1 + big)
