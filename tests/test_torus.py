"""Torus family: closed forms, sign tests, blocks, index/nullity, eigenvectors."""

import math
import random
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest

from bihindex import torus
from bihindex.exact import QUAD_SQRT2, QUAD_ZERO, QuadExt, Surd, int_sign
from bihindex.matrices import charpoly_exact, components
from bihindex.polynomials import IntPolynomial, count_roots
from bihindex.torus import (
    InvalidLabelError,
    NotNegativeError,
    block_coefficients,
    block_matrix,
    branch_multiplicity,
    check_label,
    discriminant,
    eigenvalue,
    enumeration_bound,
    index_nullity,
    interior_sign_scan,
    lambda_parts,
    last_row,
    negative_eigenvector_coefficient,
    sign_runs,
    spectrum,
)

from oracles import poly_product, run_pairs, to_numpy, torus_block

PUBLISHED_ROWS = {
    1: (1, 5), 2: (13, 5), 3: (29, 5), 4: (57, 5), 5: (89, 5), 6: (129, 5),
    7: (181, 5), 8: (233, 5), 9: (297, 5), 10: (365, 5), 17: (1065, 5),
}


def test_eigenvalue_examples():
    assert eigenvalue(1, 0, 0, "mu1") == Surd(-1, 0)
    assert eigenvalue(1, 0, 0, "mu0") == 0
    assert eigenvalue(1, 0, 1, "minus") == 0            # n^4 - k^4 at n = k
    assert eigenvalue(2, 1, 1, "minus") == Surd(16, 1088, 2, -1)
    assert eigenvalue(3, 0, 2, "plus") == Fraction(4 * (4 + 9))   # n^2 (n^2 + k^2)
    assert eigenvalue(3, 0, 2, "minus") == Fraction(16 - 81)


def test_axis_radicand_collapses_to_rational():
    for k in range(1, 8):
        for n in range(1, 8):
            lp = eigenvalue(k, 0, n, "plus")
            lm = eigenvalue(k, 0, n, "minus")
            assert lp == n * n * (n * n + k * k)
            assert lm == n**4 - k**4


def test_invalid_labels():
    with pytest.raises(InvalidLabelError):
        eigenvalue(1, 0, 0, "minus")
    with pytest.raises(InvalidLabelError):
        eigenvalue(1, 1, 1, "mu0")
    with pytest.raises(InvalidLabelError, match="mu1 exists only at"):
        eigenvalue(1, 1, 0, "mu1")
    with pytest.raises(InvalidLabelError, match="unknown branch 'lambda'"):
        eigenvalue(1, 1, 1, "lambda")
    with pytest.raises(InvalidLabelError):
        eigenvalue(0, 1, 1, "minus")
    with pytest.raises(InvalidLabelError):
        check_label(1, -1, 0)
    with pytest.raises(InvalidLabelError):
        check_label(1, 0, -1)
    with pytest.raises(InvalidLabelError):
        check_label(0, 0, 0)
    check_label(1, 0, 0)


def test_sign_lambda_minus_examples():
    assert int_sign(discriminant(2, 1, 1)) == -1
    assert int_sign(discriminant(2, 2, 1)) == -1
    assert int_sign(discriminant(2, 1, 2)) == 1
    a, b, c2 = block_coefficients(2, 1, 2)
    assert (a, b) == (53, 17) and a * b - c2 == 101
    # degree one: no interior negatives at all
    for m in range(1, 4):
        for n in range(1, 4):
            if m * m + n * n < 9:
                assert int_sign(discriminant(1, m, n)) == 1


def test_axis_trichotomy():
    assert int_sign(discriminant(5, 3, 0)) == -1
    assert int_sign(discriminant(5, 5, 0)) == 0
    assert int_sign(discriminant(5, 6, 0)) == 1
    for k in range(1, 12):
        for m in range(1, 3 * k):
            expected = -1 if m < k else (0 if m == k else 1)
            assert int_sign(discriminant(k, m, 0)) == expected
    # the axis factorisations behind run_totals, proved for all k, m, n: the
    # difference P of the two sides has degree <= 6 in k and <= 8 in m (or
    # n), and a polynomial of those degrees that vanishes on a 7 x 9 grid of
    # distinct integers is zero
    for k in range(-3, 4):
        for t in range(-4, 5):
            u = t * t - k * k
            assert discriminant(k, t, 0) == t * t * u * (u * u + 2 * k**4), (k, t)
            assert discriminant(k, 0, t) == t * t * (t * t + k * k) * (t**4 - k**4), (k, t)


def test_sign_test_agrees_with_surd_sign():
    # D-test versus exact surd evaluation over the whole scan region
    for k in range(1, 21):
        bound = enumeration_bound(k)
        m = 1
        while m * m < bound:
            n = 1
            while m * m + n * n < bound:
                assert int_sign(discriminant(k, m, n)) == eigenvalue(k, m, n, "minus").sign()
                n += 1
            m += 1


def test_enumeration_bound():
    assert enumeration_bound(1) == 9
    assert enumeration_bound(2) == 36
    with pytest.raises(InvalidLabelError):
        enumeration_bound(0)
    # exhaustive check beyond the bound at k = 1
    for m in range(1, 11):
        for n in range(1, 11):
            if 9 <= m * m + n * n <= 100:
                assert discriminant(1, m, n) > 0
    # k = 2 negative pairs sit inside the bound
    _, _, neg, _ = interior_sign_scan(2)
    assert set(neg) == {(1, 1), (2, 1)}
    assert all(m * m + n * n < 36 for m, n in neg)


def test_enumeration_bound_boundary_shell():
    # pairs in the shell [9k^2, 10k^2] are all positive (property sample)
    rng = random.Random(17)
    for k in (1, 2, 3, 5, 8, 13, 21):
        lo, hi = 9 * k * k, 10 * k * k
        checked = 0
        for _ in range(400):
            m = rng.randint(1, int(math.isqrt(hi)))
            n2lo = max(1, lo - m * m)
            n2hi = hi - m * m
            if n2hi < 1:
                continue
            n = rng.randint(max(1, math.isqrt(n2lo)), math.isqrt(n2hi) + 1)
            s = m * m + n * n
            if lo <= s <= hi:
                checked += 1
                assert discriminant(k, m, n) > 0, (k, m, n)
        assert checked > 50


def _cut_identity():
    """The last_row docstring's identity 14^4 D = sum c M^a N^b K^e + K^4 q(N/K),
    read from it so that the stated identity is the one proved:
    ({(a, b, e): c} of the terms with M, q's coefficients lowest first)."""
    doc = last_row.__doc__
    rhs = doc.split("14^4 D =")[1].split("+ K^4 q(N/K)")[0]
    assert "-" not in rhs
    terms = {}
    for term in rhs.split("+"):
        coeff, exps = 1, {"M": 0, "N": 0, "K": 0}
        for factor in term.split():
            if factor.isdigit():
                coeff = int(factor)
            else:
                var, _, exp = factor.partition("^")
                exps[var] = int(exp or 1)
        key = (exps["M"], exps["N"], exps["K"])
        assert key not in terms, term
        terms[key] = coeff
    q = [0] * 5
    for term in doc.split("q(t) =")[1].split(".\n")[0].replace("- ", "+ -").split("+"):
        coeff, t, power = term.strip().partition(" t")
        q[int(power.lstrip("^") or 1) if t else 0] = int(coeff)
    return terms, q


def test_row_cut_identity():
    # 14^4 D(k, m, n) with M = 14m^2 - 15k^2, N = n^2, K = k^2.  Both sides are
    # polynomials of degree <= 4 in each of k^2, m^2 and n^2, so equality on
    # the 5 x 5 x 5 grid of the distinct squares of 0..4 proves the identity
    terms, q = _cut_identity()
    assert len(terms) == 10
    assert all(c > 0 and a >= 1 and a + b + e == 4 for (a, b, e), c in terms.items())
    for k in range(5):
        for m in range(5):
            for n in range(5):
                big_m, big_n, big_k = 14 * m * m - 15 * k * k, n * n, k * k
                rhs = sum(c * big_m**a * big_n**b * big_k**e for (a, b, e), c in terms.items())
                rhs += sum(c * big_n**i * big_k ** (4 - i) for i, c in enumerate(q))
                assert 14**4 * discriminant(k, m, n) == rhs, (k, m, n)
    # so D > 0 once M >= 0: q(0) > 0 and q has no positive root, hence
    # K^4 q(N/K) > 0 for K > 0 and N >= 0
    assert q[0] > 0
    assert count_roots(IntPolynomial(q), "positive") == 0


# polynomials in M = m^2, N = n^2 and K = k^2 as {(i, j, l): c} for c M^i N^j K^l
def _mul(p, q):
    out = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in q.items():
            out[a + d, b + e, c + f] = out.get((a + d, b + e, c + f), 0) + x * y
    return out


def _add(p, q, sign=1):
    out = dict(p)
    for key, y in q.items():
        out[key] = out.get(key, 0) + sign * y
    return out


def _staircase_d():
    """D = A*B - C^2 in M, N, K, from block_coefficients' closed form."""
    s2 = _mul(*[{(1, 0, 0): 1, (0, 1, 0): 1}] * 2)
    a = _add({(1, 0, 1): 3, (0, 1, 1): 1}, s2)
    b = _add({(0, 0, 2): -1, (1, 0, 1): 2}, s2)
    return _add(_mul(a, b), _mul({(1, 0, 1): 8}, s2), -1)


def _in_n(p, big_m, big_k):
    """Coefficients in N, lowest first, of p at the given M and K."""
    out = [0] * (1 + max(j for _, j, _ in p))
    for (i, j, l), c in p.items():
        out[j] += c * big_m**i * big_k**l
    return out


def _in_m(p, big_n, big_k):
    """Coefficients in M, lowest first, of p at the given N and K."""
    out = [0] * (1 + max(i for i, _, _ in p))
    for (i, j, l), c in p.items():
        out[i] += c * big_n**j * big_k**l
    return out


def _det(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot], det = a[pivot], a[i], -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            ratio = a[r][i] / a[i][i]
            a[r] = [x - ratio * y for x, y in zip(a[r], a[i])]
    return det


def _sylvester(f, g):
    """Sylvester matrix of f and g, coefficients lowest first: det = Res(f, g)."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    return rows + [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]


def test_staircase_lemma():
    # sign_runs' staircase lemma, with integer tools: D(k, m, n) > 0 implies
    # D(k, m', n) > 0 for 0 <= m < m' <= k, and for every m < m' past k
    d = _staircase_d()
    # the polynomial is the code's D: degree <= 4 in each of K, M and N, so
    # the 5 x 5 x 5 grid of the distinct squares of 0..4 proves it; and it is
    # homogeneous of degree 4 and monic of degree 4 in N
    for k in range(5):
        for m in range(5):
            for n in range(5):
                value = sum(c * m ** (2 * i) * n ** (2 * j) * k ** (2 * l)
                            for (i, j, l), c in d.items())
                assert value == discriminant(k, m, n), (k, m, n)
    assert all(sum(key) == 4 for key, c in d.items() if c)
    assert d[0, 4, 0] == 1
    dm = {(i - 1, j, l): i * c for (i, j, l), c in d.items() if i and c}

    # Res_N(D, dD/dM) = -32 M q(M) at K = 1, q as the docstring states it.
    # The 7 x 7 Sylvester determinant has 3 rows of D's coefficients in N,
    # each of degree <= 4 in M, and 4 rows of dD/dM's, of degree <= 3: it is
    # a polynomial of degree <= 24 in M, fixed by its values at 25 integers
    doc = sign_runs.__doc__
    assert "Res_N(D, dD/dM) = -32 M q(M)," in doc
    q = [0] * 5
    rhs = doc.split("q(M) =")[1].split(",\n")[0].replace("- ", "+ -")
    for term in rhs.split("+"):
        coeff, big_m, power = term.strip().partition(" M")
        q[int(power.lstrip("^") or 1) if big_m else 0] = int(coeff)
    assert q == [72, -708, 2289, -2496, 1024]
    for big_m in range(25):
        f, g = _in_n(d, big_m, 1), _in_n(dm, big_m, 1)
        assert (len(f), len(g), f[-1], g[-1]) == (5, 4, 1, 4)  # leading coefficients
        resultant = _det(_sylvester(f, g))
        assert resultant == -32 * big_m * IntPolynomial(q)(big_m), big_m

    # q has no real root: none on either side of 0, and q(0) != 0
    assert q[0] == 72
    assert count_roots(IntPolynomial(q), "negative") == count_roots(IntPolynomial(q), "positive") == 0

    # the sign of dD/dM where D = 0 is +, checked at 2M = K; K = 2, M = 1
    # keeps it integral (the docstring's K = 1 case scaled by 2).  There
    # D = (N + 1)^2 (N^2 + 4N - 9), whose one root N > 0 is sqrt 13 - 2 > 1,
    # and dD/dM = 52 (N - 1) modulo N^2 + 4N - 9, so dD/dM > 0 at the root
    assert IntPolynomial(_in_n(d, 1, 2)) == poly_product(
        IntPolynomial([1, 1]), IntPolynomial([1, 1]), IntPolynomial([-9, 4, 1]))
    assert 1 + 4 - 9 < 0  # N^2 + 4N - 9 < 0 at N = 1, so its root N > 1
    r = _in_n(dm, 1, 2)
    while len(r) > 2:  # reduce modulo the monic N^2 + 4N - 9
        top = r.pop()
        r[-1] -= 4 * top
        r[-2] += 9 * top
    assert r == [-52, 52]

    # the lemma for every m < m', past m = k: D as a quartic in M at K = 1 is
    # monic, has no root M > 0 at N = 4, and is M^2 (M^2 + M + 6) at N = 1;
    # at N = 1/4 (K = 4, N = 1) it has one root M > 0, below which D < 0
    assert _in_m(d, 4, 1) == [300, 237, 81, 13, 1]
    assert _in_m(d, 1, 1) == [0, 0, 6, 1, 1]
    quarter = _in_m(d, 1, 4)
    assert quarter[0] < 0 and quarter[-1] == 1
    assert count_roots(IntPolynomial(quarter), "positive") == 1

    # and the lemma's consequence, by brute force on small k: the set of n
    # with D <= 0 in row m + 1 lies inside row m's, over every row up to the
    # first one past the cut, from the axis m = 0 on
    for k in range(1, 61):
        rows = [{n for n in range(1, 3 * k + 1) if discriminant(k, m, n) <= 0}
                for m in range(last_row(k) + 2)]
        assert not rows[-1], k
        for m in range(last_row(k) + 1):
            assert rows[m + 1] <= rows[m], (k, m)


def test_last_row_is_the_cut():
    for k in range(1, 2001):
        m = last_row(k)
        assert 14 * m * m < 15 * k * k < 14 * (m + 1) ** 2, k
        assert m >= k  # the rows m <= k, walked at one end, all lie below the cut
    # so D > 0 on the first row past the cut, at every n below the bound
    for k in (1, 2, 3, 10, 155):
        m = last_row(k) + 1
        assert all(discriminant(k, m, n) > 0 for n in range(0, 3 * k + 1)), k
    with pytest.raises(InvalidLabelError):
        last_row(0)


def test_index_nullity_published_rows():
    for k, (idx, nul) in PUBLISHED_ROWS.items():
        r = index_nullity(k)
        assert (r.index, r.nullity) == (idx, nul), (k, r.index, r.nullity)
        assert r.index == 1 + 4 * (k - 1) + 4 * r.f
        assert r.nullity == 5 + 4 * r.g
        assert r.f <= k * k


def test_index_nullity_k2_negative_pairs():
    r = index_nullity(2)
    assert run_pairs(r.negative_runs) == [(1, 1), (2, 1)]
    assert r.zero_pairs == ()


def test_f_bound_and_formula_consistency():
    for k in range(1, 26):
        r = index_nullity(k)
        assert r.f <= k * k
        assert r.g == 0


def test_block_matrix_shapes_and_values():
    assert to_numpy(block_matrix(3, 0, 0)).tolist() == [[0.0, 0.0], [0.0, -81.0]]
    b = block_matrix(2, 1, 0)
    assert b.order == 4
    # off-diagonal +-2 sqrt(2) k m^3
    assert b[0, 3] == QuadExt(0, -2 * 2)
    assert b[1, 2] == QuadExt(0, 2 * 2)
    diag = block_matrix(2, 0, 2)
    arr = to_numpy(diag)
    assert np.allclose(arr, np.diag([4 * 8, 4 * 8, 0, 0]))
    assert block_matrix(2, 1, 1).order == 8


def test_block_trace_and_determinant_identity():
    # trace = 4 (A + B) and det = (A B - C^2)^4 for interior blocks, exactly
    for (k, m, n) in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 2), (5, 4, 1)]:
        a, b, c2 = block_coefficients(k, m, n)
        blk = block_matrix(k, m, n)
        assert sum(blk.a[i][i] for i in range(blk.order)) == 4 * (a + b)
        p = charpoly_exact(blk)
        # det(xI - M) at x = 0 is det(-M) = det(M) for even order
        assert p.coeffs[0] == (a * b - c2) ** 4
        assert p.coeffs[7] == -4 * (a + b)


def test_interior_block_is_the_written_out_block_at_every_label():
    # OPERATOR_TABLE takes X1 derivatives only, so an interior block sees n
    # only through lam = m^2 + n^2
    kinds = {kind for rules in torus.OPERATOR_TABLE.values() for _, kind, _ in rules}
    assert kinds == {"f", "x1", "x1x1"}
    # on the interior the basis is fixed, and every entry of block_matrix is a
    # polynomial of degree <= 4 in each of k, m and n (the table's
    # coefficients times m or m^2), so agreement on the 5 x 5 x 5 grid proves
    # block_matrix = torus_block at every label.  torus_block is four 2 x 2
    # components [[A, +-C], [+-C, B]], each with charpoly x^2 - T x + D,
    # T = A + B and D = A B - C^2: so charpoly = (x^2 - T x + D)^4, and
    # block_coefficients, lambda_parts and discriminant hold at every label
    for k in range(1, 6):
        for m in range(1, 6):
            for n in range(1, 6):
                blk = torus_block(k, m, n)
                assert block_matrix(k, m, n) == blk, (k, m, n)
                assert [c for c, _ in components(blk)] == [[0, 6], [1, 7], [2, 4], [3, 5]]
                a, b, c2 = blk[0, 0].a, blk[4, 4].a, (blk[2, 4] * blk[2, 4]).a
                t, d = a + b, a * b - c2
                assert block_coefficients(k, m, n) == (a, b, c2), (k, m, n)
                assert lambda_parts(k, m, n) == (t, t * t - 4 * d), (k, m, n)
                assert discriminant(k, m, n) == d, (k, m, n)


def test_block_eigenvalues_match_closed_forms():
    for k in (1, 2, 3):
        for m in range(0, 6):
            for n in range(0, 6):
                blk = block_matrix(k, m, n)
                ev = np.sort(np.linalg.eigvalsh(to_numpy(blk)))
                if (m, n) == (0, 0):
                    expected = np.sort([0.0, -float(k**4)])
                else:
                    t, r = lambda_parts(k, m, n)
                    lp = (t + math.sqrt(r)) / 2
                    lm = (t - math.sqrt(r)) / 2
                    mult = branch_multiplicity(m, n)
                    expected = np.sort([lm] * mult + [lp] * mult)
                scale = np.maximum(np.abs(expected), 1.0)
                assert np.all(np.abs(ev - expected) <= 1e-9 * scale), (k, m, n)


ONE = QuadExt(1)
# the rotations of S^2 about the x and y axes, in the (k, 0) basis y cos,
# y sin, eta cos, eta sin, and the same vectors with the normal part negated
ROTATIONS = ((-ONE, QUAD_ZERO, QUAD_ZERO, -QUAD_SQRT2), (QUAD_ZERO, -ONE, QUAD_SQRT2, QUAD_ZERO))
WRONG_SIGN = tuple(v[:2] + tuple(-x for x in v[2:]) for v in ROTATIONS)


def _annihilates(block, vector) -> bool:
    return all(
        sum((block[i, j] * v for j, v in enumerate(vector)), QUAD_ZERO).is_zero()
        for i in range(block.order)
    )


def _rotation_kernel_failures(k_max: int) -> list[tuple[int, str]]:
    """Where block_matrix fails the kernel that the rotations of S^2 force.

    A Killing field of the target composed with the map is a Jacobi field of
    the bienergy, so it lies in the kernel of its block: the rotation about
    the pole is the (0, 0) tangential constant (1, 0), and the rotations
    about the x and y axes are ROTATIONS in the (k, 0) block.  These 3 of the
    torus nullity 5 are the whole circle nullity 3, since the (m, 0) blocks
    are the circle's.
    """
    failures = []
    for k in range(1, k_max + 1):
        if not _annihilates(block_matrix(k, 0, 0), (ONE, QUAD_ZERO)):
            failures.append((k, "pole"))
        axis = block_matrix(k, k, 0)
        failures += [(k, "x, y") for v in ROTATIONS if not _annihilates(axis, v)]
        failures += [(k, "wrong sign") for v in WRONG_SIGN if _annihilates(axis, v)]
    return failures


def test_rotations_lie_in_the_kernel():
    assert _rotation_kernel_failures(50) == []


def test_flipped_coupling_fails_the_rotation_kernel(monkeypatch):
    # negating both coupling rules conjugates each block by diag(1, 1, -1, -1):
    # it stays symmetric with the same charpoly, which the closed-form
    # eigenvalue tests cannot tell apart, and the kernel test must catch it
    flipped = {
        frame: [
            (out, kind, (lambda k, lam, c=c: -c(k, lam)) if out != frame else c)
            for out, kind, c in rules
        ]
        for frame, rules in torus.OPERATOR_TABLE.items()
    }
    charpolys = [charpoly_exact(block_matrix(k, k, 0)) for k in (1, 2, 7)]
    monkeypatch.setattr(torus, "OPERATOR_TABLE", flipped)
    assert [charpoly_exact(block_matrix(k, k, 0)) for k in (1, 2, 7)] == charpolys
    assert len(_rotation_kernel_failures(50)) == 4 * 50


def test_lambda_plus_positive_in_scan_region():
    for k in (1, 2, 3, 5, 8):
        bound = enumeration_bound(k)
        m = 0
        while m * m < bound:
            n = 0
            while m * m + n * n < bound:
                if (m, n) != (0, 0):
                    assert eigenvalue(k, m, n, "plus").sign() == 1
                n += 1
            m += 1


def test_negative_eigenvector_coefficients_match_closed_surds():
    assert negative_eigenvector_coefficient(2, 1, 0) == Surd(-5, 33, 4)
    assert negative_eigenvector_coefficient(2, 1, 1) == Surd(-3, 17, 4)
    assert negative_eigenvector_coefficient(2, 2, 1) == Surd(-9, 881, 80)


def test_coefficient_21_equals_published_nested_expression():
    # (-9 + sqrt(881))/80 times (59 + 2 sqrt(881)) must equal 1231 + 41 sqrt(881):
    # rational part -9*59 + 2*881 and radical part 59 - 18
    assert -9 * 59 + 2 * 881 == 1231
    assert -9 * 2 + 59 == 41


def test_negative_eigenvector_coefficient_solves_block():
    # c dphi(grad f) + f N is an eigenvector: check numerically in the block
    for (k, m, n) in [(2, 1, 0), (2, 1, 1), (2, 2, 1), (3, 1, 2), (5, 3, 3)]:
        c = float(negative_eigenvector_coefficient(k, m, n))
        t, r = lambda_parts(k, m, n)
        lam = (t - math.sqrt(r)) / 2
        a, _, _ = block_coefficients(k, m, n)
        # 2x2 reduced system [[A, C], [C, B]] (x, 1): (A - lam) x = C
        s = m * m + n * n
        x = 2 * math.sqrt(2) * k * m * s / (a - lam)
        # x is the tangential coordinate of c * dphi(grad f): x = c m k sqrt(2)/2
        assert c == pytest.approx(4 * s / (a - lam), rel=1e-12)
        assert x == pytest.approx(c * m * k * math.sqrt(2) / 2, rel=1e-12)


def test_negative_eigenvector_coefficient_errors():
    with pytest.raises(NotNegativeError):
        negative_eigenvector_coefficient(2, 3, 3)  # positive branch
    with pytest.raises(NotNegativeError):
        negative_eigenvector_coefficient(2, 2, 0)  # zero at m = k
    with pytest.raises(InvalidLabelError):
        negative_eigenvector_coefficient(2, 0, 1)  # no gradient coupling


def test_spectrum_merges_coincidences():
    # 0 = mu0 = lambda^-_{k,0} = lambda^-_{0,k}: spectral multiplicity 5
    for k in (1, 2, 3):
        merged = spectrum(k, lambda_max=k * k + 1)
        zero_entries = [e for e in merged if e.eigenvalue == 0]
        assert len(zero_entries) == 1
        assert zero_entries[0].multiplicity == 5
        assert len(zero_entries[0].branches) == 3
    # ascending, and each multiplicity sums the branch multiplicities 1/2/4
    merged = spectrum(2, 8)
    assert all(a.eigenvalue < b.eigenvalue for a, b in zip(merged, merged[1:]))
    for e in merged:
        labels = [branch_tag(tag)[1:] for tag in e.branches]
        assert e.multiplicity == sum(branch_multiplicity(m, n) for m, n in labels)


def test_spectrum_is_the_plain_exact_sort():
    # sorting by (floor, value) gives the order, the merged groups and the
    # tag order of the stable sort on the exact value alone
    for k, lam_max in ((1, 40), (2, 60), (3, 80), (7, 100)):
        entries = [(eigenvalue(k, 0, 0, b), 1, f"{b}[0,0]") for b in ("mu0", "mu1")]
        entries += [
            (eigenvalue(k, m, n, b), branch_multiplicity(m, n), f"{b}[{m},{n}]")
            for m in range(11) for n in range(11) if 0 < m * m + n * n <= lam_max
            for b in ("plus", "minus")
        ]
        entries.sort(key=itemgetter(0))
        expected = []
        for value, group in groupby(entries, key=itemgetter(0)):
            group = list(group)
            expected.append((repr(value), sum(e[1] for e in group), tuple(e[2] for e in group)))
        got = [(repr(e.eigenvalue), e.multiplicity, e.branches) for e in spectrum(k, lam_max)]
        assert got == expected, k


def branch_tag(tag):
    """(branch, m, n) from a spectrum tag such as "minus[2,1]"."""
    branch, label = tag.rstrip("]").split("[")
    m, n = label.split(",")
    return branch, int(m), int(n)


def test_spectrum_reaches_the_level_exactly():
    # labels (m, n) != (0, 0) with m^2 + n^2 <= lambda_max, each with two
    # branches, and (0, 0) with mu0 and mu1
    for lam_max in (0, 1, 24, 25, 26, 48, 49):
        tags = [branch_tag(t) for e in spectrum(3, lam_max) for t in e.branches]
        assert len(tags) == len(set(tags))
        expected = {
            (b, m, n)
            for m in range(8) for n in range(8) if 0 < m * m + n * n <= lam_max
            for b in ("plus", "minus")
        }
        assert set(tags) == expected | {("mu0", 0, 0), ("mu1", 0, 0)}
