"""The operator-table assembler, connected components, Berkowitz
characteristic polynomials over Z[sqrt(2)] and exact eigenvalue sign
counts, against constructed spectra and numpy's eigensolvers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from bihindex.exact import QuadExt
from bihindex.legendre import build_legendre_block
from bihindex.matrices import (
    AsymmetricMatrixError,
    ExactMatrix,
    IrrationalCoefficientError,
    charpoly_exact,
    components,
    eigenvalue_signs,
    operator_block,
)
from bihindex.polynomials import IntPolynomial
from bihindex.torus import block_matrix

from oracles import charpoly_quadext, diagonal, grading_weights, matrix, to_numpy

R2 = QuadExt(0, 1)


def test_operator_block_derivatives_and_rejections():
    # one frame, theta frequency sqrt(2): each kind on cos(g) cos(sqrt2 t)
    # (column 0) against its closed form in the basis cc, cs, sc, ss
    w = QuadExt(0, 1)
    expected = {
        "f": {0: QuadExt(1)},
        "x1": {2: QuadExt(-1)},
        "x2": {1: -w},
        "x1x2": {3: QuadExt(0, 1)},
        "x1x1": {0: QuadExt(-1)},
        "x2x2": {0: QuadExt(-2)},
    }
    for kind, column in expected.items():
        if kind in ("x1", "x2"):  # antisymmetric: only a coupled pair of rules is symmetric
            with pytest.raises(AsymmetricMatrixError):
                operator_block({"a": [("a", kind, lambda: 1)]}, 1, 1, w)
            table = {"a": [("b", kind, lambda: 1)], "b": [("a", kind, lambda: -1)]}
            blk = operator_block(table, 1, 1, w)
            assert [blk[4 + i, 0] for i in range(4)] == [column.get(i, 0) for i in range(4)]
            continue
        blk = operator_block({"a": [("a", kind, lambda: 1)]}, 1, 1, w)
        assert [blk[i, 0] for i in range(4)] == [column.get(i, 0) for i in range(4)], kind
    with pytest.raises(ValueError, match="unknown derivative kind"):
        operator_block({"a": [("a", "x3", lambda: 1)]}, 1, 1, w)


def test_operator_block_irrational_coefficient_at_irrational_frequency():
    # the coupled rules X2 with sqrt(2) and -sqrt(2) at theta frequency
    # sqrt(2): each term is (+-sqrt2)(+-sqrt2) = +-2, so the block is rational
    w = QuadExt(0, 1)
    table = {"a": [("b", "x2", lambda: w)], "b": [("a", "x2", lambda: -w)]}
    blk = operator_block(table, 1, 1, w)
    # X2 maps cc -> -w cs, cs -> w cc, sc -> -w ss, ss -> w sc (basis cc, cs, sc, ss)
    expected = [[0] * 8 for _ in range(8)]
    for i, j, v in ((5, 0, -2), (4, 1, 2), (7, 2, -2), (6, 3, 2)):
        expected[i][j] = expected[j][i] = v
    assert blk == ExactMatrix(expected, [[0] * 8 for _ in range(8)])


def test_symmetry_enforced():
    with pytest.raises(AsymmetricMatrixError):
        matrix([[1, 2], [3, 4]])
    # asymmetric in the sqrt(2) part only, then in the integer part only
    with pytest.raises(AsymmetricMatrixError, match=r"entry \(0,1\)=1\*sqrt2 != \(1,0\)=0"):
        matrix([[1, R2], [0, 4]])
    with pytest.raises(AsymmetricMatrixError):
        matrix([[1, QuadExt(1, 1)], [R2, 4]])
    m = matrix([[1, 2], [2, 4]])
    assert m.order == 2
    assert m[0, 1] == QuadExt(2)
    assert matrix([[1, R2], [R2, 4]]) == ExactMatrix([[1, 0], [0, 4]], [[0, 1], [1, 0]])


def test_malformed_matrices_are_rejected():
    with pytest.raises(ValueError, match="same order"):
        ExactMatrix([[1]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        ExactMatrix([[1, 2]], [[0, 0]])
    with pytest.raises(ValueError, match="nonempty"):
        ExactMatrix([], [])
    with pytest.raises(TypeError):
        ExactMatrix([[1.0]], [[0]])
    with pytest.raises(TypeError):
        ExactMatrix([[1]], [[Fraction(1, 2)]])


def test_charpoly_small_cases():
    assert charpoly_exact(diagonal([1, 1])) == IntPolynomial([1, -2, 1])
    # the degree-zero circle block at k = 1
    assert charpoly_exact(diagonal([0, -1])) == IntPolynomial([0, 1, 1])
    assert charpoly_exact(diagonal([2, 3, 5])) == IntPolynomial([-30, 31, -10, 1])


def test_charpoly_sqrt2_entries_cancel():
    # [[0, sqrt2], [sqrt2, 0]] has charpoly x^2 - 2
    r2 = QuadExt(0, 1)
    m = matrix([[QuadExt(0), r2], [r2, QuadExt(0)]])
    assert charpoly_exact(m) == IntPolynomial([-2, 0, 1])


def test_charpoly_irrational_coefficient_detected():
    r2 = QuadExt(0, 1)
    m = matrix([[r2, QuadExt(0)], [QuadExt(0), QuadExt(1)]])
    with pytest.raises(IrrationalCoefficientError):
        charpoly_exact(m)


def _random_symmetric(rng: random.Random, order: int) -> ExactMatrix:
    """Random symmetric matrix whose charpoly is rational: conjugation-stable
    entries (rational diagonal blocks with sqrt(2) couplings arranged as in
    the package's blocks would be overkill -- plain rational entries here)."""
    rows = [[0] * order for _ in range(order)]
    for i in range(order):
        for j in range(i, order):
            v = rng.randint(-9, 9)
            rows[i][j] = v
            rows[j][i] = v
    return matrix(rows)


def test_charpoly_matches_numpy_eigenvalues():
    rng = random.Random(5)
    for order in (2, 3, 4, 5, 6):
        for _ in range(10):
            m = _random_symmetric(rng, order)
            p = charpoly_exact(m)
            assert len(p.coeffs) == order + 1
            assert p.coeffs[-1] == 1
            ev = np.linalg.eigvalsh(to_numpy(m))
            # det(xI - M) vanishes at each numerical eigenvalue
            for lam in ev:
                vals = [float(c) for c in p.coeffs]
                acc = 0.0
                for c in reversed(vals):
                    acc = acc * lam + c
                scale = max(1.0, max(abs(v) for v in vals)) * max(1.0, abs(lam)) ** order
                assert abs(acc) <= 1e-8 * scale


def test_charpoly_trace_and_det_coefficients():
    rng = random.Random(8)
    m = _random_symmetric(rng, 5)
    p = charpoly_exact(m)
    trace = sum(m[i, i].a for i in range(5))
    assert p.coeffs[4] == -trace
    det_float = float(np.linalg.det(to_numpy(m)))
    assert abs((-1) ** 5 * p.coeffs[0] - det_float) < 1e-6 * max(1.0, abs(det_float))


def test_charpoly_exact_root_evaluation():
    # matrix with known integer spectrum: diag(7, -3, 0)
    p = charpoly_exact(diagonal([7, -3, 0]))
    for lam in (7, -3, 0):
        assert p(lam) == 0



def test_eigenvalue_signs_with_multiplicity():
    # charpoly (x - 1)^2 (x + 2)^3 x
    assert eigenvalue_signs(diagonal([1, 1, -2, -2, -2, 0])) == (3, 1)
    assert eigenvalue_signs(diagonal([0, 0, 0])) == (0, 3)
    assert eigenvalue_signs(diagonal([5])) == (0, 0)
    # the degree-zero circle block: one negative, one zero eigenvalue
    assert eigenvalue_signs(diagonal([0, -16])) == (1, 1)
    # big roots: (x - 10^30)^2 (x + 10^30)
    big = 10**30
    assert eigenvalue_signs(diagonal([big, big, -big])) == (1, 0)
    assert eigenvalue_signs(diagonal([-big, -big, 0, big + 1])) == (2, 1)


def test_eigenvalue_signs_sqrt2_entries():
    # eigenvalues +-sqrt(2)
    assert eigenvalue_signs(matrix([[0, R2], [R2, 0]])) == (1, 0)
    # charpoly x^2 - 3x: eigenvalues 0 and 3
    assert eigenvalue_signs(matrix([[1, R2], [R2, 2]])) == (0, 1)


def test_eigenvalue_signs_against_constructed_roots():
    rng = random.Random(2024)
    for trial in range(200):
        roots = []
        for _ in range(rng.randint(1, 4)):
            roots.extend([rng.randint(-6, 6)] * rng.randint(1, 3))
        neg = sum(1 for r in roots if r < 0)
        zero = sum(1 for r in roots if r == 0)
        assert eigenvalue_signs(diagonal(roots)) == (neg, zero), (trial, roots)


def _random_coupled(rng: random.Random, p: int, q: int) -> ExactMatrix:
    """[[A, sqrt2 C], [sqrt2 C^T, B]] with integer A, B, C: conjugating sqrt2
    is the similarity diag(I, -I), so the charpoly is rational, as for the
    package's blocks.  Some rows repeat an earlier one, which makes zero an
    eigenvalue, possibly a multiple one."""
    n = p + q
    rows = [[QuadExt(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-5, 5)
            e = QuadExt(0, v) if (i < p) != (j < p) else QuadExt(v)
            rows[i][j] = rows[j][i] = e
    for _ in range(rng.randint(0, 2) if p >= 2 else 0):
        src, dst = rng.sample(range(p), 2)
        rows[dst] = list(rows[src])
        for i in range(n):
            rows[i][dst] = rows[dst][i]
        rows[dst][dst] = rows[src][src]
    return matrix(rows)


def test_eigenvalue_signs_match_numpy_on_random_symmetric_matrices():
    rng = random.Random(11)
    zeros_seen = 0
    for _ in range(150):
        p = rng.randint(1, 5)
        m = _random_coupled(rng, p, rng.randint(0, 3))
        ev = np.linalg.eigvalsh(to_numpy(m))
        tol = 1e-9 * max(1.0, float(np.abs(ev).max()))
        # every eigenvalue is clearly signed or clearly zero, so the float
        # classification below is an honest oracle
        assert all(abs(x) <= tol or abs(x) > 1e-6 for x in ev)
        expected = (int((ev < -tol).sum()), int((abs(ev) <= tol).sum()))
        assert eigenvalue_signs(m) == expected
        zeros_seen += expected[1]
    assert zeros_seen > 0


def _sizes(m: ExactMatrix) -> list[int]:
    return sorted((len(c) for c, _ in components(m)), reverse=True)


def test_components_of_the_package_blocks():
    for m, n in ((1, 1), (3, 2), (30, 20)):
        assert _sizes(build_legendre_block(m, n)) == [5, 5, 5, 5]
    assert _sizes(build_legendre_block(4, 0)) == [3, 3, 2, 2]
    assert _sizes(build_legendre_block(0, 5)) == [3, 3, 2, 2]
    assert _sizes(build_legendre_block(0, 0)) == [1] * 5
    for k in (1, 2, 5):
        for m in range(1, 3 * k + 1):
            assert _sizes(block_matrix(k, m, 0)) == [2, 2]
        for m in range(1, 4):
            for n in range(1, 4):
                assert _sizes(block_matrix(k, m, n)) == [2, 2, 2, 2]


def test_components_partition_the_index_set():
    comps = [c for c, _ in components(build_legendre_block(3, 2))]
    assert all(c == sorted(c) for c in comps)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    assert sorted(i for c in comps for i in c) == list(range(20))
    # each index set is closed: no nonzero entry joins two components
    m = build_legendre_block(3, 2)
    for a in comps:
        for b in comps:
            if a is not b:
                assert all(m[i, j].is_zero() for i in a for j in b)


def test_ungraded_matrices_are_refused():
    # sqrt(2) on a diagonal entry asks e = 1 - e, so no weights grade these,
    # though the first two have the rational charpolys x^2 - 2 and x^2 - 3
    for m in (diagonal([R2, -R2]), matrix([[R2, 1], [1, -R2]]),
              diagonal([R2, 1]), matrix([[R2, 1], [1, 3]])):
        with pytest.raises(IrrationalCoefficientError, match=r"^entry \(0,0\)=1\*sqrt2 breaks"):
            charpoly_exact(m)
    # a cycle 0 - 1 - 2 - 0 with one sqrt(2) edge: the walk weighs 1 and 2
    # from row 0, then row 2 finds (2,1) against them
    odd = matrix([[0, 1, R2], [1, 0, 1], [R2, 1, 0]])
    with pytest.raises(IrrationalCoefficientError, match=r"^entry \(2,1\)=1 breaks"):
        charpoly_exact(odd)
    # an entry with both parts nonzero is refused, whatever the weights
    mixed = matrix([[0, QuadExt(1, 1)], [QuadExt(1, 1), 0]])
    with pytest.raises(IrrationalCoefficientError, match=r"^entry \(0,1\)=\(1\+1\*sqrt2\) breaks"):
        components(mixed)


def _hidden_blocks(rng: random.Random) -> tuple[ExactMatrix, list[list[int]]]:
    """A block-diagonal matrix of _random_coupled blocks with its basis
    shuffled by a random permutation, and each block's shuffled indices."""
    blocks = [
        _random_coupled(rng, rng.randint(1, 4), rng.randint(0, 2))
        for _ in range(rng.randint(1, 4))
    ]
    n = sum(b.order for b in blocks)
    rows = [[QuadExt(0)] * n for _ in range(n)]
    spans, start = [], 0
    for b in blocks:
        for i in range(b.order):
            for j in range(b.order):
                rows[start + i][start + j] = b[i, j]
        spans.append(range(start, start + b.order))
        start += b.order
    perm = list(range(n))
    rng.shuffle(perm)  # new index i holds old basis vector perm[i]
    shuffled = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    where = {old: new for new, old in enumerate(perm)}
    return matrix(shuffled), [sorted(where[i] for i in s) for s in spans]


def test_hidden_blocks_match_numpy():
    rng = random.Random(17)
    split = zeros_seen = 0
    for _ in range(150):
        m, hidden = _hidden_blocks(rng)
        comps = [c for c, _ in components(m)]
        # every component lies inside one hidden block
        assert all(any(set(c) <= set(h) for h in hidden) for c in comps)
        split += len(comps) > 1
        ev = np.linalg.eigvalsh(to_numpy(m))
        tol = 1e-9 * max(1.0, float(np.abs(ev).max()))
        assert all(abs(x) <= tol or abs(x) > 1e-6 for x in ev)
        expected = (int((ev < -tol).sum()), int((abs(ev) <= tol).sum()))
        assert eigenvalue_signs(m) == expected
        zeros_seen += expected[1]
    assert split > 100 and zeros_seen > 0


def _agrees_with_the_quadext_berkowitz(m: ExactMatrix) -> bool:
    """Each component's G is D^-1 M[c][c] D, checked as D G = M[c][c] D on
    the QuadExt entries, and charpoly_exact(m) equals the oracle's product,
    which is rational."""
    for c, g in components(m):
        e = grading_weights(m, c)
        scale = [R2 if e[i] else QuadExt(1) for i in c]
        assert all(scale[i] * g[i][j] == m[ci, cj] * scale[j]
                   for i, ci in enumerate(c) for j, cj in enumerate(c))
    q = charpoly_quadext(m)
    assert not any(c.b for c in q)
    return charpoly_exact(m) == IntPolynomial([c.a for c in q])


def test_charpoly_equals_the_quadext_berkowitz():
    blocks = [block_matrix(k, m, 0) for k in range(1, 21) for m in range(3 * k + 1)]
    blocks += [build_legendre_block(m, n) for m in range(9) for n in range(9)]
    blocks += [block_matrix(k, m, n) for k in range(1, 6) for m in range(6) for n in range(6)]
    rng = random.Random(11)
    blocks += [_random_coupled(rng, rng.randint(1, 5), rng.randint(0, 3)) for _ in range(150)]
    rng = random.Random(17)
    blocks += [_hidden_blocks(rng)[0] for _ in range(150)]
    assert all(_agrees_with_the_quadext_berkowitz(m) for m in blocks)
