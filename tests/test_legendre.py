"""Legendre torus blocks: printed entries, an FFT oracle, the quintic, the ledger."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bihindex import legendre
from bihindex.cli import EXIT_VERIFICATION, main
from bihindex.exact import QuadExt
from bihindex.legendre import (
    CITED_INDEX_SPLIT,
    CITED_NULLITY_SPLIT,
    OPERATOR_TABLE,
    CharpolyMismatchError,
    _sign_conditions,
    build_legendre_block,
    descartes_lemma_check,
    legendre_index_nullity,
    p5_coefficients,
    p5_polynomial,
    satisfies_lemma_hypothesis,
    verify_p5_factorization,
)
from bihindex.matrices import charpoly_exact, components, trig_basis
from bihindex.polynomials import IntPolynomial, count_roots, zero_root_multiplicity

from oracles import matrix, poly_product, to_numpy

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


def test_block_orders():
    assert build_legendre_block(0, 0).order == 5
    assert build_legendre_block(3, 0).order == 10
    assert build_legendre_block(0, 2).order == 10
    assert build_legendre_block(1, 1).order == 20


def test_negative_fourier_index_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        build_legendre_block(-1, 0)
    # the torus label rule: an integer, not a float or a bool
    for label in ((2.0, 1), (1, 0.5), (True, 1), (1, False)):
        with pytest.raises(TypeError):
            build_legendre_block(*label)


def test_constant_block_is_diagonal():
    arr = to_numpy(build_legendre_block(0, 0))
    assert np.allclose(arr, np.diag([0.0, 0.0, -4.0, 0.0, 0.0]))


def test_printed_entries_at_1_1():
    m = build_legendre_block(1, 1)
    lam = 3
    # tangential-1 diagonal: 8 n^2 + lam^2 = 17
    assert m[0, 0] == QuadExt(17)
    # row 1 couples into the second phi-frame block with -4 sqrt(2) m n
    assert m[0, 7] == QuadExt(0, -4)
    assert m[1, 6] == QuadExt(0, 4)
    # coupling to the fourth frame: -4 sqrt(2) n (lam + 1)
    assert m[0, 13] == QuadExt(0, -16)
    # coupling to the Reeb frame: 2 (4 n^2 + lam) = 14
    assert m[0, 16] == QuadExt(14)
    # frame diagonals: lam(lam+6), lam^2+4lam-4, 8n^2+lam(lam+6), lam(lam+4)
    assert m[4, 4] == QuadExt(27)
    assert m[8, 8] == QuadExt(17)
    assert m[12, 12] == QuadExt(35)
    assert m[16, 16] == QuadExt(21)


def _fft_oracle_block(m: int, n: int) -> np.ndarray:
    """Independent route to the interior block: sample the basis functions on
    a periodic grid, apply the operator rules with FFT spectral derivatives,
    and recover the matrix through L2 inner products."""
    ng, nt = 32, 32
    width = math.sqrt(2) * math.pi  # circumference of the second circle
    gam = np.arange(ng) * (2 * math.pi / ng)
    tht = np.arange(nt) * (width / nt)
    gg, tt = np.meshgrid(gam, tht, indexing="ij")
    cstar2 = math.sqrt(2) / math.pi**2
    area = 2 * math.pi * width

    gs = [
        np.cos(m * gg) * np.cos(math.sqrt(2) * n * tt),
        np.cos(m * gg) * np.sin(math.sqrt(2) * n * tt),
        np.sin(m * gg) * np.cos(math.sqrt(2) * n * tt),
        np.sin(m * gg) * np.sin(math.sqrt(2) * n * tt),
    ]

    kg = 2 * math.pi * np.fft.fftfreq(ng, d=2 * math.pi / ng)
    kt = 2 * math.pi * np.fft.fftfreq(nt, d=width / nt)

    def d_gamma(f):
        return np.real(np.fft.ifft(1j * kg[:, None] * np.fft.fft(f, axis=0), axis=0))

    def d_theta(f):
        return np.real(np.fft.ifft(1j * kt[None, :] * np.fft.fft(f, axis=1), axis=1))

    ops = {
        "f": lambda f: f,
        "x1": d_gamma,
        "x2": d_theta,
        "x1x2": lambda f: d_gamma(d_theta(f)),
        "x2x2": lambda f: d_theta(d_theta(f)),
    }
    lam = m * m + 2 * n * n
    size = 20
    out = np.zeros((size, size))
    for fi, frame in enumerate(OPERATOR_TABLE):
        for j, g in enumerate(gs):
            col = fi * 4 + j
            image = {fr: np.zeros_like(g) for fr in OPERATOR_TABLE}
            for out_frame, kind, coeff in OPERATOR_TABLE[frame]:
                image[out_frame] = image[out_frame] + coeff(lam) * ops[kind](g)
            for fo, frame_out in enumerate(OPERATOR_TABLE):
                for i, gp in enumerate(gs):
                    row = fo * 4 + i
                    out[row, col] = cstar2 * area * np.mean(image[frame_out] * gp)
    return out


def test_fft_oracle_matches_exact_blocks():
    for (m, n) in [(1, 1), (2, 1), (3, 2)]:
        exact = to_numpy(build_legendre_block(m, n))
        oracle = _fft_oracle_block(m, n)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(exact - oracle)) <= 1e-9 * scale, (m, n)


def test_blocks_preserve_their_subspace():
    # every operator-table application lands back in the block's own basis:
    # the assembled column norms account for the whole image (Parseval on the
    # FFT oracle already shows it; here check the exact bookkeeping closes)
    for (m, n) in [(1, 1), (4, 3)]:
        basis = trig_basis(m, n)
        assert len(set(basis)) == len(basis) == 4
        blk = build_legendre_block(m, n)
        assert blk.order == 20


def test_p5_coefficient_values():
    a0, a1, a2, a3, a4, a5 = p5_coefficients(1, 1)
    assert a5 == -1
    assert a4 == 117
    assert a0 < 0
    assert p5_coefficients(2, 1)[0] == 0


def test_p5_factorization_examples():
    # the whole-block identity charpoly = P5^4 follows from the per-component
    # check of verify_p5_factorization; here it is recomputed as an oracle
    for (m, n) in [(1, 1), (2, 1), (3, 3)]:
        rep = verify_p5_factorization(m, n)
        assert rep.block_order == 20
        assert rep.quintic == p5_polynomial(m, n)
        assert charpoly_exact(build_legendre_block(m, n)) == poly_product(*[rep.quintic] * 4)


def test_verify_passes_at_every_certify_label():
    """verify_p5_factorization holds at each label 1 <= m, n <= 12, the labels
    the certify benchmark draws, with the quintic perfbench/refs.json records."""
    refs = json.loads(REFS.read_text(encoding="utf-8"))["p5"]
    for m in range(1, 13):
        for n in range(1, 13):
            assert list(verify_p5_factorization(m, n).quintic.coeffs) == refs[f"{m},{n}"], (m, n)


def _leading_differences(values) -> list[int]:
    """Delta^j v(0) for j = 0 .. len - 1, from the samples v(0), v(1), ....

    If v is a polynomial of degree < len, v(u) = sum_j Delta^j v(0) C(u, j)
    for every u, and C(u, j) >= 0 for every integer u >= 0.
    """
    out, row = [], list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def _leading_differences_2d(grid) -> list[list[int]]:
    """Delta_u^j Delta_v^l v(0, 0) at [j][l], from the samples grid[u][v]."""
    along_v = [_leading_differences(row) for row in grid]
    along_u = [_leading_differences(col) for col in zip(*along_v)]
    return [list(row) for row in zip(*along_u)]


def test_each_interior_component_has_charpoly_minus_p5():
    """Every interior block splits into four 5 x 5 components with charpoly -P5,
    at every label m, n >= 1, from a 21 x 21 grid.

    Each entry of an interior block is a + b sqrt(2), with a and b integer
    polynomials in (m, n) of degree <= 4 in each: the rule coefficients are
    at most quadratic in lam = m^2 + 2 n^2, and the derivatives bring m and
    sqrt(2) n.  So an entry that vanishes at 1 <= m, n <= 21 vanishes at
    every label, and the coefficient of x^i in the charpoly of a 5 x 5
    principal submatrix, rational and sqrt(2) parts alike, has degree
    <= 4 (5 - i) <= 20 in each of m and n, as have a0..a5 of P5.  Two such
    polynomials that agree on the grid are equal.  Hence the four index sets
    that components finds at (3, 2) split every interior block, and each
    has charpoly det(xI - A) = -P5 (P5 leads with -x^5), an integer
    polynomial (charpoly_exact runs on the component's sqrt(2)-graded form).
    """
    sets = [c for c, _ in components(build_legendre_block(3, 2))]
    assert [len(c) for c in sets] == [5, 5, 5, 5]
    part_of = {i: k for k, c in enumerate(sets) for i in c}
    for m in range(1, 22):
        for n in range(1, 22):
            block = build_legendre_block(m, n)
            assert all(
                block[i, j] == 0
                for i in range(20)
                for j in range(20)
                if part_of[i] != part_of[j]
            ), (m, n)
            p5 = p5_polynomial(m, n)
            for c in sets:
                part = matrix([[block[i, j] for j in c] for i in c])
                assert charpoly_exact(part) == IntPolynomial([-a for a in p5.coeffs]), (m, n, c)


@pytest.mark.parametrize("axis", [lambda t: (t, 0), lambda t: (0, t)], ids=["m", "n"])
def test_axis_blocks_are_positive_from_the_cutoff(axis):
    """Every axis block (t, 0) and (0, t) with t >= AXIS_CUTOFF is positive definite.

    The entries of the 10 x 10 block, t >= 1, are polynomials in t of degree
    <= 4, so the coefficient c_i of x^i in its charpoly p has degree
    <= 4 (10 - i) <= 40 in t; 42 samples give its differences at t0 to order
    41, which must vanish.  If every difference of (-1)^i c_i at t0 is >= 0,
    the lemma of _leading_differences gives (-1)^i c_i(t) >= 0 and
    c_0(t) >= c_0(t0) for every integer t >= t0.  With c_0(t0) > 0, p(-x) has
    no sign change and p(0) != 0; p is real-rooted, so by Descartes the block
    has no eigenvalue <= 0, as in matrices.eigenvalue_signs.  At t0 = 2 the
    certificate fails: both (2, 0) and (0, 2) carry kernels.
    """
    t0 = legendre.AXIS_CUTOFF
    samples = [charpoly_exact(build_legendre_block(*axis(t0 + u))).coeffs for u in range(42)]
    assert samples[0][0] > 0
    for i in range(11):
        diffs = _leading_differences([(-1) ** i * c[i] for c in samples])
        assert diffs[41] == 0, i
        assert all(d >= 0 for d in diffs), i


LEMMA_ORIGINS = ((3, 1), (1, 2))  # the quadrants m >= m0, n >= n0 of the lemma
LEMMA_SIGNS = (1, -1, 1, -1, 1, -1)  # a0 > 0, a1 < 0, ..., a5 < 0


def test_descartes_lemma_holds_for_every_label():
    """The six sign conditions hold at every label of the lemma hypothesis.

    a0..a5 have degree <= 20 in each of m and n, so on the 22 x 22 grid from
    an origin (m0, n0) the two-variable differences of order 21 vanish, and
    s_i a_i(m0 + u, n0 + v) = sum Delta_u^j Delta_v^l (s_i a_i)(m0, n0)
    C(u, j) C(v, l).  Every difference is >= 0 and the value at the origin
    is > 0, so s_i a_i > 0 on the whole quadrant.  The two quadrants cover
    satisfies_lemma_hypothesis; descartes_lemma_check is an oracle on a
    finite window, not the proof.
    """
    for m0, n0 in LEMMA_ORIGINS:
        grid = [[p5_coefficients(m0 + u, n0 + v) for v in range(22)] for u in range(22)]
        for i, s in enumerate(LEMMA_SIGNS):
            diffs = _leading_differences_2d([[s * a[i] for a in row] for row in grid])
            assert diffs[0][0] > 0, (m0, n0, i)
            assert all(d >= 0 for row in diffs for d in row), (m0, n0, i)
            assert all(diffs[21][j] == diffs[j][21] == 0 for j in range(22)), (m0, n0, i)
    for m in range(1, 31):
        for n in range(1, 31):
            inside = any(m >= m0 and n >= n0 for m0, n0 in LEMMA_ORIGINS)
            assert satisfies_lemma_hypothesis(m, n) == inside, (m, n)


def test_p5_mismatch_reporting(monkeypatch):
    with pytest.raises(ValueError):
        verify_p5_factorization(0, 1)
    # a deliberately perturbed quintic is neither the factor of the whole
    # block's charpoly nor, negated, the charpoly of a component
    a0, *rest = p5_polynomial(1, 1).coeffs
    perturbed = IntPolynomial([a0 + 1, *rest])  # shift a0 by 1
    assert charpoly_exact(build_legendre_block(1, 1)) != poly_product(*[perturbed] * 4)
    monkeypatch.setattr(legendre, "p5_polynomial", lambda m, n: perturbed)
    with pytest.raises(CharpolyMismatchError) as err:
        verify_p5_factorization(1, 1)
    assert (err.value.power, err.value.expected, err.value.got) == (0, -a0 - 1, -a0)


def test_p5_mismatch_on_a_block_split_otherwise(monkeypatch):
    # drop the couplings inside the last component of the (3, 2) block: the
    # first three components still have charpoly -P5, the 1 x 1 ones do not
    block = build_legendre_block(3, 2)
    last = set(components(block)[-1][0])
    split = matrix([
        [block[i, j] if i == j or not {i, j} <= last else 0 for j in range(block.order)]
        for i in range(block.order)
    ])
    assert [len(c) for c, _ in components(split)] == [5, 5, 5, 1, 1, 1, 1, 1]
    monkeypatch.setattr(legendre, "build_legendre_block", lambda m, n: split)
    with pytest.raises(CharpolyMismatchError) as err:
        verify_p5_factorization(3, 2)
    first = split[min(last), min(last)]
    assert (err.value.power, err.value.expected) == (0, -p5_coefficients(3, 2)[0])
    assert err.value.got == -first.a and first.b == 0


def test_p5_root_counts_drive_the_two_small_blocks():
    p11 = p5_polynomial(1, 1)
    assert count_roots(p11, "negative") == 1
    assert zero_root_multiplicity(p11) == 0
    p21 = p5_polynomial(2, 1)
    assert count_roots(p21, "negative") == 0
    assert zero_root_multiplicity(p21) == 1


def test_lemma_hypothesis_set():
    assert not satisfies_lemma_hypothesis(1, 1)
    assert not satisfies_lemma_hypothesis(2, 1)
    assert satisfies_lemma_hypothesis(1, 2)
    assert satisfies_lemma_hypothesis(3, 1)
    assert satisfies_lemma_hypothesis(2, 2)
    excluded = [
        (m, n)
        for m in range(1, 30)
        for n in range(1, 30)
        if not satisfies_lemma_hypothesis(m, n)
    ]
    assert excluded == [(1, 1), (2, 1)]


def test_descartes_conditions():
    assert all(_sign_conditions(p5_coefficients(1, 2)))
    # at (1,1) only the last condition fails, and the block is excluded anyway
    conds = _sign_conditions(p5_coefficients(1, 1))
    assert conds[:5] == (True, True, True, True, True)
    assert not conds[5]
    # the first five conditions hold on the whole quadrant sample
    for m in range(1, 9):
        for n in range(1, 9):
            assert _sign_conditions(p5_coefficients(m, n))[:5] == (True,) * 5


def test_descartes_lemma_check_small_range():
    rep = descartes_lemma_check(10, 10)
    assert rep.violations == ()
    assert rep.sturm_confirmed
    assert rep.checked == 98  # 10*10 minus the two excluded labels
    # the CLI parser stops a smaller range first; the function refuses it too
    for m_max, n_max in ((2, 5), (5, 2)):
        with pytest.raises(ValueError, match="range must reach at least"):
            descartes_lemma_check(m_max, n_max)


def test_p5_table_shape_is_the_degree_premise():
    """P5_TABLE[i][a][b] multiplies m^(2a) n^(2b) in a_i, so at most 11 rows of
    at most 11 entries is degree <= 20 in m and in n: the premise of
    test_each_interior_component_has_charpoly_minus_p5 and
    test_descartes_lemma_holds_for_every_label."""
    assert len(legendre.P5_TABLE) == 6
    for rows in legendre.P5_TABLE:
        assert 1 <= len(rows) <= 11
        assert all(len(r) <= 11 for r in rows)
        assert all(type(c) is int for r in rows for c in r)
    assert legendre.P5_TABLE[5] == ((-1,),)


def test_descartes_window_reads_the_table(monkeypatch):
    """A sign flip of one a3 entry in P5_TABLE shows in the window, so the
    window checks the row path rather than a copy of the coefficients."""
    assert descartes_lemma_check(10, 10).violations == ()
    a3 = [list(r) for r in legendre.P5_TABLE[3]]
    a3[0][4] = -a3[0][4]  # the coefficient -160 of n^8
    table = list(legendre.P5_TABLE)
    table[3] = tuple(map(tuple, a3))
    monkeypatch.setattr(legendre, "P5_TABLE", tuple(table))
    assert descartes_lemma_check(10, 10).violations != ()


def test_descartes_window_counts_the_quintic_of_each_label(monkeypatch):
    """The window hands count_roots P5(m, n) itself, once per hypothesis
    label in (m, n) order: the quintic evaluated at N = n^2, not at some
    other argument."""
    seen = []
    real = legendre.count_roots

    def count(p, region):
        seen.append(p)
        return real(p, region)

    monkeypatch.setattr(legendre, "count_roots", count)
    rep = descartes_lemma_check(6, 5)
    labels = [(m, n) for m in range(1, 7) for n in range(1, 6) if satisfies_lemma_hypothesis(m, n)]
    assert rep.checked == len(labels) == 28
    assert seen == [p5_polynomial(m, n) for m, n in labels]


def test_a_sturm_count_that_disagrees_is_a_violation(capsys, monkeypatch):
    """The window's Sturm confirmation is read: one negative root counted at
    (3, 2) makes that label a violation, sturm_confirmed false and legendre
    descartes exit 2, while the six sign conditions still hold there."""
    at_32 = p5_coefficients(3, 2)
    real = legendre.count_roots

    def count(p, kind):
        return 1 if (kind, tuple(p.coeffs)) == ("negative", at_32) else real(p, kind)

    monkeypatch.setattr(legendre, "count_roots", count)
    rep = descartes_lemma_check(4, 3)
    assert rep.violations == ((3, 2),) and rep.sturm_confirmed is False
    assert main(["legendre", "descartes", "--m", "4", "--n", "3"]) == EXIT_VERIFICATION
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["violations"] == [[3, 2]] and results["sturm_confirmed"] is False


def test_a_root_at_zero_counted_by_sturm_is_a_violation(capsys, monkeypatch):
    """The window reads the zero count as well as the negative one: a root at
    0 counted at (4, 1) makes that label a violation, sturm_confirmed false
    and legendre descartes exit 2, while its negative count stays 0.  A label
    that fails the six signs as well is listed once."""
    at_41 = p5_coefficients(4, 1)
    real = legendre.zero_root_multiplicity

    def multiplicity(p):
        return 1 if tuple(p.coeffs) == at_41 else real(p)

    monkeypatch.setattr(legendre, "zero_root_multiplicity", multiplicity)
    assert legendre.count_roots(IntPolynomial(at_41), "negative") == 0
    rep = descartes_lemma_check(4, 3)
    assert rep.violations == ((4, 1),) and rep.sturm_confirmed is False
    assert main(["legendre", "descartes", "--m", "4", "--n", "3"]) == EXIT_VERIFICATION
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["violations"] == [[4, 1]] and results["sturm_confirmed"] is False
    signs = legendre._sign_conditions
    monkeypatch.setattr(legendre, "_sign_conditions",
                        lambda cs: (False,) * 6 if tuple(cs) == at_41 else signs(cs))
    assert descartes_lemma_check(4, 3).violations == ((4, 1),)
    monkeypatch.setattr(legendre, "zero_root_multiplicity", real)  # the sign test alone lists it too
    assert descartes_lemma_check(4, 3)[3:] == (((4, 1),), True)


def test_index_nullity_ledger():
    led = legendre_index_nullity()
    assert (led.index, led.nullity) == (11, 18)
    assert led.index_split == CITED_INDEX_SPLIT
    assert led.nullity_split == CITED_NULLITY_SPLIT
    assert led.split_matches_cited
    assert sum(led.index_split) == 11
    assert sum(led.nullity_split) == 18


def test_axis_blocks_have_rational_charpoly():
    for t in range(1, 5):
        for (m, n) in [(t, 0), (0, t)]:
            p = charpoly_exact(build_legendre_block(m, n))
            assert len(p.coeffs) == 11
            assert p.coeffs[-1] == 1


def test_frame_sections_ordering():
    # rows and columns: the frames in listing order, the Fourier functions inside
    assert tuple(OPERATOR_TABLE) == ("U1", "U2", "phiU1", "phiU2", "xi")
    assert trig_basis(1, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert trig_basis(2, 0) == [(0, 0), (1, 0)]
    assert trig_basis(0, 3) == [(0, 0), (0, 1)]
    assert trig_basis(0, 0) == [(0, 0)]
    assert build_legendre_block(2, 0).order == 5 * len(trig_basis(2, 0)) == 10
    assert build_legendre_block(0, 0).order == 5
    # column 0 is U1 cos cos; its X2 rule, 4 (lam + 1) X2 f phiU2, lands in
    # row 12 + 1 (phiU2 cos sin), and no U1 rule reaches U1 cos sin (row 1)
    blk = build_legendre_block(1, 1)
    assert blk[13, 0] == QuadExt(0, -16) and blk[1, 0] == 0
