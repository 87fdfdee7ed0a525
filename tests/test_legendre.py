"""Legendre torus blocks: printed entries, an FFT oracle, the quintic, the ledger."""

import math

import numpy as np
import pytest

from bihindex import legendre
from bihindex.exact import QuadExt
from bihindex.legendre import (
    CITED_INDEX_SPLIT,
    CITED_NULLITY_SPLIT,
    FRAMES,
    OPERATOR_TABLE,
    build_legendre_block,
    descartes_conditions,
    descartes_lemma_check,
    legendre_index_nullity,
    p5_coefficients,
    p5_polynomial,
    satisfies_lemma_hypothesis,
    verify_p5_factorization,
)
from bihindex.matrices import ExactMatrix, charpoly_exact, components, trig_basis
from bihindex.polynomials import count_roots

from oracles import to_numpy


def test_block_orders():
    assert build_legendre_block(0, 0).order == 5
    assert build_legendre_block(3, 0).order == 10
    assert build_legendre_block(0, 2).order == 10
    assert build_legendre_block(1, 1).order == 20


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
    for fi, frame in enumerate(FRAMES):
        for j, g in enumerate(gs):
            col = fi * 4 + j
            image = {fr: np.zeros_like(g) for fr in FRAMES}
            for out_frame, kind, coeff in OPERATOR_TABLE[frame]:
                image[out_frame] = image[out_frame] + coeff(lam) * ops[kind](g)
            for fo, frame_out in enumerate(FRAMES):
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
    for (m, n) in [(1, 1), (2, 1), (3, 3)]:
        rep = verify_p5_factorization(m, n)
        assert rep.block_order == 20
        assert rep.charpoly == p5_polynomial(m, n) ** 4


def test_each_interior_component_has_charpoly_minus_p5():
    # charpoly = P5^4 as one 5 x 5 check times four: each component of an
    # interior block has charpoly det(xI - A) = -P5 (P5 leads with -x^5)
    for m in range(1, 13):
        for n in range(1, 13):
            block = build_legendre_block(m, n)
            comps = components(block)
            assert [len(c) for c in comps] == [5, 5, 5, 5]
            for c in comps:
                part = ExactMatrix([[block[i, j] for j in c] for i in c])
                assert charpoly_exact(part) == -p5_polynomial(m, n), (m, n, c)


def test_p5_mismatch_reporting():
    # a deliberately perturbed quintic cannot be the charpoly factor
    from bihindex.polynomials import IntPolynomial

    perturbed = p5_polynomial(1, 1) + IntPolynomial([1])  # shift a0 by 1
    cp = charpoly_exact(build_legendre_block(1, 1))
    assert cp != perturbed**4
    with pytest.raises(ValueError):
        verify_p5_factorization(0, 1)


def test_p5_root_counts_drive_the_two_small_blocks():
    p11 = p5_polynomial(1, 1)
    assert count_roots(p11, "negative") == 1
    assert count_roots(p11, "zero") == 0
    p21 = p5_polynomial(2, 1)
    assert count_roots(p21, "negative") == 0
    assert count_roots(p21, "zero") == 1


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
    assert all(descartes_conditions(1, 2))
    # at (1,1) only the last condition fails, and the block is excluded anyway
    conds = descartes_conditions(1, 1)
    assert conds[:5] == (True, True, True, True, True)
    assert not conds[5]
    # the first five conditions hold on the whole quadrant sample
    for m in range(1, 9):
        for n in range(1, 9):
            assert descartes_conditions(m, n)[:5] == (True,) * 5


def test_descartes_lemma_check_small_range():
    rep = descartes_lemma_check(10, 10)
    assert rep.violations == ()
    assert rep.sturm_confirmed
    assert rep.checked == 98  # 10*10 minus the two excluded labels


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
            assert p.degree == 10
            assert p.leading() == 1


def test_frame_sections_ordering():
    # rows and columns: the frames in listing order, the Fourier functions inside
    assert FRAMES == ("U1", "U2", "phiU1", "phiU2", "xi")
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


def test_axis_scan_is_bounded(monkeypatch):
    ledger = legendre_index_nullity()
    assert (ledger.axis_m_scanned_to, ledger.axis_n_scanned_to) == (5, 5)
    # a sign count that never reports a positive block must stop at the cap
    calls = []

    def always_negative(m, n):
        calls.append((m, n))
        return 1, 0

    monkeypatch.setattr(legendre, "_block_counts", always_negative)
    with pytest.raises(legendre.AxisScanLimitError):
        legendre.legendre_index_nullity()
    assert len(calls) <= legendre.AXIS_SCAN_LIMIT + 1  # the (0, 0) block, then one axis
