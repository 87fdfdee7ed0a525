"""Circle family: blocks, eigenvalue identification with the torus axis, counts."""

import numpy as np
import pytest

from bihindex.circle import (
    circle_index_nullity,
    circle_index_nullity_by_matrices,
)
from bihindex.exact import QuadExt
from bihindex.matrices import eigenvalue_signs
from bihindex.torus import InvalidLabelError, block_matrix, eigenvalue, last_row

from oracles import circle_block, to_numpy


def test_zero_mode_block():
    for k in (1, 2, 7):
        arr = to_numpy(block_matrix(k, 0, 0))
        assert arr.tolist() == [[0.0, 0.0], [0.0, -float(k**4)]]


def test_block_entries():
    b = block_matrix(3, 2, 0)
    # off-diagonal +-2 sqrt(2) k m^3 with k = 3, m = 2
    assert b[0, 3] == QuadExt(0, -2 * 3 * 8)
    assert b[2, 1] == QuadExt(0, 2 * 3 * 8)
    assert b[0, 0] == 4 * (4 + 27)
    assert b[2, 2] == 16 + 2 * 9 * 4 - 81


def test_block_equals_torus_axis_block():
    # the circle's own rules, written out in the oracle, give the torus block
    for k in range(1, 21):
        for m in range(0, 21):
            assert circle_block(k, m) == block_matrix(k, m, 0), (k, m)


def test_index_nullity_formula():
    assert circle_index_nullity(1) == (1, 3)
    assert circle_index_nullity(3) == (5, 3)
    assert circle_index_nullity(50) == (99, 3)
    # closed form: no per-m work, so a huge winding number answers at once
    assert circle_index_nullity(10**9) == (2 * 10**9 - 1, 3)
    for k in range(1, 26):
        assert circle_index_nullity(k) == (1 + 2 * (k - 1), 3)


def test_matrix_counting_path_agrees():
    for k in range(1, 201):
        assert circle_index_nullity_by_matrices(k) == circle_index_nullity(k), k


def test_the_blocks_past_the_cut_are_positive_definite():
    # the recount stops at last_row(k): each block past it, up to the old
    # enumeration bound 3k, has no negative or zero eigenvalue
    for k in range(1, 61):
        for m in range(last_row(k) + 1, 3 * k + 1):
            assert eigenvalue_signs(block_matrix(k, m, 0)) == (0, 0), (k, m)


def test_block_eigenvalues_numeric():
    for k in (2, 5):
        for m in (1, 3, 8):
            ev = np.sort(np.linalg.eigvalsh(to_numpy(block_matrix(k, m, 0))))
            lam = float(eigenvalue(k, m, 0, "minus"))
            lap = float(eigenvalue(k, m, 0, "plus"))
            expected = np.sort([lam, lam, lap, lap])
            assert np.allclose(ev, expected, rtol=1e-10, atol=1e-9)


def test_label_validation():
    with pytest.raises(InvalidLabelError):
        circle_index_nullity(0)
    with pytest.raises(InvalidLabelError):
        circle_index_nullity_by_matrices(-1)
    with pytest.raises(InvalidLabelError):
        block_matrix(1, -1, 0)
