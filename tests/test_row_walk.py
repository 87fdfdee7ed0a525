"""The bracket a row is walked from changes the walk's cost, never its answer.

sign_runs walks each row from the run of the row before it (torus._walk): the
nesting lemma puts the row's run {n >= 1 : D <= 0} inside that bracket, hi
steps down to the run's upper end, lo steps up to its lower end on a row past
the axis zero m = k, and an empty row past it is walked downhill to its first
integer minimum.  Here the walk enters real torus rows from every bracket
that contains the run, and the run, zero pairs and witness of the row must
equal a brute-force pass of D = A*B - C^2 over the whole row.
"""

from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bihindex.torus import _walk, discriminant, enumeration_bound, last_row  # noqa: E402

SEARCH = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def torus_rows(draw):
    # rows past the axis zero m = k are about 3 % of all rows, so draw them
    # as often as the others: a row k < m <= last_row(k) when k >= 2 allows one
    k = draw(st.integers(1, 200))
    if last_row(k) > k and draw(st.booleans()):
        return k, draw(st.integers(k + 1, last_row(k)))
    return k, draw(st.integers(1, k))


def row_quartic(k, m):
    """(c3, c2, c1, c0, m2) of the row, the quartic in s that _walk evaluates."""
    k2, m2 = k * k, m * m
    k4 = k2 * k2
    c1 = k4 * (2 * m2 - k2)
    return k2, -(k4 + 4 * k2 * m2), c1, 2 * m2 * c1, m2


def walk_row(k, m, lo, hi):
    """(negative n, zero n, witness or None) of row m, walked from lo..hi."""
    runs, zeros, witnesses = _walk(k, m, row_quartic(k, m), lo, hi)
    neg = [n for row, n_lo, n_hi in runs if row == m for n in range(n_lo, n_hi + 1)]
    return neg, [n for row, n in zeros if row == m], dict(witnesses).get(m)


def _brute_force(k, m, n_max):
    """(negative n, zero n, first integer minimum of an empty row m > k or None)."""
    ds = [discriminant(k, m, n) for n in range(1, n_max + 1)]
    neg = [n for n, v in enumerate(ds, 1) if v < 0]
    zero = [n for n, v in enumerate(ds, 1) if v == 0]
    empty_convex = not neg and not zero and m > k
    return neg, zero, ds.index(min(ds)) + 1 if empty_convex else None


@SEARCH
@given(torus_rows(), st.data())
def test_seeds_change_only_the_cost(row, data):
    # the bracket lo..hi is any one that contains the run: lo = 1 on a row
    # m <= k (the one-end lemma), and any lo <= hi + 1 on an empty row, whose
    # witness walk starts from lo
    k, m = row
    n_max = isqrt(enumeration_bound(k) - m * m - 1)
    expected = _brute_force(k, m, n_max)
    run = sorted(expected[0] + expected[1])
    if m <= k:
        lo = 1
    else:
        lo = data.draw(st.integers(1, run[0] if run else n_max), label="lo")
    hi = data.draw(st.integers(run[-1] if run else lo - 1, n_max), label="hi")
    assert walk_row(k, m, lo, hi) == expected
