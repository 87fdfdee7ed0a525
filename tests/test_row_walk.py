"""The bracket a row is walked from changes the walk's cost, never its answer.

sign_runs walks each row from the run of the row before it (torus._walk): the
nesting lemma puts the row's run {n >= 1 : D <= 0} inside that bracket, hi
steps down to the run's upper end, lo steps up to its lower end on a row past
the axis zero m = k, and an empty row ends the walk.  Here the walk enters
real torus rows from every bracket that contains the run, and the closed run
of D <= 0 of the row must equal a brute-force pass of D = A*B - C^2 over the
whole row.
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
    """(the n with D <= 0, g) of row m and the rows after it, walked from lo..hi."""
    runs, g = _walk(k, m, row_quartic(k, m), lo, hi)
    return [n for row, n_lo, n_hi in runs if row == m for n in range(n_lo, n_hi + 1)], g


def _brute_force(k, m, n_max):
    """(the n with D <= 0, the zero count) of row m; no torus row with k <= 10^4
    has a zero, so the rows after it add none to the walk's g."""
    ds = [discriminant(k, m, n) for n in range(1, n_max + 1)]
    return [n for n, v in enumerate(ds, 1) if v <= 0], ds.count(0)


@SEARCH
@given(torus_rows(), st.data())
def test_seeds_change_only_the_cost(row, data):
    # the bracket lo..hi is any one that contains the run: lo = 1 on a row
    # m <= k (the one-end lemma), and any lo <= hi + 1 on an empty row
    k, m = row
    n_max = isqrt(enumeration_bound(k) - m * m - 1)
    expected = _brute_force(k, m, n_max)
    run = expected[0]
    if m <= k:
        lo = 1
    else:
        lo = data.draw(st.integers(1, run[0] if run else n_max), label="lo")
    hi = data.draw(st.integers(run[-1] if run else lo - 1, n_max), label="hi")
    assert walk_row(k, m, lo, hi) == expected
