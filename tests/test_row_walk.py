"""The row search's seeds change its cost, never its answer.

_quartic_run walks each run end from guesses that sign_runs carries over
from the previous rows.  Here it runs on real torus rows from arbitrary
seeds, and its run, zero pairs and witness must equal a brute-force pass of
D = A*B - C^2 over the whole row.
"""

from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bihindex.torus import _quartic_run, discriminant, enumeration_bound, last_row  # noqa: E402

SEARCH = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def torus_rows(draw):
    k = draw(st.integers(1, 200))
    return k, draw(st.integers(1, last_row(k)))


# guesses near the row's n range, and far outside it on either side
seed = st.one_of(st.integers(-3, 3 * 200), st.integers(-(10**9), 10**9))


def _brute_force(k, m, n_max):
    """(negative n, zero n, first integer minimum of an empty convex row or None)."""
    ds = [discriminant(k, m, n) for n in range(1, n_max + 1)]
    neg = [n for n, v in enumerate(ds, 1) if v < 0]
    zero = [n for n, v in enumerate(ds, 1) if v == 0]
    empty_convex = not neg and not zero and 2 * m * m > k * k
    return neg, zero, ds.index(min(ds)) + 1 if empty_convex else None


@SEARCH
@given(torus_rows(), st.lists(seed, min_size=6, max_size=6))
def test_seeds_change_only_the_cost(row, seeds):
    k, m = row
    k2, m2 = k * k, m * m
    k4 = k2 * k2
    n_max = isqrt(enumeration_bound(k) - m2 - 1)
    c1 = k4 * (2 * m2 - k2)
    n_lo, n_hi, zeros, nv = _quartic_run(k2, -(k4 + 4 * k2 * m2), c1, 2 * m2 * c1, m2, n_max, seeds)
    assert (list(range(n_lo, n_hi + 1)), zeros, nv) == _brute_force(k, m, n_max)
