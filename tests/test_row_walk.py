"""The row walk's guesses change its cost, never its answer.

sign_runs walks each row from where the previous rows left it: a row m <= k
through _step_down, which steps the one end of a run that starts at n = 1
down from any e with D(e + 1) > 0, and a row k < m <= last_row(k) through
_convex_run, from guesses.  Here both run on real torus rows, _step_down from
every start the staircase lemma allows and _convex_run from arbitrary
guesses, and the run, zero pairs and witness must equal a brute-force pass of
D = A*B - C^2 over the whole row.
"""

from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bihindex.torus import (  # noqa: E402
    _convex_run,
    _step_down,
    discriminant,
    enumeration_bound,
    last_row,
)

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


# guesses near the row's n range, and far outside it on either side
guess = st.one_of(st.integers(-3, 3 * 200), st.integers(-(10**9), 10**9))


def row_quartic(k, m):
    """(c3, c2, c1, c0, m2) of the row, as sign_runs builds it."""
    k2, m2 = k * k, m * m
    k4 = k2 * k2
    c1 = k4 * (2 * m2 - k2)
    return k2, -(k4 + 4 * k2 * m2), c1, 2 * m2 * c1, m2


def walk_row(k, m, n_max, guesses):
    """(negative n, zero n, witness or None) of the row, walked from the guesses.

    A row m <= k steps down from the first n >= the guess with D(n + 1) > 0,
    any start the staircase allows, up to n_max (D > 0 past the bound)."""
    q = row_quartic(k, m)
    if m <= k:
        e = min(max(guesses[1], 0), n_max)
        while e < n_max and discriminant(k, m, e + 1) <= 0:
            e += 1
        n_hi, zeros, _ = _step_down(q, e)
        return list(range(1, n_hi + 1)), zeros, None
    n_lo, n_hi, zeros, nv = _convex_run(q, n_max, *guesses)
    return list(range(n_lo, n_hi + 1)), zeros, nv


def _brute_force(k, m, n_max):
    """(negative n, zero n, first integer minimum of an empty row m > k or None)."""
    ds = [discriminant(k, m, n) for n in range(1, n_max + 1)]
    neg = [n for n, v in enumerate(ds, 1) if v < 0]
    zero = [n for n, v in enumerate(ds, 1) if v == 0]
    empty_convex = not neg and not zero and m > k
    return neg, zero, ds.index(min(ds)) + 1 if empty_convex else None


@SEARCH
@given(torus_rows(), st.lists(guess, min_size=2, max_size=2))
def test_seeds_change_only_the_cost(row, guesses):
    k, m = row
    n_max = isqrt(enumeration_bound(k) - m * m - 1)
    assert walk_row(k, m, n_max, guesses) == _brute_force(k, m, n_max)
