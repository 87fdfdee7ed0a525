"""Conjecture scan: the exact sign runs against the O(k^2) oracle, determinism,
the near-tie family."""

import functools
import os
from hashlib import sha256
from math import isqrt

import pytest

from bihindex import torus
from bihindex.scan import (
    conjecture_scan,
    scan_row,
)
from bihindex.torus import (
    ScanRow,
    _walk,
    discriminant,
    enumeration_bound,
    interior_sign_scan,
    last_row,
    sign_runs,
)

from oracles import run_pairs


def test_fast_scan_matches_exact_scan():
    for k in range(1, 41):
        f, g, _, _ = interior_sign_scan(k)
        row = scan_row(k)
        assert (row.f, row.g) == (f, g), k


def test_the_oracle_lists_a_zero(monkeypatch):
    # no interior zero of D occurs for k <= 10^4, so the oracle's zero branch
    # is driven by a D that vanishes at one extra pair, here a negative one
    real = torus.discriminant
    _, _, neg, _ = interior_sign_scan(5)
    assert (3, 4) in neg
    monkeypatch.setattr(
        torus, "discriminant", lambda k, m, n: 0 if (m, n) == (3, 4) else real(k, m, n)
    )
    f, g, neg_now, zero = interior_sign_scan(5)
    assert (f, g, zero) == (len(neg) - 1, 1, [(3, 4)])
    assert neg_now == [p for p in neg if p != (3, 4)]


ORACLE_KS = [*range(1, 121), 155, 192, 300]


@functools.lru_cache(maxsize=None)
def _oracle_pairs(k):
    _, _, neg, zero = interior_sign_scan(k)
    return neg, zero


def _oracle_mismatches(ks):
    """The k whose sign runs differ from the O(k^2) oracle, pair for pair."""
    bad = []
    for k in ks:
        runs, zeros, _ = sign_runs(k)
        neg, zero = _oracle_pairs(k)
        if run_pairs(runs) != neg or zeros != zero:
            bad.append(k)
        assert all(n_lo <= n_hi for _, n_lo, n_hi in runs), k
    return bad


def test_sign_runs_match_oracle():
    # negative pairs and zero pairs, in (m, n) order, pair for pair
    assert _oracle_mismatches(ORACLE_KS) == []


# the k with a negative pair in a row m > k: every k >= 30 of ORACLE_KS
PAST_THE_AXIS_ZERO = [k for k in ORACLE_KS if k >= 30]


def test_a_lower_row_cut_fails_the_oracle(monkeypatch):
    # the cut at the axis zero, m <= k, drops the runs with k < m <= 1.034k,
    # which every k >= 30 here has
    monkeypatch.setattr(torus, "last_row", lambda k: k)
    assert _oracle_mismatches(ORACLE_KS) == PAST_THE_AXIS_ZERO


def test_the_next_ratio_cut_fails_the_oracle(monkeypatch):
    # 16/15, the ratio (j + 1)/j after 15/14, lies below m^2/k^2 of the last
    # negative row (about 1.068) often enough to drop runs
    monkeypatch.setattr(torus, "last_row", lambda k: isqrt(16 * k * k // 15))
    assert _oracle_mismatches(ORACLE_KS) == [30, 59, 60, 89, 90, 91, 118, 119, 120, 300]


def test_runs_start_at_one_up_to_the_axis_zero(monkeypatch):
    # the one-end lemma: every run in a row m <= k starts at n = 1
    for k in ORACLE_KS:
        runs, _, _ = sign_runs(k)
        assert all(n_lo == 1 for m, n_lo, _ in runs if m <= k), k
    # and it stops at m = k: a walk that kept lo = 1 in row k + 1, as the
    # one-end rows do, fails the oracle wherever that row has a run
    real = torus._walk

    def start_at_one_past_the_axis(k, *entry):
        runs, zeros, witnesses = real(k, *entry)
        runs = [(m, 1 if m == k + 1 else n_lo, n_hi) for m, n_lo, n_hi in runs]
        return runs, zeros, witnesses

    monkeypatch.setattr(torus, "_walk", start_at_one_past_the_axis)
    assert _oracle_mismatches(ORACLE_KS) == PAST_THE_AXIS_ZERO


def test_sign_runs_past_the_old_float_range():
    # at k = 10^4 the terms of D reach 10^35, far past float64's exact range;
    # the run ends must still be exact sign changes
    k = 10_000
    runs, zeros, _ = sign_runs(k)
    assert zeros == []
    by_m = {m: (n_lo, n_hi) for m, n_lo, n_hi in runs}
    last = max(by_m)
    assert sorted(by_m) == list(range(1, last + 1))
    bound = enumeration_bound(k)
    # 7071 / 7072 straddle 2m^2 = k^2, where the row becomes convex, and
    # 10000 / 10001 the axis zero m = k, where the run leaves n = 1
    for m in (1, 2_500, 7_071, 7_072, 9_000, 10_000, 10_001, last, last + 1, 20_000):
        n_max = isqrt(bound - m * m - 1)
        brute = [n for n in range(1, n_max + 1) if discriminant(k, m, n) < 0]
        if m > last:
            assert brute == [], m
            continue
        n_lo, n_hi = by_m[m]
        assert brute == list(range(n_lo, n_hi + 1)), m
        assert n_lo == 1 or discriminant(k, m, n_lo - 1) > 0 >= discriminant(k, m, n_lo)
        assert discriminant(k, m, n_hi) <= 0 < discriminant(k, m, n_hi + 1)


def _expand(*factors):
    """Integer coefficients (highest first) of a product of polynomials."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _quartic(factors, m2):
    """(q, d) for D(s) = the product of factors: q = (c3, c2, c1, c0, m2) as
    the row walk takes it, and d(n) = D(m2 + n^2)."""
    one, c3, c2, c1, c0 = _expand(*factors)
    assert one == 1 and c3 > 0 > c2 and c1 * c0 > 0  # the sign pattern + + - e e

    def d(n):
        s = m2 + n * n
        return (((s + c3) * s + c2) * s + c1) * s + c0

    return (c3, c2, c1, c0, m2), d


@pytest.mark.parametrize(
    "factors, m2, expected",
    [
        # two simple roots s = 8, 16 = 7 + 1^2, 7 + 3^2: zeros at both ends
        (([1, -8], [1, -16], [1, 36, 191]), 7, (2, 2, [1, 3])),
        # a double root s = 3 = 2 + 1^2: the run is the single zero
        (([1, -3], [1, -3], [1, 7, 4]), 2, (2, 1, [1])),
        # one positive root s = 29 = 4 + 5^2 and D(0) < 0: run 1..5, stepped
        # down at its one end as a row m <= k is
        (([1, -29], [1, 1], [1, 30, 1]), 4, (1, 4, [5])),
        # the torus row k = 10, m = 11: no root, so the row must be proved
        # empty, with the convex minimum nv = 3 as its witness
        (([1, 100, -58400, 1420000, 343640000],), 121, None),
        # one positive root s = 5 = 4 + 1^2 and D(0) < 0: the run is the
        # single zero n = 1
        (([1, -5], [1, 1], [1, 30, 1]), 4, (1, 0, [1])),
    ],
)
def test_quartic_run_zero_at_run_end(factors, m2, expected):
    # no interior zero of D occurs in the torus family, so the walk's zero
    # branches are driven by synthetic rows with the same sign pattern
    # + + - e e, entered through _walk as the last row of their k: a row
    # m <= k as row 1 of k = 1, a row past the axis zero as row 11 of k = 10
    q, d = _quartic(factors, m2)
    c3, c2, _, c0, _ = q
    n_max = 20
    signs = {n: d(n) for n in range(1, n_max + 1)}
    assert last_row(1) == 1 and last_row(10) == 10
    if expected is None:
        assert min(signs.values()) > 0
    else:
        n_lo, n_hi, zeros = expected
        assert [n for n, v in signs.items() if v < 0] == list(range(n_lo, n_hi + 1))
        assert [n for n, v in signs.items() if v == 0] == zeros
        m = 1 if c0 < 0 else 11
        run = [(m, n_lo, n_hi)] if n_lo <= n_hi else []
    if c0 < 0:  # D(0) < 0 and one positive root: the run is 1..e
        assert d(0) < 0
        end = max(expected[1], *expected[2])
        # any bracket 1..hi with hi >= e contains the run
        for hi in (end, end + 1, 9, n_max):
            assert _walk(1, 1, q, 1, hi) == (run, [(m, z) for z in zeros], []), hi
        return
    assert (6 * m2 + 3 * c3) * m2 + c2 > 0  # the convexity lemma's premise
    if expected is None:
        # the torus row k = 10, m = 11: empty, so it must come with nv, the
        # minimum of the convex row, walked to from lo on either side of it
        assert min(range(1, n_max + 1), key=d) == 3
        for lo in (1, 4, 9, n_max):
            for hi in (lo - 1, lo, n_max):
                assert _walk(10, 11, q, lo, hi) == ([], [], [(11, 3)]), (lo, hi)
        return
    first, last = min(n_lo, *zeros), max(n_hi, *zeros)
    for lo in range(1, first + 1):
        for hi in (last, last + 1, 9, n_max):
            assert _walk(10, 11, q, lo, hi) == (run, [(m, z) for z in zeros], []), (lo, hi)


def test_quartic_run_rejects_a_concave_row():
    # roots s = 4, 8 with D''(0) < 0: the only pair with D <= 0 is the zero
    # n = 2, which a search for the convex minimum would miss, so an empty
    # row past the axis zero that is not convex must raise rather than
    # answer with a witness
    q, d = _quartic(([1, -4], [1, -8], [1, 23, 1]), 0)
    for n in (1, 4, 9, 20):
        assert d(n) > 0
        with pytest.raises(AssertionError, match="not convex"):
            _walk(10, 11, q, n, n)


def test_witnesses_are_first_minima_of_every_empty_convex_row():
    # torus index reports carry the witnesses, so they must not depend on how
    # the row is searched: each is the first integer minimum of D on its row,
    # every row k < m <= last_row(k) carries a run, a zero pair or a witness,
    # and no row m <= k carries a witness (D(1) > 0 proves such a row empty)
    for k in [*range(1, 61), 155, 176, 580]:
        runs, zeros, witnesses = sign_runs(k)
        bound = enumeration_bound(k)
        for m, nv in witnesses:
            assert k < m <= last_row(k), (k, m)
            ds = [discriminant(k, m, n) for n in range(1, isqrt(bound - m * m - 1) + 1)]
            assert nv == ds.index(min(ds)) + 1, (k, m)
        carried = {m for m, _, _ in runs} | {m for m, _ in zeros} | {m for m, _ in witnesses}
        past_the_axis_zero = set(range(k + 1, last_row(k) + 1))
        assert past_the_axis_zero <= carried, (k, sorted(past_the_axis_zero - carried))


def test_the_witness_is_the_first_of_two_tied_minima(monkeypatch):
    # no row with a witness has D(n) = D(n + 1) at its minimum in the tested
    # ranges, so the tie is made: on the empty row k = 29, m = 30 (witness 11)
    # the witness walk's D, torus._row_value, becomes a convex row with
    # equal minima at n = 11 and 12.  Entered below the tie, the right step
    # must stop on it; entered at or above n = 12, the left step must cross it
    k, m = 29, 30
    assert last_row(k) == m and sign_runs(k)[2] == [(m, 11)]
    real = torus._row_value

    def tied(q_, n):
        return (2 * n - 23) ** 2 + 1 if q_[4] == m * m else real(q_, n)

    monkeypatch.setattr(torus, "_row_value", tied)
    k2, m2 = k * k, m * m
    c1 = k2 * k2 * (2 * m2 - k2)
    q = (k2, -(k2 * k2 + 4 * k2 * m2), c1, 2 * m2 * c1, m2)  # the real row m
    for lo in (1, 10, 11, 12, 13, 20):
        assert _walk(k, m, q, lo, lo - 1) == ([], [], [(m, 11)]), lo
    assert sign_runs(k)[2] == [(m, 11)]


def test_conjecture_scan_small_range():
    rows = conjecture_scan(10)
    assert [r.k for r in rows] == list(range(1, 11))
    assert all(r.g == 0 and r.nullity == 5 for r in rows)
    assert [r for r in rows if r.flagged] == []
    assert rows[1] == ScanRow(k=2, f=2, g=0, index=13, nullity=5)


def test_conjecture_scan_workers_deterministic():
    solo = conjecture_scan(12, workers=1)
    duo = conjecture_scan(12, workers=2)
    assert solo == duo


def test_near_tie_at_k192_is_exactly_nonzero():
    # the closest approach to a vanishing interior branch in this range:
    # |D| ~ 2e14 at (100, 185), about 1e15 times smaller than the term scale,
    # and exactly nonzero
    window = [(m, n) for m in range(95, 106) for n in range(180, 191)]
    assert all(m * m + n * n < enumeration_bound(192) for m, n in window)
    d, arg = min((abs(discriminant(192, m, n)), (m, n)) for m, n in window)
    assert (d, arg) == (193615494292225, (100, 185))
    assert discriminant(192, 100, 185) == d  # lambda^- > 0 there
    assert scan_row(192).g == 0


def test_true_value_at_k155():
    # exact enumeration over the certified bound; see the acceptance module
    # for the relation of this number to the reference table
    row = scan_row(155)
    assert row.f == 22176
    assert row.index == 89321
    assert row.nullity == 5
    # dual-route confirmation through the pure integer scan
    f, g, neg, _ = interior_sign_scan(155)
    assert (f, g) == (22176, 0)
    assert max(m for m, _ in neg) == 160  # negative pairs reach beyond m = k


def test_scan_row_rejects_bad_range():
    with pytest.raises(ValueError):
        conjecture_scan(0)
    with pytest.raises(ValueError):
        conjecture_scan(5, k_min=9)


# sha256 of " ".join(str(f(k)) for k in 1..10^4), computed by the walk of
# commit 6138d97, which searched both ends of every row up to 5m^2 < 7k^2
F_SHA256_TO_10K = "1a7f32cb85dc2e5ffe6fe991c935935f802eae3871c14cde2c89a361c21e268d"


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("BIHINDEX_FULL_SCAN"),
    reason="full k<=10^4 scan: set BIHINDEX_FULL_SCAN=1 (about 40 s on one worker)",
)
def test_full_conjecture_scan_to_10k_matches_the_checksum():
    # g = 0 for every k <= 10^4, i.e. no primitive interior zero of D there
    rows = conjecture_scan(10_000)
    assert [r for r in rows if r.flagged] == []
    assert sha256(" ".join(str(r.f) for r in rows).encode()).hexdigest() == F_SHA256_TO_10K
