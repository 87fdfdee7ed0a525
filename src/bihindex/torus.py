"""Spectrum, index and nullity for the equivariant biharmonic maps T^2 -> S^2.

For the map winding k times around the small circle at colatitude pi/4, the
second-variation operator of the bienergy preserves the finite-dimensional
subspaces spanned by the Laplace eigenfunctions with Fourier label (m, n).
On such a subspace it acts, in the orthonormal trigonometric basis, by a
symmetric block with entries in Z[sqrt(2)]:

    2x2  diag(0, -k^4)                      (m, n) = (0, 0)
    4x4  with off-diagonal +-2*sqrt(2)*k*m^3     n = 0
    4x4  diagonal                                m = 0
    8x8  built from A, B, C below           m, n >= 1

    A = (3m^2+n^2) k^2 + s^2,  B = -k^4 + 2m^2 k^2 + s^2,
    C = 2 sqrt(2) k m s,       s = m^2 + n^2.

Each 8x8 block is four copies of the 2x2 block [[A, C], [C, B]], so its two
eigenvalues are

    lambda^{+-} = ( T +- sqrt(R) ) / 2,   T = A + B,   R = (A - B)^2 + 4 C^2,

with multiplicity 4 (2 on the axes, where the same formulas apply with n = 0
or m = 0; for m = 0 the radicand is a perfect square and the eigenvalues are
the rationals n^2(n^2+k^2) and n^4-k^4), and

    D = A*B - C^2 = (T^2 - R) / 4 = lambda^+ lambda^-.

So block_coefficients, (A, B, C^2), is the one written closed form of the
block: lambda_parts and discriminant derive from it.  Since lambda^+ > 0 away
from (0,0), the sign of lambda^- is the sign of the integer D, which this
module uses for all counting.  Writing f(k) / g(k) for the number of
interior pairs (m, n >= 1) with lambda^- negative / zero,

    index(k)   = 1 + 4(k-1) + 4 f(k),
    nullity(k) = 5 + 4 g(k),

and D > 0 is proved for s >= 9 k^2 (see enumeration_bound) and on every row
with 14m^2 > 15k^2 (see last_row), so the lattice scan visits only the rows
m <= last_row(k) and, in each, the n below the enumeration bound.  Each row's
pairs with D <= 0 form one run of n inside the previous row's run (see
sign_runs), so the scan steps the two ends of one run from row to row.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby
from math import floor, isqrt
from operator import itemgetter
from typing import NamedTuple

from .exact import QUAD_SQRT2, QuadExt, Surd
from .matrices import ExactMatrix, OperatorTable, operator_block

BRANCHES = ("mu0", "mu1", "plus", "minus")


class InvalidLabelError(ValueError):
    """Raised for a Fourier label/branch combination that does not exist."""


class NotNegativeError(ValueError):
    """Raised when an eigenvector coefficient is requested for lambda^- >= 0."""


def check_label(k: int, m: int, n: int) -> None:
    """Raise InvalidLabelError unless k >= 1 and m, n >= 0."""
    if k < 1:
        raise InvalidLabelError("winding number k must be >= 1")
    if m < 0 or n < 0:
        raise InvalidLabelError("Fourier indices must be nonnegative")


class MergedEigenvalue(NamedTuple):
    """One point of the spectrum with branch contributions summed."""

    eigenvalue: Surd
    multiplicity: int
    branches: tuple[str, ...]


class IndexReport(NamedTuple):
    """Index and nullity of the degree-k map with its lattice evidence.

    The evidence is sign_runs' output, O(k) entries: D < 0 exactly on the
    pairs (m, n_lo..n_hi) of negative_runs and D = 0 exactly at zero_pairs;
    empty_row_witnesses holds the (m, nv) of the rows m > k proved empty by
    their convex minimum nv.  check_runs verifies all three.
    """

    k: int
    index: int
    nullity: int
    f: int
    g: int
    negative_runs: tuple[tuple[int, int, int], ...]
    zero_pairs: tuple[tuple[int, int], ...]
    empty_row_witnesses: tuple[tuple[int, int], ...]

    def __repr__(self) -> str:  # the totals only: the evidence is O(k)
        totals = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields[:5], self))
        return f"IndexReport({totals})"

    @property
    def negative_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every interior pair with lambda^- < 0, in (m, n) order (f of them)."""
        return tuple(run_pairs(self.negative_runs))


# -- closed forms -------------------------------------------------------------

def block_coefficients(k: int, m: int, n: int) -> tuple[int, int, int]:
    """(A, B, C^2) of the coupled block; valid for any (m, n) != (0, 0)."""
    s = m * m + n * n
    a = k * k * (3 * m * m + n * n) + s * s
    b = -k**4 + 2 * m * m * k * k + s * s
    c2 = 8 * k * k * m * m * s * s
    return a, b, c2


def lambda_parts(k: int, m: int, n: int) -> tuple[int, int]:
    """(T, R) = (A + B, (A - B)^2 + 4 C^2): lambda^{+-} = (T +- sqrt(R)) / 2."""
    a, b, c2 = block_coefficients(k, m, n)
    return a + b, (a - b) ** 2 + 4 * c2


def discriminant(k: int, m: int, n: int) -> int:
    """D = A*B - C^2 = lambda^+ lambda^-; its sign is the sign of lambda^-."""
    a, b, c2 = block_coefficients(k, m, n)
    return a * b - c2


def eigenvalue(k: int, m: int, n: int, branch: str) -> Surd:
    """Exact eigenvalue for Fourier label (m, n) and the given branch."""
    if branch not in BRANCHES:
        raise InvalidLabelError(f"unknown branch {branch!r}")
    check_label(k, m, n)
    if branch == "mu0":
        if (m, n) != (0, 0):
            raise InvalidLabelError("mu0 exists only at (m, n) = (0, 0)")
        return Surd(0, 0)
    if branch == "mu1":
        if (m, n) != (0, 0):
            raise InvalidLabelError("mu1 exists only at (m, n) = (0, 0)")
        return Surd(-(k**4), 0)
    if (m, n) == (0, 0):
        raise InvalidLabelError("lambda branches need (m, n) != (0, 0)")
    t, r = lambda_parts(k, m, n)
    return Surd(t, r, 2, 1 if branch == "plus" else -1)


def branch_multiplicity(m: int, n: int) -> int:
    if (m, n) == (0, 0):
        return 1
    if m == 0 or n == 0:
        return 2
    return 4


# -- exact sign tests ----------------------------------------------------------

def enumeration_bound(k: int) -> int:
    """Bound 9k^2: D(k, m, n) > 0 for every interior pair with m^2+n^2 >= 9k^2.

    Proof sketch: A >= s^2 and B >= s^2 - k^4 > 0 give A*B >= s^2 (s^2 - k^4),
    while m^2 < s gives C^2 < 8 k^2 s^3; hence D > s^2 (s^2 - 8 k^2 s - k^4),
    and s^2 - 8 k^2 s - k^4 >= 9k^2*k^2 - k^4 = 8 k^4 > 0 once s >= 9 k^2.
    """
    if k < 1:
        raise InvalidLabelError("k must be >= 1")
    return 9 * k * k


def last_row(k: int) -> int:
    """The last row m with 14m^2 < 15k^2: past it D(k, m, n) > 0 for every n.

    Proof.  Put M = 14m^2 - 15k^2, N = n^2 and K = k^2.  Then, as polynomials,

        14^4 D = M^4 + 56 M^3 N + 18 M^3 K + 1176 M^2 N^2 + 1540 M^2 N K
               + 440 M^2 K^2 + 10976 M N^3 + 32536 M N^2 K + 8400 M N K^2
               + 6318 M K^3 + K^4 q(N/K),

        q(t) = 38416 t^4 + 203056 t^3 + 185024 t^2 - 69916 t + 5895.

    Every term with M has a positive coefficient, q(0) > 0 and q has no
    positive root (a Sturm count, polynomials.count_roots), so q > 0 for
    t >= 0 and D > 0 on every row with M >= 0, whatever n is.  14m^2 = 15k^2
    has no solution (sqrt 210 is irrational), so the other rows are those
    with m^2 <= 15k^2 // 14.

    The cut sits at m ~ 1.035k, just past the tip of the negative region:
    the last row with a negative pair is near m = 1.034k (m^2 ~ 1.068 k^2)
    for every k checked.  15/14 is the smallest ratio (j + 1)/j above that
    1.068; the next one, 16/15, cuts off rows with negative pairs.
    """
    if k < 1:
        raise InvalidLabelError("k must be >= 1")
    return isqrt(15 * k * k // 14)


def sign_runs(
    k: int,
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """Exact signs of lambda^- over the interior pairs, as per-m runs.

    Returns (runs, zeros, witnesses): D(k, m, n) < 0 exactly for
    n_lo <= n <= n_hi for each (m, n_lo, n_hi) in runs, D = 0 exactly at the
    pairs in zeros, and D > 0 at every other interior pair.  witnesses holds
    (m, nv) for each row k < m proved empty through its integer minimum
    (below), so that check_runs can confirm the row without a search.  All
    three are in (m, n) order.  Only the rows m <= last_row(k), those with
    14m^2 < 15k^2, are searched: past them D > 0 for every n (the cut lemma
    in last_row).  One loop (_walk) steps through them from the axis run
    1..k, each row from the run of the row before it, which contains it
    (the nesting lemma).  The first empty row ends the search, since every
    later row is empty too; each empty row past m = k gets its witness.
    That is about 2.0 exact evaluations of D a row, over k <= 300 and at
    k = 10^4 or 10^5, so O(k) per k.

    Proof.  Fix k and m and put s = m^2 + n^2.  Then

        D = s^4 + k^2 s^3 - (k^4 + 4k^2 m^2) s^2 + k^4 (2m^2 - k^2) s
            + 2 k^4 m^2 (2m^2 - k^2),

    with coefficient signs + + - e e, e = sign(2m^2 - k^2) != 0 (sqrt 2 is
    irrational).  By Descartes' rule of signs D has at most two positive
    roots, so {n >= 1 : D <= 0} is one run n_lo..n_hi, with D < 0 inside it:
    D can vanish only at a run end.  The run lies below the enumeration bound.

    * Convexity lemma: for 2m^2 > k^2, D''(s) / 2 = 6 s^2 + 3 k^2 s -
      (k^4 + 4k^2 m^2) grows with s and is (2m^2 - k^2)(3m^2 + k^2) > 0 at
      s = m^2, so D is convex on the whole row.
    * One end for m <= k: on the axis D(k, m, 0) = m^2 (m^2 - k^2)((m^2 -
      k^2)^2 + 2k^4) <= 0.  For 2m^2 < k^2, D has one positive root and
      D(0) < 0; for 2m^2 > k^2, D is convex and {s >= m^2 : D <= 0}, a
      sublevel set that contains s = m^2, is an interval.  Either way the
      run is 1..e, or empty when e = 0, and only e is searched.  D(1) < 0
      when e >= 2 (D(0) <= 0, D(e) <= 0 and D is below its chord, or below
      zero up to its one root), so only D(e) can vanish.
    * Staircase lemma: for 0 <= m < m' <= k and n >= 1, D(k, m, n) > 0
      implies D(k, m', n) > 0.  D is homogeneous of degree 4 in K = k^2,
      M = m^2 and N = n^2, and monic in N; put K = 1.  Then

          Res_N(D, dD/dM) = -32 M q(M),
          q(M) = 1024 M^4 - 2496 M^3 + 2289 M^2 - 708 M + 72,

      and q has no real root (q(0) = 72, and a Sturm count on each side of
      0), so dD/dM != 0 wherever D = 0 with M > 0.  For 0 < M <= 1, D has
      one root N*(M) > 0, with D < 0 below it and D > 0 above it (the
      one-end lemma read over the reals; at 2M = 1, D = s^2 (s^2 + s - 3)),
      so N* is continuous in M and dD/dM keeps one sign along it.  The
      sign is +: at 2M = 1, dD/dM = 13 (s - 1) at the root s = (sqrt 13 -
      1)/2 > 1.  Now fix N > 0 with D(M, N) > 0, and let M0 be the least M'
      in (M, 1] with D(M', N) <= 0, if one exists.  Then M0 > 0,
      D(M0, N) = 0 and D > 0 on [M, M0), against dD/dM(M0, N) > 0.  On the
      axis m = 0, D = n^2 (n^2 + k^2)(n^4 - k^4), whose run is 1..k.
    * Nesting lemma: the staircase lemma holds for all 0 <= m < m', past
      m = k too.  Fix N > 0 and read D as a quartic in M.  It is monic, and
      its roots M > 0 are simple (dD/dM != 0 there), so as N moves, a root
      M > 0 can neither leave through infinity nor meet another; the number
      of them changes only where a root crosses M = 0, where D(0, N) =
      N (N + 1)(N^2 - 1) vanishes, at N = 1.  At N = 4 every coefficient of
      D(M, 4) is positive, so there is no root, and D > 0 on M >= 0 for
      every N > 1.  At N = 1/4 there is one root (a Sturm count), so for
      0 < N < 1, D < 0 below one root and D > 0 above it.  And D(M, 1) =
      M^2 (M^2 + M + 6).  So D(M, N) > 0 implies D(M', N) > 0 for all
      M' > M: the run of row m' lies inside the run of row m, and past
      m = k the upper arc of the zero curve falls and the lower rises.
      Once a row is empty, so is every later row.
    * Rows k < m: D(0) > 0 and the row is convex.  D falls and then rises
      in s, and s grows with n, so the sign of D(n+1) - D(n) changes once,
      from - to +, at the first integer minimum nv (the differences
      themselves need not increase in n).  The row is empty iff D(nv) > 0,
      and then nv is its witness.
    """
    k2 = k * k
    c1 = k2 * k2 * (2 - k2)  # row 1: m^2 = 1 in the quartic above
    return _walk(k, 1, (k2, -k2 * (k2 + 4), c1, 2 * c1, 1), 1, k)


def _walk(
    k: int, m: int, q: tuple[int, int, int, int, int], lo: int, hi: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """sign_runs' (runs, zeros, witnesses) for the rows m..last_row(k).

    q = (c3, c2, c1, c0, m2) is row m: D(n) = P(m2 + n^2) with P(s) = s^4 +
    c3 s^3 + c2 s^2 + c1 s + c0, and lo..hi must contain its run {n >= 1 :
    D <= 0}, with lo = 1 if m <= k; the later rows are the torus rows of k.
    Each row is walked from the run of the row before it, which contains it
    (the nesting lemma in sign_runs): hi steps down while D(hi) > 0 and, on
    a row m > k, lo steps up while D(lo) > 0; on a row m <= k the run
    starts at n = 1 and D(1) < 0 unless hi = 1 (the one-end lemma).  One
    evaluation of D per n tried, and D can vanish only at lo or hi.  Each
    empty row k < m gets its witness, the first integer minimum of D, by a
    downhill walk from the previous witness (the first from the last run's
    lo).  These are torus rows, few of them, so the witness walk evaluates
    D as A*B - C^2 (discriminant).  It relies on the row being convex, and
    so does check_runs: AssertionError for an empty row with P''(m2) <= 0.
    """
    c3, c2, c1, c0, m2 = q
    k2 = k * k
    k4 = k2 * k2
    m_last = last_row(k)
    runs: list[tuple[int, int, int]] = []
    zeros: list[tuple[int, int]] = []
    witnesses: list[tuple[int, int]] = []
    nv = 0
    while True:
        while lo <= hi:
            s = m2 + hi * hi
            v_hi = (((s + c3) * s + c2) * s + c1) * s + c0
            if v_hi <= 0:
                break
            hi -= 1
        if lo <= hi:
            v_lo = v_hi
            if m > k:
                while lo < hi:
                    s = m2 + lo * lo
                    v = (((s + c3) * s + c2) * s + c1) * s + c0
                    if v <= 0:
                        v_lo = v
                        break
                    lo += 1
            elif hi > 1:
                v_lo = -1  # D(1) < 0
            if v_lo and v_hi:
                runs.append((m, lo, hi))
            else:  # D = 0 at lo, at hi or at both; no k <= 10^4 has such a row
                if not v_lo:
                    zeros.append((m, lo))
                if not v_hi and hi > lo:
                    zeros.append((m, hi))
                if lo + (not v_lo) <= hi - (not v_hi):
                    runs.append((m, lo + (not v_lo), hi - (not v_hi)))
        elif m > k:  # the row is empty, and so is every later one
            if (6 * m2 + 3 * c3) * m2 + c2 <= 0:  # P''(m2) / 2
                raise AssertionError(f"D is not convex on the row s >= {m2}")
            nv = nv or lo  # the first witness walks from the last run
            v = discriminant(k, m, nv)
            while nv > 1 and (u := discriminant(k, m, nv - 1)) <= v:
                nv, v = nv - 1, u
            while (u := discriminant(k, m, nv + 1)) < v:
                nv, v = nv + 1, u
            witnesses.append((m, nv))
        if m >= m_last:
            return runs, zeros, witnesses
        m += 1
        m2 = m * m
        c2 = -(k4 + 4 * k2 * m2)
        c1 = k4 * (2 * m2 - k2)
        c0 = 2 * m2 * c1


def run_pairs(runs: list[tuple[int, int, int]]):
    """The pairs (m, n) of sign_runs' runs, in (m, n) order."""
    return ((m, n) for m, n_lo, n_hi in runs for n in range(n_lo, n_hi + 1))


def interior_sign_scan(k: int) -> tuple[int, int, list[tuple[int, int]], list[tuple[int, int]]]:
    """Exact scan of all interior pairs below the enumeration bound.

    Returns (f, g, negative_pairs, zero_pairs).  The O(k^2) oracle for
    sign_runs: it signs every pair by discriminant, never through the walk's
    quartic in s.
    """
    bound = enumeration_bound(k)
    neg: list[tuple[int, int]] = []
    zero: list[tuple[int, int]] = []
    for m in range(1, isqrt(bound - 1) + 1):
        for n in range(1, isqrt(bound - m * m - 1) + 1):
            d = discriminant(k, m, n)
            if d < 0:
                neg.append((m, n))
            elif d == 0:
                zero.append((m, n))
    return len(neg), len(zero), neg, zero


def run_totals(
    k: int, runs: Sequence[Sequence[int]], zeros: Sequence[Sequence[int]]
) -> tuple[int, int, int, int]:
    """(f, g, index, nullity) of the degree-k map from sign_runs' runs and zeros.

    f sums the run lengths and g counts the zero pairs.  The axes and (0, 0)
    give the rest: D(k, m, 0) = m^2 (m^2 - k^2)((m^2 - k^2)^2 + 2k^4) and
    lambda^-(0, n) = n^4 - k^4, so on each axis lambda^- is negative at the
    k - 1 labels below k and zero at k, each label with multiplicity 2, and
    (0, 0) adds the eigenvalues -k^4 and 0.
    """
    f = sum(n_hi - n_lo + 1 for _, n_lo, n_hi in runs)
    g = len(zeros)
    return f, g, 1 + 4 * (k - 1) + 4 * f, 5 + 4 * g


def index_nullity(k: int) -> IndexReport:
    """Exact index and nullity of the degree-k map, with the lattice evidence."""
    runs, zeros, witnesses = sign_runs(k)
    f, g, index, nullity = run_totals(k, runs, zeros)
    return IndexReport(k, index, nullity, f, g, tuple(runs), tuple(zeros), tuple(witnesses))


# checks stop at the first row after this many failures, so that a report
# for a huge k with no evidence fails fast instead of scanning all its rows
CHECK_FAILURE_LIMIT = 20


def check_runs(
    k: int,
    runs: Sequence[tuple[int, int, int]],
    zeros: Sequence[tuple[int, int]],
    witnesses: Sequence[tuple[int, int]],
) -> list[str]:
    """Verify sign_runs' evidence for k without searching; [] when it holds.

    Checks that D(k, m, n) < 0 exactly on the runs (m, n_lo, n_hi), D = 0
    exactly at the zero pairs and D > 0 at every other interior pair, with
    O(1) exact evaluations of D per row m <= last_row(k), so O(k) in all.
    The rows past last_row(k) need no evaluation: D > 0 on each of them (the
    cut lemma in last_row), so an entry there is a failure.  It calls no
    search: sign_runs walks to the ends, this function only tests them, and
    it evaluates D as A*B - C^2 (discriminant), not through the quartic in s.

    Proof that the end tests suffice: by the one-run lemma in sign_runs
    (Descartes on the coefficient signs + + - e e of D in s = m^2 + n^2),
    {n >= 1 : D <= 0} is one run L..H, D < 0 inside it, and D can vanish
    only at L or H.  So for a row with a run or zeros it is enough that

    * D < 0 at n_lo and n_hi, and D = 0 at each zero pair;
    * every zero sits at n_lo - 1 or n_hi + 1 (in a row with no run: the
      zeros are consecutive), so the claimed entries fill L..H;
    * D > 0 at L - 1 unless L = 1, and at H + 1 unless H + 1 reaches the
      enumeration bound (where D > 0 is proved);
    * H lies below the enumeration bound.

    A row with no entries must be proved empty:

    * m <= k: a run of the row starts at n = 1 (the one-end lemma in
      sign_runs), so D(1) > 0 suffices, and the row has no witness;
    * m > k: the row needs a witness (m, nv), and nothing else has one.
      By the convexity lemma in sign_runs, D is convex on the whole row.  Then
      D(nv - 1) >= D(nv) <= D(nv + 1), a side exempt at n = 1 or at the
      enumeration bound, makes D(nv) the row's minimum, and D(nv) > 0
      proves the row empty.

    Runs, zeros and witnesses must be in (m, n) order, with one run and one
    witness per row at most.
    """
    m_max = last_row(k)
    failures: list[str] = []
    for name, keys in (
        ("negative runs", [(m,) for m, _, _ in runs]),
        ("zero pairs", [tuple(z) for z in zeros]),
        ("witnesses", [(m,) for m, _ in witnesses]),
    ):
        if any(a >= b for a, b in zip(keys, keys[1:])):
            failures.append(f"{name} are not in strictly increasing (m, n) order")
        elif keys and keys[0][0] < 1:
            failures.append(f"{name} start below the row m = 1")
        elif keys and keys[-1][0] > m_max:
            failures.append(
                f"{name} reach past the cut 14m^2 < 15k^2 (rows m <= {m_max}), where "
                "D > 0 is proved and no evidence is kept; rerun torus index"
            )
        elif name == "witnesses" and keys and keys[0][0] <= k:
            failures.append(
                f"witnesses in the rows m <= k = {k}, where D(1) > 0 proves a row "
                "empty and no witness is kept; rerun torus index"
            )
    if failures:
        return failures

    run_at = {m: (n_lo, n_hi) for m, n_lo, n_hi in runs}
    witness_at = dict(witnesses)
    zeros_at: dict[int, list[int]] = {}
    for m, n in zeros:
        zeros_at.setdefault(m, []).append(n)
    for m in range(1, m_max + 1):
        if len(failures) == CHECK_FAILURE_LIMIT:
            return failures + [f"stopped at row m = {m} after {CHECK_FAILURE_LIMIT} failures"]
        why = _check_row(k, m, run_at.get(m), zeros_at.get(m, []), witness_at.get(m))
        if why is not None:
            failures.append(f"row m = {m}: {why}")
    return failures


def _check_row(
    k: int, m: int, run: tuple[int, int] | None, zs: list[int], nv: int | None
) -> str | None:
    """The first failure of one row of check_runs' evidence, or None."""
    n_max = isqrt(enumeration_bound(k) - m * m - 1)

    def d(n: int) -> int:
        return discriminant(k, m, n)

    if run is None and not zs:
        if d(1) <= 0:
            return "D(1) <= 0 but the row has no run"
        if m <= k:  # a run of the row would start at n = 1
            return None
        if nv is None:
            return "no run, no zero pair and no witness"
        if not 1 <= nv <= n_max:
            return f"witness nv = {nv} not in 1 <= nv <= {n_max}"
        dv = d(nv)
        if (nv > 1 and d(nv - 1) < dv) or (nv < n_max and d(nv + 1) < dv):
            return f"D has no local minimum at nv = {nv}"
        return "the witness minimum is not positive" if dv <= 0 else None

    if nv is not None:
        return "a witness for a row with D <= 0 entries"
    if not all(1 <= n <= n_max for n in (*(run or ()), *zs)):
        return f"an entry lies outside 1 <= n <= {n_max} (the enumeration bound)"
    if run is None:
        lo, hi = zs[0], zs[0] - 1  # an empty run that the zeros extend
    else:
        lo, hi = run
        if lo > hi:
            return f"run {lo}..{hi} is empty"
        if d(lo) >= 0 or d(hi) >= 0:
            return f"D >= 0 at an end of the run {lo}..{hi}"
    for z in zs:
        if z == lo - 1:
            lo = z
        elif z == hi + 1:
            hi = z
        else:
            return f"zero pair n = {z} is not next to the run"
        if d(z) != 0:
            return f"D != 0 at the zero pair n = {z}"
    if lo > 1 and d(lo - 1) <= 0:
        return f"D <= 0 at n = {lo - 1}, below the run"
    if hi < n_max and d(hi + 1) <= 0:
        return f"D <= 0 at n = {hi + 1}, above the run"
    return None


# -- block matrices ------------------------------------------------------------

# the two rules of block_matrix; coefficients are functions of (k, lam)
OPERATOR_TABLE: OperatorTable = {
    "y": [
        ("y", "f", lambda k, lam: lam * (lam + k * k)),
        ("y", "x1x1", lambda k, lam: -2 * k * k),
        ("eta", "x1", lambda k, lam: QUAD_SQRT2 * (2 * k * lam)),
    ],
    "eta": [
        ("eta", "f", lambda k, lam: lam * lam - k**4),
        ("eta", "x1x1", lambda k, lam: -2 * k * k),
        ("y", "x1", lambda k, lam: QUAD_SQRT2 * (-2 * k * lam)),
    ],
}


def block_matrix(k: int, m: int, n: int) -> ExactMatrix:
    """Block of the second-variation operator on the (m, n) subspace.

    With lam = m^2 + n^2, X1 = d/d(gamma), y the tangential section and eta
    the normal one, the operator acts by the two rules of OPERATOR_TABLE:

        f y   -> (lam (lam + k^2) f - 2 k^2 X1X1 f) y + 2 sqrt(2) k lam (X1 f) eta
        f eta -> ((lam^2 - k^4) f - 2 k^2 X1X1 f) eta - 2 sqrt(2) k lam (X1 f) y

    matrices.operator_block applies them, with theta frequency n: 2x2 at
    (0,0), 4x4 on the axes, 8x8 in the interior.  The (m, 0) block is also
    the degree-m block of the circle of winding k.
    """
    check_label(k, m, n)
    return operator_block(OPERATOR_TABLE, m, n, QuadExt(n), k, m * m + n * n)


def spectrum(k: int, lambda_max: int) -> list[MergedEigenvalue]:
    """Spectrum up to Laplace level lambda_max, ties merged, ascending.

    Every label (m, n) with m^2 + n^2 <= lambda_max contributes its branches,
    tagged "branch[m,n]"; the stable sort by (floor, exact value) keeps tied
    tags in label order.  Branch multiplicity and spectral multiplicity differ
    where branches collide (for instance 0 = mu0 = lambda^-_{k,0} =
    lambda^-_{0,k} whenever lambda_max >= k^2).
    """
    entries = [(eigenvalue(k, 0, 0, b), 1, f"{b}[0,0]") for b in ("mu0", "mu1")]
    for m in range(isqrt(lambda_max) + 1):
        for n in range(isqrt(lambda_max - m * m) + 1):
            if (m, n) != (0, 0):
                mult = branch_multiplicity(m, n)
                for b in ("plus", "minus"):
                    entries.append((eigenvalue(k, m, n, b), mult, f"{b}[{m},{n}]"))
    # the integer floor orders almost every pair: few exact Surd comparisons remain
    entries = sorted(((floor(e[0]), *e) for e in entries), key=itemgetter(0, 1))
    merged = []
    for (_, value), group in groupby(entries, key=itemgetter(0, 1)):
        group = list(group)
        merged.append(
            MergedEigenvalue(value, sum(e[2] for e in group), tuple(e[3] for e in group))
        )
    return merged


def negative_eigenvector_coefficient(k: int, m: int, n: int) -> Surd:
    """Coefficient c with c * (pushforward of grad f) + f * (normal section)
    spanning the lambda^-_{m,n} eigenspace, as an exact surd.

    Solving the reduced 2x2 eigenvector equation of the block gives
    c = 4 s / (A - lambda^-), which rationalises to
    c = ( -(k^4 + k^2 s) + sqrt(R) ) / (4 k^2 m^2 s)  with s = m^2 + n^2.
    """
    if m < 1:
        raise InvalidLabelError("the gradient coupling needs m >= 1")
    check_label(k, m, n)
    if discriminant(k, m, n) >= 0:
        raise NotNegativeError(f"lambda^-({m},{n}) is not negative at k={k}")
    s = m * m + n * n
    _, r = lambda_parts(k, m, n)
    return Surd(-(k**4 + k * k * s), r, 4 * k * k * m * m * s)
