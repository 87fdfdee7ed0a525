"""Exact scan of the nullity conjecture over a range of windings k.

For each k the interior lattice pairs (m, n) with m^2 + n^2 < 9k^2 are
classified by the exact sign of the integer discriminant D.  The rows with
14m^2 > 15k^2 need no search: a polynomial identity proves D > 0 on all of
them (torus.last_row).  torus.sign_runs searches the other rows with about
2.0 exact evaluations of D per row, so O(k) per k; the walk and its
certificate are in the sign_runs and last_row docstrings.

The process pool is imported only for workers > 1: loading
concurrent.futures.process pulls in multiprocessing, about a fifth of a
fresh CLI start, and one process needs none of it.
"""

from __future__ import annotations

from typing import NamedTuple

from .torus import run_totals, sign_runs


class ScanRow(NamedTuple):
    k: int
    f: int
    g: int
    index: int
    nullity: int

    @property
    def flagged(self) -> bool:
        """True when the nullity exceeds 5, i.e. g(k) != 0."""
        return self.g != 0


def scan_row(k: int) -> ScanRow:
    """Exact (f, g, index, nullity) for one k, counted from the sign runs."""
    runs, zeros, _ = sign_runs(k)
    return ScanRow(k, *run_totals(k, runs, zeros))


def conjecture_scan(k_max: int, workers: int = 1, k_min: int = 1) -> list[ScanRow]:
    """Scan k_min..k_max; rows ordered by k regardless of worker scheduling."""
    if k_max < k_min or k_min < 1:
        raise ValueError("need 1 <= k_min <= k_max")
    ks = list(range(k_min, k_max + 1))
    if workers <= 1:
        return [scan_row(k) for k in ks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(scan_row, ks, chunksize=max(1, len(ks) // (8 * workers))))
