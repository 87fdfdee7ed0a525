"""Regenerate refs.json, the reference values the benchmark checks results against.

Scan rows come from the independent O(k^2) oracle ``torus.interior_sign_scan``
and are cross-checked against the fast lane ``scan.scan_row``.  Quintic
coefficients come from ``legendre.p5_coefficients``, each confirmed by
``verify_p5_factorization`` (charpoly of the 20x20 block equals P5^4).  The
Legendre ledger and the Descartes count are the paper's values.

Run from the repository root (several minutes on one core):

    PYTHONPATH=src python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
import time

import workloads as wl
from bihindex.legendre import legendre_index_nullity, p5_coefficients, verify_p5_factorization
from bihindex.scan import scan_row
from bihindex.torus import interior_sign_scan

LEGENDRE_INDEX = {
    "index": 11,
    "nullity": 18,
    "index_split": [1, 6, 0, 4, 0],
    "nullity_split": [4, 2, 8, 0, 4],
}
# The lemma's hypothesis excludes exactly (1, 1) and (2, 1) from the window.
DESCARTES = {"m": wl.DESCARTES_RANGE, "n": wl.DESCARTES_RANGE, "checked": wl.DESCARTES_RANGE ** 2 - 2}


def reference_row(k: int) -> list[int]:
    f, g, _, _ = interior_sign_scan(k)
    row = [f, g, 1 + 4 * (k - 1) + 4 * f, 5 + 4 * g]
    fast = scan_row(k)
    if [fast.f, fast.g, fast.index, fast.nullity] != row:
        raise SystemExit(f"scan_row({k}) disagrees with interior_sign_scan: {fast} vs {row}")
    return row


def main() -> int:
    t0 = time.perf_counter()
    ks = sorted(set(range(1, wl.SCAN_K_MAX + 1)) | set(wl.index_pool())
                | set(range(wl.TAIL_K_MIN, wl.TAIL_K_MAX + 1)))
    rows = {}
    for k in ks:
        rows[str(k)] = reference_row(k)
        if k % 50 == 0 or k >= wl.TAIL_K_MIN:
            print(f"k={k} {rows[str(k)]} {time.perf_counter() - t0:.0f}s", flush=True)
    if rows[str(wl.INDEX_REFERENCE_K)] != [22176, 0, 89321, 5]:
        raise SystemExit(f"k=155 row {rows['155']} differs from the README's exact value")
    neg_pairs = sum(rows[str(k)][0] for k in range(1, wl.SCAN_K_MAX + 1))
    print(f"sum of f over k<={wl.SCAN_K_MAX}: {neg_pairs}")

    p5 = {}
    for m, n in wl.verify_pool():
        verify_p5_factorization(m, n)  # raises on a mismatch
        p5[f"{m},{n}"] = list(p5_coefficients(m, n))

    led = legendre_index_nullity()
    got = {"index": led.index, "nullity": led.nullity,
           "index_split": list(led.index_split), "nullity_split": list(led.nullity_split)}
    if got != LEGENDRE_INDEX:
        raise SystemExit(f"legendre_index_nullity gives {got}, the paper {LEGENDRE_INDEX}")

    refs = {
        "about": "Reference values for perfbench; regenerate with perfbench/make_refs.py.",
        "rows_fields": list(wl.ROW_FIELDS[1:]),
        "rows": rows,
        "p5": p5,
        "legendre_index": LEGENDRE_INDEX,
        "descartes": DESCARTES,
    }
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {wl.REFS_PATH} in {time.perf_counter() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
