"""Scanning the nullity-5 conjecture: g(k) = 0 for every winding k.

The nullity exceeds 5 exactly when some interior lattice pair (m, n) makes
the integer discriminant D vanish.  The scan classifies every pair below the
certified bound m^2 + n^2 < 9 k^2 with exact integer signs, one run of
negative pairs per m (torus.sign_runs); the rows with 14m^2 > 15k^2 are
proved positive at once (torus.last_row).  The closest call in
this range sits at k = 192 near (m, n) = (100, 185), where D is about 10^15
times smaller than its neighbours -- but exactly nonzero.
"""

import time

from bihindex.scan import conjecture_scan
from bihindex.torus import discriminant

K_MAX = 300  # push to 1500 for the full conjecture range (~2 s on one core)

t0 = time.time()
rows = conjecture_scan(K_MAX)
elapsed = time.time() - t0
print(f"scanned k = 1..{K_MAX} in {elapsed:.1f}s")
print(f"rows with g(k) != 0: {[r for r in rows if r.flagged] or 'none'}")
print(f"largest f in range: f({max(rows, key=lambda r: r.f).k}) = {max(r.f for r in rows)}")

print("\n=== the near-tie at k = 192 ===")
# every pair of the window 95 <= m <= 105, 180 <= n <= 190 is interior and
# below the enumeration bound m^2 + n^2 < 9k^2
d_min, (m0, n0) = min(
    (abs(discriminant(192, m, n)), (m, n)) for m in range(95, 106) for n in range(180, 191)
)
print(f"  min |D| in the window: {d_min} at (m, n) = ({m0}, {n0})")
for n in (184, 185, 186):
    print(f"  D(192, 100, {n}) = {discriminant(192, 100, n):>22}")
print("  the sign change happens between integers, so g(192) = 0 exactly")
