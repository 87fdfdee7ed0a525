"""Index and nullity of the degree-k biharmonic circles in S^2.

Two independent routes: the closed eigenvalue formulas with the exact axis
trichotomy, and exact eigenvalue sign counts of the 4x4 blocks (Descartes'
rule of signs on their Berkowitz characteristic polynomials).  The blocks coincide entrywise with the (m, 0) blocks of the
torus family, so the two problems share one sign analysis.
"""

from bihindex.circle import circle_block, circle_index_nullity, circle_index_nullity_by_matrices
from bihindex.matrices import charpoly_exact
from bihindex.torus import block_matrix

print("=== index = 1 + 2(k-1), nullity = 3, by both routes ===")
for k in (1, 2, 3, 5, 10, 25, 50):
    formula = circle_index_nullity(k)
    matrices = circle_index_nullity_by_matrices(k)
    tag = "ok" if formula == matrices else "MISMATCH"
    print(f"  k={k:<3d} formula={formula}  matrix-count={matrices}  [{tag}]")

print("\n=== the blocks are the torus axis blocks, literally ===")
same = all(circle_block(k, m) == block_matrix(k, m, 0) for k in range(1, 11) for m in range(1, 11))
print(f"  entrywise equality for k, m <= 10: {same}")

print("\n=== a sample characteristic polynomial (k = 2, m = 1) ===")
print(f"  {charpoly_exact(circle_block(2, 1))}")
