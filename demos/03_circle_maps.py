"""Index and nullity of the degree-k biharmonic circles in S^2.

Two independent routes: the closed eigenvalue formulas with the exact axis
trichotomy, and exact eigenvalue sign counts of the 4x4 blocks (Descartes'
rule of signs on their Berkowitz characteristic polynomials).  The blocks
are the (m, 0) blocks of the torus family, torus.block_matrix(k, m, 0), so
the two problems share one sign analysis; the second route counts the blocks
m <= torus.last_row(k), about 1.035k of them, since the torus cut lemma
makes every block past that row positive definite.  The whole nullity 3
comes from the rotations of S^2: each gives an exact kernel vector.
"""

from bihindex.circle import circle_index_nullity, circle_index_nullity_by_matrices
from bihindex.exact import QUAD_SQRT2, QUAD_ZERO, QuadExt
from bihindex.matrices import charpoly_exact
from bihindex.torus import block_matrix, last_row

print("=== index = 1 + 2(k-1), nullity = 3, by both routes ===")
for k in (1, 2, 3, 5, 10, 25, 50):
    formula = circle_index_nullity(k)
    matrices = circle_index_nullity_by_matrices(k)
    tag = "ok" if formula == matrices else "MISMATCH"
    print(f"  k={k:<3d} formula={formula}  matrix-count={matrices} over {last_row(k) + 1} blocks  [{tag}]")


def annihilates(block, vector) -> bool:
    return all(
        sum((block[i, j] * v for j, v in enumerate(vector)), QUAD_ZERO).is_zero()
        for i in range(block.order)
    )


print("\n=== the rotations of S^2 span the kernel (k = 3) ===")
one, zero = QuadExt(1), QUAD_ZERO
rotations = {
    "about the pole, in the m = 0 block": (0, (one, zero)),
    "about x, in the m = k block": (3, (-one, zero, zero, -QUAD_SQRT2)),
    "about y, in the m = k block": (3, (zero, -one, QUAD_SQRT2, zero)),
}
for name, (m, vector) in rotations.items():
    print(f"  {name}: block_matrix(3, {m}, 0) v = 0 is {annihilates(block_matrix(3, m, 0), vector)}")

print("\n=== a sample characteristic polynomial (k = 2, m = 1) ===")
print(f"  {charpoly_exact(block_matrix(2, 1, 0))}")
