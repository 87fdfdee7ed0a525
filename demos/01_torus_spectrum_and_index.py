"""Spectrum and Morse index of the degree-k equivariant torus maps into S^2.

The second-variation operator of the bienergy restricts to a symmetric block
on each Fourier label (m, n).  This demo prints the merged spectrum for a
small winding, reproduces the index/nullity table with exact arithmetic, and
shows the exact surd coefficients spanning the negative space at k = 2: its
interior pairs are those of the closed runs of lambda^- <= 0 that
index_nullity returns, all negative since g = 0 there.
"""

from bihindex.torus import (
    block_matrix,
    eigenvalue,
    index_nullity,
    negative_eigenvector_coefficient,
    spectrum,
)

print("=== merged spectrum of the k = 2 map up to Laplace level 8 ===")
for entry in spectrum(2, lambda_max=8):
    branches = ", ".join(entry.branches)
    print(f"  {str(entry.eigenvalue):>22}  x{entry.multiplicity}   [{branches}]")
print("  (note the eigenvalue 0 carries spectral multiplicity 5: the nullity)")

print("\n=== index / nullity table (exact lattice scan) ===")
for k in list(range(1, 11)) + [17, 155]:
    r = index_nullity(k)
    print(f"  k={k:<4d} f={r.f:<6d} index={r.index:<7d} nullity={r.nullity}")
print("  (at k = 155 the exact scan finds 222 negative pairs with m > k;")
print("   truncating at m, n <= k would give the smaller figure 88433)")

print("\n=== the negative space of the k = 2 map ===")
r2 = index_nullity(2)
pairs = [(m, n) for m, n_lo, n_hi in r2.runs for n in range(n_lo, n_hi + 1)]
print(f"  interior negative pairs: {pairs}")
for (m, n) in [(1, 0)] + pairs:
    c = negative_eigenvector_coefficient(2, m, n)
    lam = eigenvalue(2, m, n, "minus")
    print(f"  (m,n)=({m},{n}): lambda^- = {lam} ~ {float(lam):+.4f}, "
          f"gradient coefficient {c} ~ {float(c):+.6f}")

print("\n=== one 8x8 block, exactly ===")
blk = block_matrix(2, 1, 1)
for i in range(blk.order):
    print("  [" + "  ".join(f"{str(blk[i, j]):>12}" for j in range(blk.order)) + "]")
