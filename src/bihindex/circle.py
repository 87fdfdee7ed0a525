"""Index and nullity for the biharmonic circles S^1 -> S^2 of winding k.

On the subspace spanned by cos(m gamma), sin(m gamma) the second-variation
operator acts by a symmetric 4x4 block (2x2 diag(0, -k^4) for m = 0) whose
eigenvalues are

    lambda^{+-}_m = ( -k^4 + 2 m^4 + 5 k^2 m^2 +- sqrt(R_m) ) / 2,
    R_m = k^8 + 2 k^6 m^2 + k^4 m^4 + 32 k^2 m^6,

each with multiplicity 2.  These coincide with the torus eigenvalues at
n = 0, and the block equals the torus (m, 0) block entrywise.  The torus
discriminant D(k, m, 0) gives lambda^-_m < 0 iff m < k, = 0 iff m = k.  Hence

    index(k) = 1 + 2 (k - 1),    nullity(k) = 3,

which circle_index_nullity returns in closed form.
circle_index_nullity_by_matrices recounts both from the blocks themselves,
with the exact eigenvalue sign counts of matrices.eigenvalue_signs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import QUAD_SQRT2, QuadExt, Surd
from .matrices import ExactMatrix, eigenvalue_signs
from .torus import InvalidLabelError, eigenvalue as torus_eigenvalue


@dataclass(frozen=True)
class CircleLabel:
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidLabelError("winding number k must be >= 1")
        if self.m < 0:
            raise InvalidLabelError("Fourier index must be nonnegative")


def circle_eigenvalue(k: int, m: int, branch: str) -> Surd:
    """lambda^{+-}_m; identical to the torus value at (m, 0)."""
    if m == 0:
        return torus_eigenvalue(k, 0, 0, "mu0" if branch == "plus" else "mu1")
    return torus_eigenvalue(k, m, 0, branch)


def circle_block(k: int, m: int) -> ExactMatrix:
    """Block of the operator on the degree-m Fourier subspace.

    Assembled from the circle operator rules: a tangential section f V gets
    lam (lam + 3 k^2) f V + 2 sqrt(2) k lam f' N, a normal one f N gets
    (lam^2 - k^4 + 2 k^2 lam) f N - 2 sqrt(2) k lam f' V, with lam = m^2.
    """
    CircleLabel(k, m)
    if m == 0:
        return ExactMatrix([[0, 0], [0, -(k**4)]])
    lam = m * m
    diag_t = lam * (lam + 3 * k * k)
    diag_n = lam * lam - k**4 + 2 * k * k * lam
    c = QUAD_SQRT2 * (2 * k * lam * m)  # from f' = -m sin / +m cos
    z = QuadExt(0)
    return ExactMatrix(
        [
            [QuadExt(diag_t), z, z, -c],
            [z, QuadExt(diag_t), c, z],
            [z, c, QuadExt(diag_n), z],
            [-c, z, z, QuadExt(diag_n)],
        ]
    )


def circle_index_nullity(k: int) -> tuple[int, int]:
    """(index, nullity) in closed form.

    D(k, m, 0) = m^2 (m^2 - k^2)((m^2 - k^2)^2 + 2k^4), so lambda^-_m is
    negative at the k - 1 labels 1 <= m < k and zero at m = k, each with
    multiplicity 2; the m = 0 block adds the eigenvalues -k^4 and 0.
    """
    CircleLabel(k, 0)
    return 1 + 2 * (k - 1), 3


def circle_index_nullity_by_matrices(k: int) -> tuple[int, int]:
    """Same counts, but from exact eigenvalue sign counts of the blocks."""
    CircleLabel(k, 0)
    index = nullity = 0
    for m in range(0, 3 * k + 1):
        neg, zero = eigenvalue_signs(circle_block(k, m))
        index += neg
        nullity += zero
    return index, nullity
