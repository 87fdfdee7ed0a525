"""Index and nullity for the biharmonic circles S^1 -> S^2 of winding k.

On the subspace spanned by cos(m gamma), sin(m gamma) the second-variation
operator acts by the torus block torus.block_matrix(k, m, 0): at n = 0 the
torus rules are the circle's.  Its eigenvalues are the torus values
torus.eigenvalue(k, m, 0, branch),

    lambda^{+-}_m = ( -k^4 + 2 m^4 + 5 k^2 m^2 +- sqrt(R_m) ) / 2,
    R_m = k^8 + 2 k^6 m^2 + k^4 m^4 + 32 k^2 m^6,

each with multiplicity 2 (diag(0, -k^4) for m = 0).  The torus discriminant
D(k, m, 0) gives lambda^-_m < 0 iff m < k, = 0 iff m = k.  Hence

    index(k) = 1 + 2 (k - 1),    nullity(k) = 3,

which circle_index_nullity returns in closed form.
circle_index_nullity_by_matrices recounts both from the blocks themselves,
with the exact eigenvalue sign counts of matrices.eigenvalue_signs, up to
the cut m <= torus.last_row(k), about 1.035k.
"""

from __future__ import annotations

from .matrices import eigenvalue_signs
from .torus import block_matrix, check_label, last_row


def circle_index_nullity(k: int) -> tuple[int, int]:
    """(index, nullity) in closed form.

    D(k, m, 0) = m^2 (m^2 - k^2)((m^2 - k^2)^2 + 2k^4), so lambda^-_m is
    negative at the k - 1 labels 1 <= m < k and zero at m = k, each with
    multiplicity 2; the m = 0 block adds the eigenvalues -k^4 and 0.
    """
    check_label(k, 0, 0)  # checks k >= 1
    return 1 + 2 * (k - 1), 3


def circle_index_nullity_by_matrices(k: int) -> tuple[int, int]:
    """Same counts, from the exact eigenvalue signs of the blocks m <= last_row(k).
    Past that row D(k, m, 0) = AB - C^2 > 0 (the cut lemma of torus.last_row,
    at n = 0 too: q(0) > 0) and A = 3k^2 m^2 + m^4 > 0, so both 2 x 2
    components [[A, C], [C, B]] of a later block are positive definite."""
    check_label(k, 0, 0)  # checks k >= 1
    index = nullity = 0
    for m in range(last_row(k) + 1):
        neg, zero = eigenvalue_signs(block_matrix(k, m, 0))
        index += neg
        nullity += zero
    return index, nullity
