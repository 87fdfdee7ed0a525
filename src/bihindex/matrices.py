"""Symmetric matrices over Z[sqrt(2)], their characteristic polynomials and
exact eigenvalue sign counts.

A matrix M is held as the two integer matrices A and B of M = A + sqrt(2) B,
from its assembly to its characteristic polynomial.  The characteristic
polynomial det(xI - M) is computed per connected component of the nonzero
pattern of M.  Listing the basis component by component is a permutation
similarity P^T M P: it keeps a symmetric matrix symmetric and keeps its
characteristic polynomial, and the permuted matrix is block-diagonal, so
det(xI - M) is the product of the components' characteristic polynomials.
Each factor comes from Berkowitz's algorithm, which needs no division and so
runs in Z[sqrt(2)] directly, on the integer pairs of A and B.  Every matrix
built by this package has a rational characteristic polynomial; a sqrt(2)
part surviving in the product signals a wrongly assembled matrix and raises.
Because the matrices are symmetric their characteristic polynomials are
real-rooted, and Descartes' rule of signs then counts the negative and zero
eigenvalues exactly, with multiplicity.

Every block comes from operator_block, which applies a table of operator
rules to a frame of sections times the cos/sin Fourier basis of one (m, n)
subspace; the torus, circle and Legendre blocks differ only in their tables.
"""

from __future__ import annotations

from operator import index, mul
from typing import Callable, Sequence

from .exact import QUAD_ONE, QuadExt
from .polynomials import IntPolynomial, _variations, zero_root_multiplicity


class AsymmetricMatrixError(ValueError):
    """Raised when a constructed block is not symmetric."""


class IrrationalCoefficientError(ValueError):
    """Raised when a characteristic polynomial keeps a sqrt(2) part."""


class ExactMatrix:
    """Square symmetric matrix M = A + sqrt(2) B over Z[sqrt(2)], held as
    its two integer matrices A and B (tuples of rows); m[i, j] is the entry
    as a QuadExt."""

    __slots__ = ("order", "a", "b")

    def __init__(self, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> None:
        # operator.index raises TypeError on a float or Fraction entry
        a, b = (tuple(tuple(map(index, row)) for row in rows) for rows in (a, b))
        n = len(a)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        if len(b) != n:
            raise ValueError("A and B must have the same order")
        if any(len(row) != n for row in a + b):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a != tuple(zip(*a)) or b != tuple(zip(*b)):
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if self[i, j] != self[j, i])
            raise AsymmetricMatrixError(f"entry ({i},{j})={self[i, j]} != ({j},{i})={self[j, i]}")

    def __setattr__(self, *_args) -> None:
        raise AttributeError("ExactMatrix is immutable")

    def __getitem__(self, ij: tuple[int, int]) -> QuadExt:
        i, j = ij
        return QuadExt(self.a[i][j], self.b[i][j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self) -> str:
        return f"ExactMatrix(order={self.order})"


def components(m: ExactMatrix) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with an edge i -- j for
    each nonzero entry M[i][j]: sorted index lists, ordered by least index."""
    seen = [False] * m.order
    comps = []
    for start in range(m.order):
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j, (x, y) in enumerate(zip(m.a[i], m.b[i])):
                if not seen[j] and (x or y):
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


PairPolynomial = tuple[list[int], list[int]]  # (p, q) for p + sqrt(2) q, highest degree first


def _times(pa: list[int], pb: list[int], qa: list[int], qb: list[int], size: int) -> PairPolynomial:
    """The first size >= len(pa) coefficients of (pa + sqrt(2) pb)(qa + sqrt(2) qb)."""
    ra, rb = [0] * size, [0] * size
    for i, (x, y) in enumerate(zip(pa, pb)):
        for s, (u, w) in enumerate(zip(qa[:size - i], qb[:size - i]), i):
            ra[s] += x * u + 2 * y * w
            rb[s] += x * w + y * u
    return ra, rb


def _berkowitz(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> PairPolynomial:
    """det(xI - M) for M = A + sqrt(2) B, with A and B integer matrices.

    With M_k the leading k x k block, c the entries M[k][:k] (row and
    column, by symmetry) and d = M[k][k], the charpoly of the leading
    (k+1) x (k+1) block is the Toeplitz product (1, -d, -c.c, -c.M_k c, ...,
    -c.M_k^(k-1) c) * det(xI - M_k), truncated to degree k+1.  Only ring
    operations occur, so every value is a pair of integers.
    """
    pa, pb = [1], [0]  # charpoly of the leading k x k block
    for k in range(len(a)):
        ma, mb = a[:k], b[:k]  # rows of the leading block; zip stops at column k
        ca, cb = a[k][:k], b[k][:k]
        ta, tb = [1, -a[k][k]], [0, -b[k][k]]
        va, vb = ca, cb
        for j in range(k):
            if j:
                va, vb = ([sum(map(mul, x, va)) + 2 * sum(map(mul, y, vb)) for x, y in zip(ma, mb)],
                          [sum(map(mul, x, vb)) + sum(map(mul, y, va)) for x, y in zip(ma, mb)])
            ta.append(-sum(map(mul, ca, va)) - 2 * sum(map(mul, cb, vb)))
            tb.append(-sum(map(mul, ca, vb)) - sum(map(mul, cb, va)))
        pa, pb = _times(ta, tb, pa, pb, k + 2)
    return pa, pb


def charpoly_exact(m: ExactMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), coefficients in Z.

    Reordering the basis by components(M) is a permutation similarity, so
    it keeps M symmetric and keeps det(xI - M); the reordered matrix is
    block-diagonal, so det(xI - M) is the product over the components c of
    the Berkowitz charpolys of the principal submatrices M[c][c].  Berkowitz
    costs O(n^4) ring operations, so a 20 x 20 block made of four 5 x 5
    components costs about 1/64 of the whole; it and the product run on
    integer pairs.  Raises IrrationalCoefficientError if a coefficient of the
    product keeps a nonzero sqrt(2) part (all blocks assembled by this package
    must cancel it).  The check runs on the product only: conjugate components
    such as diag(sqrt2, -sqrt2) have irrational factors but a rational product.
    """
    pa, pb = [1], [0]  # highest degree first
    for comp in components(m):
        qa, qb = _berkowitz(*([[rows[i][j] for j in comp] for i in comp] for rows in (m.a, m.b)))
        pa, pb = _times(pa, pb, qa, qb, len(pa) + len(qa) - 1)

    for x, y in zip(reversed(pa), reversed(pb)):
        if y:
            raise IrrationalCoefficientError(
                f"characteristic polynomial coefficient {QuadExt(x, y)} has a sqrt(2) part"
            )
    return IntPolynomial(pa[::-1])


def eigenvalue_signs(m: ExactMatrix) -> tuple[int, int]:
    """(negative, zero): eigenvalues of M below and at 0, with multiplicity.

    With p = det(xI - M), ``negative`` is the number V(p(-x)) of sign
    variations in the coefficients of p(-x) and ``zero`` the number z of
    trailing zero coefficients of p.  Both are exact.  ExactMatrix enforces
    symmetry, so p is real-rooted: with pos and neg its positive and
    negative roots counted with multiplicity, pos + neg = deg p - z.
    Descartes' rule of signs gives pos <= V(p) and neg <= V(p(-x)).
    Between two consecutive nonzero coefficients a gap of g degrees adds
    at most g variations to V(p) + V(p(-x)) (one if g is odd, none or two
    if g is even), so V(p) + V(p(-x)) <= deg p - z = pos + neg, and both
    Descartes bounds are equalities.
    """
    p = charpoly_exact(m)
    negative = _variations(-c if i % 2 else c for i, c in enumerate(p.coeffs))
    return negative, zero_root_multiplicity(p)


# -- operator blocks on Fourier subspaces ----------------------------------------

# frame -> rules (output frame, derivative kind, coefficient(*params)); the
# section f * frame goes to the sum of coefficient * (D f) * output frame
OperatorTable = dict[str, list[tuple[str, str, Callable[..., int | QuadExt]]]]


def trig_basis(m: int, n: int) -> list[tuple[int, int]]:
    """(gamma parity, theta parity) of the Fourier functions of the (m, n)
    subspace, 0 for cos and 1 for sin, in listing order: cos(m g) cos(w t),
    cos sin, sin cos, sin sin; on an axis only the parities that move."""
    return [(pg, pt) for pg in range(1 + (m >= 1)) for pt in range(1 + (n >= 1))]


DERIVATIVES = ("f", "x1", "x2", "x1x2", "x1x1", "x2x2")


def _derivative(kind: str, m: int, w: QuadExt, pg: int, pt: int) -> tuple[QuadExt, int, int]:
    """(coefficient, gamma parity, theta parity) of the derivative ``kind`` of
    cos/sin(m gamma) cos/sin(w theta).

    'f' is the identity; each x1 in the kind applies X1 = d/d(gamma), which
    maps cos(m g) to -m sin(m g) and sin(m g) to m cos(m g), and each x2
    applies X2 = d/d(theta), the same with the frequency w.
    """
    if kind not in DERIVATIVES:
        raise ValueError(f"unknown derivative kind {kind!r}")
    c = QUAD_ONE
    for axis in kind[1::2]:  # '1' or '2' per factor, none for 'f'
        if axis == "1":
            c, pg = c * (m if pg else -m), 1 - pg
        else:
            c, pt = c * (w if pt else -w), 1 - pt
    return c, pg, pt


def operator_block(table: OperatorTable, m: int, n: int, w: QuadExt, *params: int) -> ExactMatrix:
    """Block of the operator with rule table ``table`` on the (m, n) subspace.

    Rows and columns list the frames in table order, and inside each frame
    the functions of trig_basis(m, n); w is the theta frequency, in
    Z[sqrt(2)], and each rule's coefficient, an int or a QuadExt, is
    evaluated once, at *params.  Each term adds its integer parts straight
    into the A and B of the block A + sqrt(2) B.  A term with a zero
    coefficient (X1 at m = 0, X2 at n = 0) is dropped.  Raises
    AsymmetricMatrixError, the sign of a mistranscribed table, if the block
    is not symmetric.
    """
    basis = trig_basis(m, n)
    dim = len(basis)
    place = {p: i for i, p in enumerate(basis)}
    offset = {frame: i * dim for i, frame in enumerate(table)}
    images: dict[str, list[tuple[int, int, int, int]]] = {}  # kind -> (column, row, a, b)
    size = dim * len(table)
    a, b = [[0] * size for _ in range(size)], [[0] * size for _ in range(size)]
    for frame, rules in table.items():
        for out_frame, kind, coefficient in rules:
            if kind not in images:
                terms = (_derivative(kind, m, w, pg, pt) for pg, pt in basis)
                images[kind] = [(j, place[qg, qt], d.a, d.b)
                                for j, (d, qg, qt) in enumerate(terms) if not d.is_zero()]
            c = coefficient(*params)
            ca, cb = (c.a, c.b) if isinstance(c, QuadExt) else (c, 0)
            for j, i, da, db in images[kind]:
                row, col = offset[out_frame] + i, offset[frame] + j
                a[row][col] += da * ca + 2 * db * cb
                b[row][col] += da * cb + db * ca
    return ExactMatrix(a, b)
