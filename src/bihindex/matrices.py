"""Symmetric matrices over Z[sqrt(2)], their characteristic polynomials and
exact eigenvalue sign counts.

A matrix M is held as the two integer matrices A and B of M = A + sqrt(2) B.
Listing the basis by the connected components of its nonzero pattern makes M
block-diagonal, and in every matrix built by this package sqrt(2) is a
grading: each component is similar, by a diagonal matrix of powers of
sqrt(2), to an integer matrix G.  So det(xI - M) is the product of the
division-free Berkowitz charpolys of the G, computed over Z; a matrix that is
not graded signals a wrongly assembled block and raises.  Symmetric matrices
have real-rooted characteristic polynomials, and Descartes' rule of signs
then counts the negative and zero eigenvalues exactly, with multiplicity.

Every block comes from operator_block, which applies a table of operator
rules to a frame of sections times the cos/sin Fourier basis of one (m, n)
subspace; the torus, circle and Legendre blocks differ only in their tables.
"""

from __future__ import annotations

from operator import index, mul
from typing import Callable, Sequence

from .exact import QUAD_ONE, Exact, QuadExt
from .polynomials import IntPolynomial, zero_root_multiplicity


class AsymmetricMatrixError(ValueError):
    """Raised when a constructed block is not symmetric."""


class IrrationalCoefficientError(ValueError):
    """Raised when a matrix is not graded by sqrt(2), so that its
    characteristic polynomial is not known to be rational (see components)."""


class ExactMatrix(Exact):
    """Square symmetric matrix M = A + sqrt(2) B over Z[sqrt(2)], held as
    its two integer matrices A and B (tuples of rows); m[i, j] is the entry
    as a QuadExt."""

    __slots__ = ("order", "a", "b")

    def __init__(self, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> None:
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

    def __getitem__(self, ij: tuple[int, int]) -> QuadExt:
        i, j = ij
        return QuadExt(self.a[i][j], self.b[i][j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self) -> str:
        return f"ExactMatrix(order={self.order})"


def components(m: ExactMatrix) -> list[tuple[list[int], list[list[int]]]]:
    """Connected components of the graph on 0..n-1 with an edge i -- j for
    each nonzero M[i][j], ordered by least index: each is its sorted index
    list c and the integer matrix G = D^-1 M[c][c] D, D = diag(sqrt(2)^e).

    The weights e in {0, 1} follow the edges: e[j] = e[i] across an entry of
    A, e[j] = 1 - e[i] across one of B.  So G[i][j] is A[i][j] or
    sqrt(2)^(1 + e[j] - e[i]) B[i][j] = 2^e[j] B[i][j].  An entry with A and B
    both nonzero, or against the weights, raises IrrationalCoefficientError.

    Every block of this package is graded, term by term at every label.
    Torus and circle: w = n is an integer and the only sqrt(2) coefficients
    are the X1 rules between y and eta, so e = [frame is eta].  Legendre:
    every coefficient is an integer and w = sqrt(2) n, so a term's power of
    sqrt(2) is its number of X2 factors, each of which flips the theta
    parity pt: e = pt.
    """
    e: list[int | None] = [None] * m.order
    comps = []
    for start in range(m.order):
        if e[start] is not None:
            continue
        e[start] = 0
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j, (x, y) in enumerate(zip(m.a[i], m.b[i])):
                if x or y:
                    ej = e[i] ^ (y != 0)
                    if x and y or e[j] not in (None, ej):
                        raise IrrationalCoefficientError(
                            f"entry ({i},{j})={m[i, j]} breaks the sqrt(2) grading")
                    if e[j] is None:
                        e[j] = ej
                        stack.append(j)
        comp.sort()
        comps.append((comp, [[m.a[i][j] or m.b[i][j] << e[j] for j in comp] for i in comp]))
    return comps


def _times(p: list[int], q: list[int], size: int) -> list[int]:
    """The first size >= len(p) coefficients of p q, highest degree first."""
    r = [0] * size
    for i, x in enumerate(p):
        for s, u in enumerate(q[:size - i], i):
            r[s] += x * u
    return r


def _berkowitz(g: Sequence[Sequence[int]]) -> list[int]:
    """det(xI - G) for a square integer matrix G, highest degree first.

    With G_k the leading k x k block, r = G[k][:k] its new row, c its new
    column G[:k][k] and d = G[k][k], the charpoly of the leading
    (k+1) x (k+1) block is the Toeplitz product (1, -d, -r.c, -r.G_k c, ...,
    -r.G_k^(k-1) c) * det(xI - G_k), truncated to degree k+1.  Only ring
    operations occur, so every value is an integer.
    """
    p = [1]  # charpoly of the leading k x k block
    for k in range(len(g)):
        lead = g[:k]  # rows of the leading block; zip stops at column k
        r, c = g[k][:k], [row[k] for row in lead]
        t, v = [1, -g[k][k]], c
        for j in range(k):
            if j:
                v = [sum(map(mul, row, v)) for row in lead]
            t.append(-sum(map(mul, r, v)))
        p = _times(t, p, k + 2)
    return p


def charpoly_exact(m: ExactMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), coefficients in Z.

    Reordering the basis by components(M) is a permutation similarity that
    makes M block-diagonal, so det(xI - M) is the product of the Berkowitz
    charpolys of the components' integer matrices G.  Berkowitz costs O(n^4)
    ring operations, so a 20 x 20 block made of four 5 x 5 components costs
    about 1/64 of the whole.  Raises IrrationalCoefficientError if M is not
    graded by sqrt(2) (see components).
    """
    p = [1]  # highest degree first
    for _, g in components(m):
        q = _berkowitz(g)
        p = _times(p, q, len(p) + len(q) - 1)
    return IntPolynomial(p[::-1])


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
    # signs of the nonzero coefficients of p(-x), lowest degree first
    minus = [(c < 0) != (i % 2 == 1) for i, c in enumerate(p.coeffs) if c]
    return sum(a != b for a, b in zip(minus, minus[1:])), zero_root_multiplicity(p)


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
