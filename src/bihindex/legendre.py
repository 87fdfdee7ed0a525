"""The biharmonic Legendre torus in S^5: blocks, charpoly, index 11, nullity 18.

The flat torus here is S^1 x S^1(1/sqrt(2)); Laplace eigenvalues have the
form lam = m^2 + 2 n^2, and the pull-back bundle is parallelised by five
orthonormal sections (two coordinate pushforwards U1, U2, their images
phi(U1), phi(U2) under the ambient complex structure, and the Reeb section
xi).  On the 20-dimensional subspace spanned by the four products of
cos/sin(m gamma) with cos/sin(sqrt(2) n theta) tensored against the frame,
the second-variation operator acts through five linear rules in
f, X1 f, X2 f, X1 X2 f, X2 X2 f with lam-dependent integer coefficients
(X1, X2 the coordinate fields; X2 produces sqrt(2) n factors, kept exactly
in Z[sqrt(2))).  OPERATOR_TABLE holds the rules; matrices.operator_block,
which also builds the torus and circle blocks, applies them.

Summing the exact eigenvalue signs of the seven blocks in LEDGER_FAMILIES
gives index 11 and nullity 18.  Every other block is positive definite by
three lemmas, each proved for all labels in tests/test_legendre.py from
forward differences of finitely many integer evaluations (block entries have
degree <= 4 in each label, so each charpoly coefficient has a known degree):
* axis cut-off: (t, 0) and (0, t) for t >= AXIS_CUTOFF
  (test_axis_blocks_are_positive_from_the_cutoff);
* quintic: at every m, n >= 1 the block splits into four 5 x 5 components,
  each with charpoly -P5 (test_each_interior_component_has_charpoly_minus_p5);
* Descartes: the signs of a0..a5 rule out a root <= 0 of P5 at every label of
  satisfies_lemma_hypothesis, all but (1, 1) and (2, 1)
  (test_descartes_lemma_holds_for_every_label).

P5_TABLE holds a0..a5 as integer tables in M = m^2 and N = n^2, so each a_i
is even in m and in n, and of degree <= 20 in each, by construction.
p5_row(m) folds M in once and leaves six polynomials in N; p5_coefficients
evaluates them at n^2, and the window of descartes_lemma_check runs Horner's
rule inline over their integer coefficient rows.  Evenness of
the block charpolys themselves, which would let the quintic lemma sample
distinct squares only, is not proved.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple

from .exact import QuadExt
from .matrices import (
    ExactMatrix, OperatorTable, charpoly_exact, components, eigenvalue_signs, operator_block,
)
from .polynomials import IntPolynomial, count_roots, zero_root_multiplicity
from .torus import check_label


class CharpolyMismatchError(ValueError):
    """Raised when the charpoly of a block component differs from -P5."""

    def __init__(self, power: int, expected: int, got: int) -> None:
        self.power = power
        self.expected = expected
        self.got = got
        super().__init__(
            f"charpoly coefficient of x^{power}: expected {expected}, got {got}"
        )


# the rules of the five frames, in listing order; coefficients are functions of lam
OPERATOR_TABLE: OperatorTable = {
    "U1": [
        ("U1", "f", lambda l: l * l),
        ("U1", "x2x2", lambda l: -4),
        ("U2", "x1x2", lambda l: -4),
        ("phiU2", "x2", lambda l: 4 * (l + 1)),
        ("xi", "f", lambda l: 2 * l),
        ("xi", "x2x2", lambda l: -4),
    ],
    "U2": [
        ("U1", "x1x2", lambda l: -4),
        ("U2", "f", lambda l: l * l + 6 * l),
        ("phiU1", "x2", lambda l: 4 * l),
        ("phiU2", "x1", lambda l: 4 * (l + 1)),
        ("xi", "x1x2", lambda l: -8),
    ],
    "phiU1": [
        ("U2", "x2", lambda l: -4 * l),
        ("phiU1", "f", lambda l: l * l + 4 * l - 4),
        ("phiU2", "x1x2", lambda l: -8),
        ("xi", "x1", lambda l: -4 * l),
    ],
    "phiU2": [
        ("U1", "x2", lambda l: -4 * (l + 1)),
        ("U2", "x1", lambda l: -4 * (l + 1)),
        ("phiU1", "x1x2", lambda l: -8),
        ("phiU2", "f", lambda l: l * l + 6 * l),
        ("phiU2", "x2x2", lambda l: -4),
        ("xi", "x2", lambda l: -4 * (l + 1)),
    ],
    "xi": [
        ("U1", "f", lambda l: 2 * l),
        ("U1", "x2x2", lambda l: -4),
        ("U2", "x1x2", lambda l: -8),
        ("phiU1", "x1", lambda l: 4 * l),
        ("phiU2", "x2", lambda l: 4 * (l + 1)),
        ("xi", "f", lambda l: l * l + 4 * l),
    ],
}


def build_legendre_block(m: int, n: int) -> ExactMatrix:
    """Block of the operator on the (m, n) subspace: 5x5, 10x10 or 20x20.

    matrices.operator_block applies OPERATOR_TABLE with lam = m^2 + 2 n^2
    and theta frequency sqrt(2) n.  Columns follow the listing order: the
    four (or two, or one) functions of matrices.trig_basis(m, n) under U1,
    then U2, phi(U1), phi(U2), xi.  Raises matrices.AsymmetricMatrixError
    if the assembled matrix is not symmetric, which would signal a
    transcription error in the operator table.
    """
    check_label(1, m, n)  # the torus label rule; these blocks have no winding number
    return operator_block(OPERATOR_TABLE, m, n, QuadExt(0, n), m * m + 2 * n * n)


# -- the quintic factor of the interior characteristic polynomials -------------

# P5_TABLE[i][a][b] is the coefficient of m^(2a) n^(2b) in a_i.  At most 11
# rows of at most 11 entries is degree <= 20 in m and in n;
# test_each_interior_component_has_charpoly_minus_p5 checks the values
# against the block charpolys.
P5_TABLE: tuple[tuple[tuple[int, ...], ...], ...] = (
    (  # a0
        (0, 0, 0, -12288, 60416, -124928, 142336, -98304, 41984, -10240, 1024),
        (0, 0, -3072, 44032, -31744, 54272, -158720, 134144, -44032, 5120),
        (0, 1024, 11264, -22528, -121600, -48128, 184832, -83968, 11520),
        (-256, 3328, -21504, -116224, 52992, 144128, -93184, 15360),
        (576, -1920, -41152, 44544, 70400, -66304, 13440),
        (-320, -5056, 11456, 22592, -31360, 8064),
        (304, 576, 4832, -9856, 3360),
        (-112, 656, -1984, 960),
        (44, -232, 180),
        (-12, 20),
        (1,),
    ),
    (  # a1
        (0, 0, -2048, -4096, 18176, -14336, -512, 4096, -1280),
        (0, 512, -5888, 45312, -11520, -18176, 13312, -5120),
        (-256, 0, 12800, 4608, -34048, 18432, -8960),
        (-64, 6080, 6272, -23936, 14080, -8960),
        (272, 1536, -7072, 6400, -5600),
        (48, -560, 1728, -2240),
        (64, 256, -560),
        (16, -80),
        (-5,),
    ),
    (  # a2
        (0, 256, -2688, 512, 512, 768, 640),
        (64, -832, -2368, 5440, 1920, 1920),
        (-320, -320, 5024, 1920, 2400),
        (-16, 1200, 960, 1600),
        (-8, 240, 600),
        (24, 120),
        (10,),
    ),
    (  # a3
        (0, 256, -736, -512, -160),
        (80, -272, -704, -320),
        (-96, -320, -240),
        (-48, -80),
        (-10,),
    ),
    (  # a4
        (-4, 56, 20),
        (20, 20),
        (5,),
    ),
    (  # a5
        (-1,),
    ),
)


def p5_row(m: int) -> tuple[IntPolynomial, ...]:
    """(a0, ..., a5) of the quintic factor at this m, each a polynomial in N = n^2:
    the table folded at M = m^2 by Horner's rule in M."""
    mm = m * m
    row = []
    for rows in P5_TABLE:
        acc = [0] * max(map(len, rows))
        for r in reversed(rows):
            acc = [c * mm for c in acc]
            for b, c in enumerate(r):
                acc[b] += c
        row.append(IntPolynomial(acc))
    return tuple(row)


def p5_coefficients(m: int, n: int) -> tuple[int, int, int, int, int, int]:
    """(a0, a1, a2, a3, a4, a5) of the quintic factor for the (m, n) block:
    p5_row(m) evaluated at N = n^2, so P5_TABLE is the one written form of
    the coefficients."""
    nn = n * n
    return tuple(a(nn) for a in p5_row(m))


def p5_polynomial(m: int, n: int) -> IntPolynomial:
    return IntPolynomial(p5_coefficients(m, n))


class FactorizationReport(NamedTuple):
    m: int
    n: int
    block_order: int
    quintic: IntPolynomial


def verify_p5_factorization(m: int, n: int) -> FactorizationReport:
    """Check that each connected component of block(m, n) has charpoly -P5(m, n).

    The charpoly of a component c is the monic det(xI - block[c][c]); P5
    leads with -x^5, so the match needs c of order 5, and four such
    components give charpoly(block) = P5^4.  Raises CharpolyMismatchError
    at the first power that differs; a component of order d != 5 differs
    at x^max(d, 5) at the latest.
    """
    if m < 1 or n < 1:
        raise ValueError("the quintic factorization concerns interior blocks")
    block = build_legendre_block(m, n)
    p5 = p5_polynomial(m, n)
    want = [-c for c in p5.coeffs]
    for comp, _ in components(block):
        part = ExactMatrix(*([[rows[i][j] for j in comp] for i in comp]
                             for rows in (block.a, block.b)))
        got = charpoly_exact(part).coeffs
        for power, (g, w) in enumerate(zip_longest(got, want, fillvalue=0)):
            if g != w:
                raise CharpolyMismatchError(power, w, g)
    return FactorizationReport(m=m, n=n, block_order=block.order, quintic=p5)


# -- Descartes sign certificate -------------------------------------------------

def satisfies_lemma_hypothesis(m: int, n: int) -> bool:
    """True iff (m, n) lies in one of the lemma's quadrants m >= 3, n >= 1 or
    m >= 1, n >= 2: every interior label except (1, 1) and (2, 1)."""
    return (m >= 3 and n >= 1) or (m >= 1 and n >= 2)


def _sign_conditions(coeffs) -> tuple[bool, bool, bool, bool, bool, bool]:
    a0, a1, a2, a3, a4, a5 = coeffs
    return (a5 < 0, a4 >= 0, a3 <= 0, a2 >= 0, a1 <= 0, a0 > 0)


class DescartesReport(NamedTuple):
    m_max: int
    n_max: int
    checked: int
    violations: tuple[tuple[int, int], ...]
    sturm_confirmed: bool


def descartes_lemma_check(m_max: int, n_max: int) -> DescartesReport:
    """Verify the six sign conditions for every hypothesis pair in the range,
    and independently confirm by Sturm counting that the quintic has no root
    <= 0 there.  Each m folds P5_TABLE once (p5_row); each n then evaluates
    the six folded integer rows at n^2 by Horner's rule, inline, and makes
    one Sturm count of the negative roots and reads the multiplicity of the
    root 0 off the trailing coefficients.  A label that fails either check
    is listed once.  The window is an oracle; the Descartes lemma is the
    proof."""
    if m_max < 3 or n_max < 3:
        raise ValueError("range must reach at least (3, 3)")
    violations = []
    checked = 0
    sturm_ok = True
    for m in range(1, m_max + 1):
        rows = [a.coeffs[::-1] for a in p5_row(m)]  # highest power of N first
        for n in range(1, n_max + 1):
            if not satisfies_lemma_hypothesis(m, n):
                continue
            checked += 1
            nn = n * n
            coeffs = []
            for row in rows:
                acc = 0
                for c in row:
                    acc = acc * nn + c
                coeffs.append(acc)
            p5 = IntPolynomial(coeffs)  # a5 = -1, so p5.coeffs keeps all six
            sturm = count_roots(p5, "negative") == 0 and zero_root_multiplicity(p5) == 0
            sturm_ok &= sturm
            if not (sturm and all(_sign_conditions(p5.coeffs))):
                violations.append((m, n))
    return DescartesReport(
        m_max=m_max,
        n_max=n_max,
        checked=checked,
        violations=tuple(violations),
        sturm_confirmed=sturm_ok,
    )


# -- index and nullity -----------------------------------------------------------

CITED_INDEX_SPLIT = (1, 6, 0, 4, 0)
CITED_NULLITY_SPLIT = (4, 2, 8, 0, 4)


class LegendreLedger(NamedTuple):
    index: int
    nullity: int
    index_split: tuple[int, int, int, int, int]
    nullity_split: tuple[int, int, int, int, int]
    axis_m_scanned_to: int  # the last axis label counted, AXIS_CUTOFF - 1
    axis_n_scanned_to: int
    split_matches_cited: bool


# every axis block (t, 0) and (0, t) with t >= AXIS_CUTOFF is positive definite
AXIS_CUTOFF = 3

# the labels of every block with a nonpositive eigenvalue, by family
LEDGER_FAMILIES: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = (
    ("constant", ((0, 0),)),
    ("axis-m", tuple((t, 0) for t in range(1, AXIS_CUTOFF))),
    ("axis-n", tuple((0, t) for t in range(1, AXIS_CUTOFF))),
    ("interior-1-1", ((1, 1),)),
    ("interior-2-1", ((2, 1),)),
)


def legendre_index_nullity() -> LegendreLedger:
    """Exact totals from the blocks in LEDGER_FAMILIES; every other block is
    positive definite by the three lemmas of the module docstring.  The
    per-family split is compared against the split cited from earlier work
    and flagged, not failed, if only the split disagrees.
    """
    signs = [
        [eigenvalue_signs(build_legendre_block(m, n)) for m, n in labels]
        for _, labels in LEDGER_FAMILIES
    ]
    index_split = tuple(sum(neg for neg, _ in family) for family in signs)
    nullity_split = tuple(sum(zero for _, zero in family) for family in signs)
    return LegendreLedger(
        index=sum(index_split),
        nullity=sum(nullity_split),
        index_split=index_split,
        nullity_split=nullity_split,
        axis_m_scanned_to=AXIS_CUTOFF - 1,
        axis_n_scanned_to=AXIS_CUTOFF - 1,
        split_matches_cited=(
            index_split == CITED_INDEX_SPLIT and nullity_split == CITED_NULLITY_SPLIT
        ),
    )
