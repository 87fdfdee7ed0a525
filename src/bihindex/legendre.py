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
* quintic: charpoly = P5^4 at every m, n >= 1 (test_each_interior_component_has_charpoly_minus_p5);
* Descartes: the signs of a0..a5 rule out a root <= 0 of P5 at every label of
  satisfies_lemma_hypothesis, all but (1, 1) and (2, 1)
  (test_descartes_lemma_holds_for_every_label).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import QuadExt
from .matrices import ExactMatrix, OperatorTable, charpoly_exact, eigenvalue_signs, operator_block
from .polynomials import IntPolynomial, count_roots


class CharpolyMismatchError(ValueError):
    """Raised when a block charpoly differs from the predicted quintic power."""

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
FRAMES = tuple(OPERATOR_TABLE)


def build_legendre_block(m: int, n: int) -> ExactMatrix:
    """Block of the operator on the (m, n) subspace: 5x5, 10x10 or 20x20.

    matrices.operator_block applies OPERATOR_TABLE with lam = m^2 + 2 n^2
    and theta frequency sqrt(2) n.  Columns follow the listing order: the
    four (or two, or one) functions of matrices.trig_basis(m, n) under U1,
    then U2, phi(U1), phi(U2), xi.  Raises matrices.AsymmetricMatrixError
    if the assembled matrix is not symmetric, which would signal a
    transcription error in the operator table.
    """
    if m < 0 or n < 0:
        raise ValueError("Fourier indices must be nonnegative")
    return operator_block(OPERATOR_TABLE, m, n, QuadExt(0, n), m * m + 2 * n * n)


# -- the quintic factor of the interior characteristic polynomials -------------

def p5_coefficients(m: int, n: int) -> tuple[int, int, int, int, int, int]:
    """(a0, a1, a2, a3, a4, a5) of the quintic factor for the (m, n) block; each
    a_i has degree <= 20 in m and in n, and the quintic lemma derives the table."""
    a5 = -1
    a4 = 5 * m**4 + 20 * m**2 * n**2 + 20 * m**2 + 20 * n**4 + 56 * n**2 - 4
    a3 = (
        -10 * m**8 - 80 * m**6 * n**2 - 48 * m**6 - 240 * m**4 * n**4
        - 320 * m**4 * n**2 - 96 * m**4 - 320 * m**2 * n**6 - 704 * m**2 * n**4
        - 272 * m**2 * n**2 + 80 * m**2 - 160 * n**8 - 512 * n**6 - 736 * n**4
        + 256 * n**2
    )
    a2 = (
        10 * m**12 + 120 * m**10 * n**2 + 24 * m**10 + 600 * m**8 * n**4
        + 240 * m**8 * n**2 - 8 * m**8 + 1600 * m**6 * n**6 + 960 * m**6 * n**4
        + 1200 * m**6 * n**2 - 16 * m**6 + 2400 * m**4 * n**8 + 1920 * m**4 * n**6
        + 5024 * m**4 * n**4 - 320 * m**4 * n**2 - 320 * m**4 + 1920 * m**2 * n**10
        + 1920 * m**2 * n**8 + 5440 * m**2 * n**6 - 2368 * m**2 * n**4
        - 832 * m**2 * n**2 + 64 * m**2 + 640 * n**12 + 768 * n**10 + 512 * n**8
        + 512 * n**6 - 2688 * n**4 + 256 * n**2
    )
    a1 = (
        -5 * m**16 - 80 * m**14 * n**2 + 16 * m**14 - 560 * m**12 * n**4
        + 256 * m**12 * n**2 + 64 * m**12 - 2240 * m**10 * n**6 + 1728 * m**10 * n**4
        - 560 * m**10 * n**2 + 48 * m**10 - 5600 * m**8 * n**8 + 6400 * m**8 * n**6
        - 7072 * m**8 * n**4 + 1536 * m**8 * n**2 + 272 * m**8 - 8960 * m**6 * n**10
        + 14080 * m**6 * n**8 - 23936 * m**6 * n**6 + 6272 * m**6 * n**4
        + 6080 * m**6 * n**2 - 64 * m**6 - 8960 * m**4 * n**12 + 18432 * m**4 * n**10
        - 34048 * m**4 * n**8 + 4608 * m**4 * n**6 + 12800 * m**4 * n**4 - 256 * m**4
        - 5120 * m**2 * n**14 + 13312 * m**2 * n**12 - 18176 * m**2 * n**10
        - 11520 * m**2 * n**8 + 45312 * m**2 * n**6 - 5888 * m**2 * n**4
        + 512 * m**2 * n**2 - 1280 * n**16 + 4096 * n**14 - 512 * n**12
        - 14336 * n**10 + 18176 * n**8 - 4096 * n**6 - 2048 * n**4
    )
    a0 = (
        m**20 + 20 * m**18 * n**2 - 12 * m**18 + 180 * m**16 * n**4
        - 232 * m**16 * n**2 + 44 * m**16 + 960 * m**14 * n**6 - 1984 * m**14 * n**4
        + 656 * m**14 * n**2 - 112 * m**14 + 3360 * m**12 * n**8 - 9856 * m**12 * n**6
        + 4832 * m**12 * n**4 + 576 * m**12 * n**2 + 304 * m**12
        + 8064 * m**10 * n**10 - 31360 * m**10 * n**8 + 22592 * m**10 * n**6
        + 11456 * m**10 * n**4 - 5056 * m**10 * n**2 - 320 * m**10
        + 13440 * m**8 * n**12 - 66304 * m**8 * n**10 + 70400 * m**8 * n**8
        + 44544 * m**8 * n**6 - 41152 * m**8 * n**4 - 1920 * m**8 * n**2 + 576 * m**8
        + 15360 * m**6 * n**14 - 93184 * m**6 * n**12 + 144128 * m**6 * n**10
        + 52992 * m**6 * n**8 - 116224 * m**6 * n**6 - 21504 * m**6 * n**4
        + 3328 * m**6 * n**2 - 256 * m**6 + 11520 * m**4 * n**16
        - 83968 * m**4 * n**14 + 184832 * m**4 * n**12 - 48128 * m**4 * n**10
        - 121600 * m**4 * n**8 - 22528 * m**4 * n**6 + 11264 * m**4 * n**4
        + 1024 * m**4 * n**2 + 5120 * m**2 * n**18 - 44032 * m**2 * n**16
        + 134144 * m**2 * n**14 - 158720 * m**2 * n**12 + 54272 * m**2 * n**10
        - 31744 * m**2 * n**8 + 44032 * m**2 * n**6 - 3072 * m**2 * n**4
        + 1024 * n**20 - 10240 * n**18 + 41984 * n**16 - 98304 * n**14
        + 142336 * n**12 - 124928 * n**10 + 60416 * n**8 - 12288 * n**6
    )
    return a0, a1, a2, a3, a4, a5


def p5_polynomial(m: int, n: int) -> IntPolynomial:
    return IntPolynomial(p5_coefficients(m, n))


@dataclass(frozen=True)
class FactorizationReport:
    m: int
    n: int
    block_order: int
    charpoly: IntPolynomial
    quintic: IntPolynomial


def verify_p5_factorization(m: int, n: int) -> FactorizationReport:
    """Check charpoly(block(m, n)) == P5(m, n)^4 exactly.

    The charpoly is monic det(xI - M); P5 has leading coefficient -1, so its
    fourth power is monic as well and the comparison needs no sign fix.
    Raises CharpolyMismatchError with the first differing coefficient.
    """
    if m < 1 or n < 1:
        raise ValueError("the quintic factorization concerns interior blocks")
    block = build_legendre_block(m, n)
    cp = charpoly_exact(block)
    p5 = p5_polynomial(m, n)
    predicted = p5**4
    if cp != predicted:
        for power, (got, want) in enumerate(zip(cp.coeffs, predicted.coeffs)):
            if got != want:
                raise CharpolyMismatchError(power, want, got)
        raise CharpolyMismatchError(min(cp.degree, predicted.degree), 0, 0)
    return FactorizationReport(m=m, n=n, block_order=block.order, charpoly=cp, quintic=p5)


# -- Descartes sign certificate -------------------------------------------------

def satisfies_lemma_hypothesis(m: int, n: int) -> bool:
    """True iff (2,1) < (m,n) componentwise-strictly-somewhere or (1,2) <= (m,n)."""
    beyond_21 = m >= 2 and n >= 1 and (m > 2 or n > 1)
    beyond_12 = m >= 1 and n >= 2
    return beyond_21 or beyond_12


def _sign_conditions(coeffs) -> tuple[bool, bool, bool, bool, bool, bool]:
    a0, a1, a2, a3, a4, a5 = coeffs
    return (a5 < 0, a4 >= 0, a3 <= 0, a2 >= 0, a1 <= 0, a0 > 0)


@dataclass(frozen=True)
class DescartesReport:
    m_max: int
    n_max: int
    checked: int
    violations: tuple[tuple[int, int], ...]
    sturm_confirmed: bool


def descartes_lemma_check(m_max: int, n_max: int) -> DescartesReport:
    """Verify the six sign conditions for every hypothesis pair in the range,
    and independently confirm by Sturm counting that the quintic has no root
    <= 0 there.  The window is an oracle; the Descartes lemma is the proof."""
    if m_max < 3 or n_max < 3:
        raise ValueError("range must reach at least (3, 3)")
    violations = []
    checked = 0
    sturm_ok = True
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            if not satisfies_lemma_hypothesis(m, n):
                continue
            checked += 1
            p5 = p5_polynomial(m, n)  # a5 = -1, so p5.coeffs keeps all six
            if not all(_sign_conditions(p5.coeffs)):
                violations.append((m, n))
            if count_roots(p5, "negative") != 0 or count_roots(p5, "zero") != 0:
                sturm_ok = False
                violations.append((m, n))
    return DescartesReport(
        m_max=m_max,
        n_max=n_max,
        checked=checked,
        violations=tuple(dict.fromkeys(violations)),
        sturm_confirmed=sturm_ok,
    )


# -- index and nullity -----------------------------------------------------------

CITED_INDEX_SPLIT = (1, 6, 0, 4, 0)
CITED_NULLITY_SPLIT = (4, 2, 8, 0, 4)


@dataclass(frozen=True)
class LegendreLedger:
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
