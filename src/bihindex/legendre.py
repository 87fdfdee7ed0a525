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

The characteristic polynomial of every interior block is the fourth power
of a quintic P5 whose coefficients a5..a0 are explicit polynomials in
(m, n); a Descartes sign argument shows P5 has no nonpositive root except
at the two small labels (1,1) and (2,1).  Summing the exact eigenvalue sign
counts of all blocks yields index 11 and nullity 18.
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
    """(a0, a1, a2, a3, a4, a5) of the quintic factor for the (m, n) block."""
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


def descartes_conditions(m: int, n: int) -> tuple[bool, bool, bool, bool, bool, bool]:
    """The six coefficient sign conditions certifying no nonpositive root."""
    return _sign_conditions(p5_coefficients(m, n))


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
    <= 0 there."""
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
    axis_m_scanned_to: int
    axis_n_scanned_to: int
    split_matches_cited: bool


def _block_counts(m: int, n: int) -> tuple[int, int]:
    return eigenvalue_signs(build_legendre_block(m, n))


AXIS_SCAN_LIMIT = 32  # both axes stop at t = 5; a scan still going here miscounts


class AxisScanLimitError(RuntimeError):
    """An axis scan passed AXIS_SCAN_LIMIT without three positive blocks in a row."""


def _axis_scan(make_label) -> tuple[int, int, int]:
    """Accumulate (index, nullity) along an axis family until three
    consecutive blocks are certified entirely positive by exact sign counts."""
    idx = nul = consecutive_positive = 0
    for t in range(1, AXIS_SCAN_LIMIT + 1):
        neg, zero = _block_counts(*make_label(t))
        consecutive_positive = consecutive_positive + 1 if neg == 0 and zero == 0 else 0
        idx += neg
        nul += zero
        if consecutive_positive == 3:
            return idx, nul, t
    raise AxisScanLimitError(f"no stop by label {make_label(AXIS_SCAN_LIMIT)}")


def legendre_index_nullity() -> LegendreLedger:
    """Exact totals assembled block family by block family.

    Families: the constant block, the (m, 0) axis, the (0, n) axis, and the
    interior labels (1, 1) and (2, 1); every other interior label is covered
    by the Descartes certificate (no nonpositive root of the quintic).  The
    per-family split is compared against the split cited from earlier work
    and flagged, not failed, if only the split disagrees.
    """
    zero_neg, zero_nul = _block_counts(0, 0)
    m_neg, m_nul, m_to = _axis_scan(lambda t: (t, 0))
    n_neg, n_nul, n_to = _axis_scan(lambda t: (0, t))
    i11_neg, i11_nul = _block_counts(1, 1)
    i21_neg, i21_nul = _block_counts(2, 1)

    index_split = (zero_neg, m_neg, n_neg, i11_neg, i21_neg)
    nullity_split = (zero_nul, m_nul, n_nul, i11_nul, i21_nul)
    return LegendreLedger(
        index=sum(index_split),
        nullity=sum(nullity_split),
        index_split=index_split,
        nullity_split=nullity_split,
        axis_m_scanned_to=m_to,
        axis_n_scanned_to=n_to,
        split_matches_cited=(
            index_split == CITED_INDEX_SPLIT and nullity_split == CITED_NULLITY_SPLIT
        ),
    )
