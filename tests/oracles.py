"""Independent oracles and helpers that only the tests use.

Each oracle reproduces a quantity the package certifies along a different
route: floating-point matrices for numpy's eigensolvers, Berkowitz's
characteristic polynomial on QuadExt entries, the circle blocks
and the interior torus blocks written out from their own operator rules, an
explicit sign count over the reduced spectrum, the curvature integrand of a
cubic phase at a point, the fourth-order operator I2 of a cubic-phase line
and its pairing int <I2 V, V> (the Hessian before integrating by parts, in
Q[pi]), the series of the nullity-direction energy E(t) from Wallis
integrals and that of pi t - pi J1(4t)/2 (the package proves the closed form
of E and the Bessel identity), float values of bump sections for scipy's
quadrature, and a report's JSON as the json module writes it.
``matrix`` builds an ExactMatrix from rows of int or QuadExt entries,
``diagonal`` one with a known spectrum, ``poly_product``
multiplies integer polynomials, and ``random_polynomial_bump`` draws
sections with rational data.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np

from bihindex.bumps import CosPowerBump, PolynomialBump, TrigPoly
from bihindex.exact import QUAD_ONE, QUAD_SQRT2, QUAD_ZERO, QPi, QuadExt
from bihindex.matrices import ExactMatrix, components
from bihindex.noncompact import CubicPhase, SectionPair
from bihindex.polynomials import IntPolynomial
from bihindex.reduced import ReducedProblem, _integer_fourth_root_floor


def matrix(rows) -> ExactMatrix:
    """ExactMatrix(A, B) of the matrix A + sqrt(2) B with rows of int or QuadExt entries."""
    pairs = [[(x.a, x.b) if isinstance(x, QuadExt) else (x, 0) for x in row] for row in rows]
    return ExactMatrix(*([[x[part] for x in row] for row in pairs] for part in (0, 1)))


def diagonal(values) -> ExactMatrix:
    """diag(values), for int or QuadExt values."""
    vals = list(values)
    return matrix([[v if i == j else 0 for j in range(len(vals))] for i, v in enumerate(vals)])


def poly_product(*factors: IntPolynomial) -> IntPolynomial:
    """The product of the factors, by schoolbook convolution; 1 for none."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f.coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f.coeffs):
                prod[i + j] += a * b
        out = prod
    return IntPolynomial(out)


def _quad_dot(u, v) -> QuadExt:
    return sum((x * y for x, y in zip(u, v)), QUAD_ZERO)


def berkowitz_quadext(rows) -> list[QuadExt]:
    """det(xI - M) by Berkowitz's algorithm on the QuadExt entries of M,
    highest degree first: the leading (k+1) x (k+1) block's charpoly is the
    Toeplitz product (1, -d, -c.c, -c.M_k c, ..., -c.M_k^(k-1) c) times that
    of the leading k x k block M_k, truncated to degree k+1."""
    p = [QUAD_ONE]
    for k in range(len(rows)):
        a = [row[:k] for row in rows[:k]]
        c = rows[k][:k]
        t = [QUAD_ONE, -rows[k][k]]
        v = c
        for j in range(k):
            if j:
                v = [_quad_dot(r, v) for r in a]
            t.append(-_quad_dot(c, v))
        p = [
            sum((t[i] * p[s - i] for i in range(max(0, s - k), s + 1)), QUAD_ZERO)
            for s in range(k + 2)
        ]
    return p


def charpoly_quadext(m: ExactMatrix) -> list[QuadExt]:
    """det(xI - M) in Z[sqrt(2)][x], lowest degree first: the product of
    berkowitz_quadext over the principal submatrices of components(M),
    every operation on QuadExt objects, with no rationality check."""
    p = [QUAD_ONE]
    for comp, _ in components(m):
        q = berkowitz_quadext([[m[i, j] for j in comp] for i in comp])
        prod = [QUAD_ZERO] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                prod[i + j] = prod[i + j] + x * y
        p = prod
    return p[::-1]


def grading_weights(m: ExactMatrix, comp: list[int]) -> dict[int, int]:
    """Weights e on a connected index set, e = 0 at its least index, that
    flip across each nonzero entry with a zero rational part: on a graded
    matrix, D = diag(sqrt(2)^e) makes D^-1 M[c][c] D an integer matrix."""
    e, todo = {comp[0]: 0}, [comp[0]]
    while todo:
        i = todo.pop()
        for j in comp:
            if j not in e and not m[i, j].is_zero():
                e[j] = e[i] ^ (m[i, j].a == 0)
                todo.append(j)
    return e


def to_numpy(m: ExactMatrix) -> np.ndarray:
    """The matrix as floats, for numpy's eigensolvers."""
    return np.array(m.a, dtype=float) + math.sqrt(2) * np.array(m.b, dtype=float)


def circle_block(k: int, m: int) -> ExactMatrix:
    """Block of the circle operator on cos(m gamma), sin(m gamma), written out.

    From the circle operator rules: a tangential section f V gets
    lam (lam + 3 k^2) f V + 2 sqrt(2) k lam f' N, a normal one f N gets
    (lam^2 - k^4 + 2 k^2 lam) f N - 2 sqrt(2) k lam f' V, with lam = m^2.
    Basis V cos, V sin, N cos, N sin (V, N for m = 0).
    """
    if m == 0:
        return matrix([[0, 0], [0, -(k**4)]])
    lam = m * m
    diag_t = lam * (lam + 3 * k * k)
    diag_n = lam * lam - k**4 + 2 * k * k * lam
    c = QUAD_SQRT2 * (2 * k * lam * m)  # from f' = -m sin / +m cos
    z = QuadExt(0)
    return matrix(
        [
            [QuadExt(diag_t), z, z, -c],
            [z, QuadExt(diag_t), c, z],
            [z, c, QuadExt(diag_n), z],
            [-c, z, z, QuadExt(diag_n)],
        ]
    )


def torus_block(k: int, m: int, n: int) -> ExactMatrix:
    """Interior block (m, n >= 1) of the torus operator, written out.

    From the torus operator rules with lam = m^2 + n^2 and ' = d/d(gamma): a
    tangential section f y gets (lam (lam + k^2) f - 2 k^2 f'') y
    + 2 sqrt(2) k lam f' eta, a normal one f eta gets ((lam^2 - k^4) f
    - 2 k^2 f'') eta - 2 sqrt(2) k lam f' y.  With f'' = -m^2 f that is A and
    B on the diagonal and the couplings +-C, C = 2 sqrt(2) k m lam.  Basis
    y cc, y cs, y sc, y ss, eta cc, eta cs, eta sc, eta ss (cos/sin of m gamma,
    then of n theta).
    """
    lam = m * m + n * n
    a = QuadExt(lam * (lam + k * k) + 2 * k * k * m * m)
    b = QuadExt(lam * lam - k**4 + 2 * k * k * m * m)
    c = QUAD_SQRT2 * (2 * k * m * lam)  # from f' = -m sin / +m cos
    z = QuadExt(0)
    return matrix(
        [
            [a, z, z, z, z, z, -c, z],
            [z, a, z, z, z, z, z, -c],
            [z, z, a, z, c, z, z, z],
            [z, z, z, a, z, c, z, z],
            [z, z, c, z, b, z, z, z],
            [z, z, z, c, z, b, z, z],
            [-c, z, z, z, z, z, b, z],
            [z, -c, z, z, z, z, z, b],
        ]
    )


def reduced_index_nullity_by_counting(problem: ReducedProblem) -> tuple[int, int]:
    """reduced_index_nullity by explicitly counting the signs of the reduced
    eigenvalues m^4 - c4, m = 0..m_max, multiplicity 2 for m > 0."""
    c4 = problem.quartic_constant()
    m_max = _integer_fourth_root_floor(c4)[0] + 2
    if Fraction(m_max**4) <= c4:
        raise AssertionError("counting window too small")
    index = nullity = 0
    for m in range(m_max + 1):
        eigenvalue, multiplicity = m**4 - c4, 1 if m == 0 else 2
        if eigenvalue < 0:
            index += multiplicity
        elif eigenvalue == 0:
            nullity += multiplicity
    return index, nullity


def curvature_integrand(phase: CubicPhase, g: Fraction) -> Fraction:
    """w(g) = (A'')^2 + 2 A''' A' = 72 a^2 g^2 + 48 a b g + 4 b^2 + 12 a c, exact."""
    g = Fraction(g)
    a, b, c = phase.a, phase.b, phase.c
    return 72 * a * a * g * g + 48 * a * b * g + 4 * b * b + 12 * a * c


def i2_sections(phase: CubicPhase, section: SectionPair) -> tuple[TrigPoly, TrigPoly]:
    """Image of the section under the fourth-order operator, componentwise,
    each in its own bump's local variable (zero where the bump is None).

    Tangential: f1''''.  Normal: f2'''' + 2 (A')^2 f2'' + 4 A'' A' f2'
    + (4 A''' A' + 3 (A'')^2 + (A')^4) f2.
    """
    tangential = normal = TrigPoly()
    if section.f1 is not None:
        tangential = section.f1.profile().derivative(4)
    if section.f2 is not None:
        f = section.f2.profile()
        ap, app, appp = phase.derivatives(section.f2.center)
        ap2 = ap * ap
        normal = (
            f.derivative(4)
            + 2 * ap2 * f.derivative(2)
            + 4 * app * ap * f.derivative()
            + (4 * appp * ap + 3 * app * app + ap2 * ap2) * f
        )
    return tangential, normal


def i2_pairing(phase: CubicPhase, section: SectionPair) -> QPi:
    """int < I2 V, V >, the pre-integration-by-parts form of the Hessian."""
    tangential, normal = i2_sections(phase, section)
    total = QPi()
    if section.f1 is not None:
        total += section.f1.integral(tangential * section.f1.profile())
    if section.f2 is not None:
        total += section.f2.integral(normal * section.f2.profile())
    return total


def nullity_direction_energy_series(order: int) -> tuple[Fraction, ...]:
    """(e_0, ..., e_order) with E(t) = pi * sum_i e_i t^i + O(t^(order + 1)).

    With s = sin(theta), u = -t s - cos(2 t s)/2 is a power series in t with
    monomials in s as coefficients; E = 1/2 int u^2 sends each s^p to its
    Wallis integral.
    """
    u = {(1, 1): Fraction(-1)}  # (power of t, power of s) -> coefficient
    for j in range(order // 2 + 1):  # -cos(2 t s)/2 = -1/2 sum_j (-4)^j (t s)^(2j) / (2j)!
        u[(2 * j, 2 * j)] = Fraction(-((-4) ** j), 2 * math.factorial(2 * j))
    coeffs = [Fraction(0)] * (order + 1)
    for (i1, p1), c1 in u.items():
        for (i2, p2), c2 in u.items():
            p = p1 + p2  # int_0^{2 pi} sin^p / (2 pi) = C(p, p/2) / 2^p, and 0 for odd p
            if i1 + i2 <= order and p % 2 == 0:
                coeffs[i1 + i2] += c1 * c2 * Fraction(math.comb(p, p // 2), 2**p)
    return tuple(coeffs)


def bessel_rate_series(order: int) -> tuple[Fraction, ...]:
    """(r_0, ..., r_order) with pi t - pi J1(4t)/2 = pi * sum_i r_i t^i + O(t^(order + 1)),
    from J1(x) = sum_j (-1)^j (x/2)^(2j+1) / (j! (j+1)!)."""
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[1] = Fraction(1)
    for j in range((order - 1) // 2 + 1):
        coeffs[2 * j + 1] -= Fraction((-4) ** j, math.factorial(j) * math.factorial(j + 1))
    return tuple(coeffs)


def random_polynomial_bump(rng: random.Random, span: int = 4) -> PolynomialBump:
    """A nontrivial random bump with rational data, for property tests."""
    center = Fraction(rng.randint(-8 * span, 8 * span), 8)
    halfwidth = Fraction(rng.randint(4, 25), 10)
    weights = [Fraction(rng.randint(-20, 20), 10) for _ in range(rng.randint(1, 3))]
    if not any(weights):
        weights = [Fraction(1)]
    return PolynomialBump.make(center, halfwidth, power=6, weights=weights)


def scaled(bump: PolynomialBump, a: Fraction) -> PolynomialBump:
    """The bump times the rational a."""
    return PolynomialBump(bump.center, bump.halfwidth, tuple(a * c for c in bump.ycoeffs))


def bump_values(bump, u: np.ndarray, deriv: int) -> np.ndarray:
    """Float values of a bump's derivative at the points u (zero off its support)."""
    x = np.asarray(u, dtype=float) - float(bump.center)
    if isinstance(bump, CosPowerBump):
        # d^r/dx^r cos^p x from the cosine series, each term differentiated in closed form
        p, total = bump.power, np.zeros_like(x)
        for j in range(p // 2 + 1):
            coef = (2 if j else 1) * math.comb(p, p // 2 - j) / 2**p
            total += coef * (2 * j) ** deriv * np.cos(2 * j * x + deriv * np.pi / 2)
        return np.where(np.abs(x) < np.pi / 2, total, 0.0)
    h = float(bump.halfwidth)
    c = np.polynomial.polynomial.polyder([float(a) for a in bump.ycoeffs], deriv)
    y = x / h
    return np.where(np.abs(y) < 1.0, np.polynomial.polynomial.polyval(y, c) / h**deriv, 0.0)


def stdlib_json(report) -> str:
    """The report as json.dumps writes it, keys sorted and indented by 2, after
    a copy rounds each float to 12 significant digits: the bytes the
    one-pass writer behind cli.render_json must reproduce."""
    def rounded(obj):
        if isinstance(obj, float):
            return float(f"{obj:.12g}")
        if isinstance(obj, dict):
            return {k: rounded(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [rounded(v) for v in obj]
        return obj

    return json.dumps(rounded(report), sort_keys=True, indent=2) + "\n"
