"""Independent oracles and helpers that only the tests use.

Each oracle reproduces a quantity the package certifies along a different
route: floating-point matrices for numpy's eigensolvers, an explicit sign
count over the reduced spectrum, and float values of bump sections for
scipy's quadrature.  ``diagonal`` builds test matrices with a known
spectrum, and ``random_polynomial_bump`` draws sections with rational data.
"""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np

from bihindex.bumps import CosPowerBump, PolynomialBump
from bihindex.matrices import ExactMatrix
from bihindex.reduced import ReducedProblem, _integer_fourth_root_floor, reduced_spectrum


def diagonal(values) -> ExactMatrix:
    """diag(values), for int or QuadExt values."""
    vals = list(values)
    return ExactMatrix(
        [[v if i == j else 0 for j in range(len(vals))] for i, v in enumerate(vals)]
    )


def to_numpy(m: ExactMatrix) -> np.ndarray:
    """The matrix as floats, for numpy's eigensolvers."""
    return np.array([[float(x) for x in row] for row in m.entries], dtype=float)


def reduced_index_nullity_by_counting(problem: ReducedProblem) -> tuple[int, int]:
    """reduced_index_nullity by explicitly counting eigenvalue signs."""
    c4 = problem.quartic_constant()
    m_max = _integer_fourth_root_floor(c4)[0] + 2
    index = nullity = 0
    for e in reduced_spectrum(problem, m_max):
        if e.eigenvalue < 0:
            index += e.multiplicity
        elif e.eigenvalue == 0:
            nullity += e.multiplicity
    if Fraction(m_max**4) <= c4:
        raise AssertionError("counting window too small")
    return index, nullity


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
    return dataclasses.replace(bump, ycoeffs=tuple(a * c for c in bump.ycoeffs))


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

