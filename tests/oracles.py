"""Independent oracles and helpers that only the tests use.

Each oracle reproduces a quantity the package certifies along a different
route: floating-point matrices for numpy's eigensolvers, and an explicit sign
count over the reduced spectrum.  ``diagonal`` builds test matrices with a
known spectrum.
"""

from fractions import Fraction

import numpy as np

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
