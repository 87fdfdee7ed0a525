"""Exact index/nullity computations for explicit biharmonic maps into spheres.

Submodules:
  exact       -- big integers, Z[sqrt(2)], quadratic surds, Q[pi]; exact signs
  polynomials -- integer polynomials, Sturm-based exact root counting
  matrices    -- symmetric Z[sqrt(2)] matrices, Berkowitz charpoly, exact
                 eigenvalue sign counts
  torus       -- the degree-k equivariant maps T^2 -> S^2, and the checker
                 of their sign-run evidence
  scan        -- the fast exact nullity-conjecture scan over k
  circle      -- the degree-k biharmonic circles S^1 -> S^2
  legendre    -- the Legendre torus in S^5 (index 11, nullity 18)
  bumps       -- test sections and the exact x^k cos/sin(w x) algebra
  reduced     -- equivariant (reduced) index/nullity, conformal + Bessel checks
  noncompact  -- strict stability of the cubic-phase lines R -> S^2
  cli         -- command-line reports (json / csv / md)
"""

from .exact import ExactInt, QuadExt, Surd, surd_sign
from .matrices import ExactMatrix, charpoly_exact, eigenvalue_signs
from .polynomials import IntPolynomial, count_roots
from .torus import IndexReport, block_matrix, check_runs, eigenvalue, index_nullity
from .scan import ScanRow, conjecture_scan
from .circle import circle_block, circle_index_nullity
from .legendre import (
    build_legendre_block,
    descartes_lemma_check,
    legendre_index_nullity,
    verify_p5_factorization,
)
from .reduced import (
    ReducedProblem,
    bessel_nullity_check,
    conformal_hessian,
    reduced_index_nullity,
    reduced_index_torus,
)
from .noncompact import (
    CubicPhase,
    SectionPair,
    Stability,
    counterexample_value,
    hessian_form,
    integrand_min,
    is_strictly_stable,
)

__version__ = "0.1.0"

__all__ = [
    "ExactInt",
    "QuadExt",
    "Surd",
    "surd_sign",
    "ExactMatrix",
    "charpoly_exact",
    "eigenvalue_signs",
    "IntPolynomial",
    "count_roots",
    "IndexReport",
    "block_matrix",
    "check_runs",
    "eigenvalue",
    "index_nullity",
    "ScanRow",
    "conjecture_scan",
    "circle_block",
    "circle_index_nullity",
    "build_legendre_block",
    "descartes_lemma_check",
    "legendre_index_nullity",
    "verify_p5_factorization",
    "ReducedProblem",
    "bessel_nullity_check",
    "conformal_hessian",
    "reduced_index_nullity",
    "reduced_index_torus",
    "CubicPhase",
    "SectionPair",
    "Stability",
    "counterexample_value",
    "hessian_form",
    "integrand_min",
    "is_strictly_stable",
    "__version__",
]
