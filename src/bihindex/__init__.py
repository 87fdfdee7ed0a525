"""Exact index/nullity computations for explicit biharmonic maps into spheres.

Submodules:
  exact       -- big integers, Z[sqrt(2)], quadratic surds, Q[pi]; exact signs
  polynomials -- integer polynomials, Sturm-based exact root counting
  matrices    -- symmetric Z[sqrt(2)] matrices, Berkowitz charpoly, exact
                 eigenvalue sign counts, and operator_block, which builds
                 every torus, circle and Legendre block from a rule table
  torus       -- the degree-k equivariant maps T^2 -> S^2, and the checker
                 of their sign-run evidence
  scan        -- the fast exact nullity-conjecture scan over k
  circle      -- the degree-k biharmonic circles S^1 -> S^2 (blocks are the
                 torus (m, 0) blocks)
  legendre    -- the Legendre torus in S^5 (index 11, nullity 18)
  bumps       -- test sections and the exact x^k cos/sin(w x) algebra
  reduced     -- equivariant (reduced) index/nullity, conformal + Bessel proofs
  noncompact  -- strict stability of the cubic-phase lines R -> S^2
  cli         -- command-line reports (json / csv / md)
"""

__version__ = "0.1.0"
