"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1 asserts the k = 155 row at its exact value 89321.  The
printed figure 88433 is checked as what a lattice scan truncated to
m, n <= k gives: exact enumeration over the certified bound
m^2 + n^2 < 9 k^2 finds 222 further negative pairs with 155 < m <= 160,
whose signs the test recomputes from the closed forms T and R (and which
the block matrices confirm; see test_criterion_1_exact_value_at_k155).
"""

import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bihindex.circle import (
    circle_index_nullity,
    circle_index_nullity_by_matrices,
)
from bihindex.legendre import (
    descartes_lemma_check,
    legendre_index_nullity,
    p5_coefficients,
    verify_p5_factorization,
)
from bihindex.noncompact import (
    CubicPhase,
    SectionPair,
    Stability,
    counterexample_value,
    hessian_form,
    is_strictly_stable,
)
from bihindex.reduced import (
    TERM_RATIO,
    ReducedProblem,
    bessel_nullity_check,
    conformal_hessian,
    reduced_index_nullity,
    reduced_index_torus,
)
from bihindex.scan import conjecture_scan, scan_row
from bihindex.torus import (
    block_matrix,
    branch_multiplicity,
    index_nullity,
    lambda_parts,
)

from oracles import (
    circle_block,
    i2_pairing,
    random_polynomial_bump,
    reduced_index_nullity_by_counting,
    run_pairs,
    scaled,
    to_numpy,
)

F = Fraction

TABLE_SMALL = {
    1: (1, 5), 2: (13, 5), 3: (29, 5), 4: (57, 5), 5: (89, 5), 6: (129, 5),
    7: (181, 5), 8: (233, 5), 9: (297, 5), 10: (365, 5), 17: (1065, 5),
}
TABLE_K155 = (89321, 5)
# the k = 155 index as printed, from a lattice scan cut off at m, n <= k
PRINTED_K155_INDEX = 88433


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# -- criterion 1: the published index table ---------------------------------------

def test_criterion_1_torus_index_table_small_k():
    t0 = time.time()
    for k, expected in TABLE_SMALL.items():
        r = index_nullity(k)
        assert (r.index, r.nullity) == expected, (k, r.index, r.nullity)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("1 (k<=17)", f"11 table rows exact in {elapsed:.2f}s")


def _lambda_minus_sign(k: int, m: int, n: int) -> int:
    """Sign of lambda^- = (T - sqrt(R)) / 2, straight from the closed forms."""
    s = m * m + n * n
    t = -k**4 + k * k * (5 * m * m + n * n) + 2 * s * s
    r = k**8 + 2 * k**6 * s + k**4 * s * s + 32 * k * k * m * m * s * s
    if t < 0 or t * t < r:
        return -1
    return 0 if t * t == r else 1


def test_criterion_1_torus_index_table_k155_row():
    """Asserts the k = 155 row at its exact value (89321, 5).

    The printed index 88433 is 1 + 4(k-1) + 4 f with f counted only over
    m, n <= k.  The negative pairs outside that box are re-signed here from
    T and R, without the module's D-test, so the correction rests on an
    independent route.
    """
    k = 155
    r = index_nullity(k)
    assert (r.index, r.nullity) == TABLE_K155

    pairs = run_pairs(r.negative_runs)
    boxed = [(m, n) for (m, n) in pairs if m <= k and n <= k]
    beyond = [(m, n) for (m, n) in pairs if m > k or n > k]
    assert PRINTED_K155_INDEX == 1 + 4 * (k - 1) + 4 * len(boxed)
    assert all(m * m + n * n < 9 * k * k for m, n in beyond)
    assert all(_lambda_minus_sign(k, m, n) < 0 for m, n in beyond)

    # the whole interior count, signed from T and R over the certified disk
    bound = 9 * k * k
    f_tr = sum(
        1
        for m in range(1, 3 * k + 1)
        for n in range(1, math.isqrt(max(bound - 1 - m * m, 0)) + 1)
        if _lambda_minus_sign(k, m, n) < 0
    )
    assert f_tr == r.f
    _report("1 (k=155)", f"exact row ({r.index}, {r.nullity}); printed "
            f"{PRINTED_K155_INDEX} = truncation at m, n <= {k}, "
            f"{len(beyond)} negative pairs beyond it")


def test_criterion_1_exact_value_at_k155():
    # triple confirmation of the exact k = 155 row
    r = index_nullity(155)
    assert (r.f, r.g) == (22176, 0)
    assert (r.index, r.nullity) == (89321, 5)
    # route 2: the fast scan lane
    assert scan_row(155).f == 22176
    # the discrepancy with the reference row is exactly the m > k pairs
    pairs = run_pairs(r.negative_runs)
    beyond = [(m, n) for (m, n) in pairs if m > 155 or n > 155]
    assert len(beyond) == 222
    assert all(156 <= m <= 160 and n <= 155 for m, n in beyond)
    boxed = [(m, n) for (m, n) in pairs if m <= 155 and n <= 155]
    assert len(boxed) == 21954  # the count behind the reference value 88433
    # route 3: block-matrix eigenvalues at an m > k witness
    for (m, n) in beyond[:2]:
        ev = np.linalg.eigvalsh(to_numpy(block_matrix(155, m, n)))
        assert ev[0] < -1.0
    _report("1 (exact k=155)",
            "f(155)=22176, index 89321, 222 negative pairs beyond m=k certified")


# -- criterion 2: nullity conjecture scan ------------------------------------------

def test_criterion_2_conjecture_scan_ci_range():
    t0 = time.time()
    rows = conjecture_scan(300)
    elapsed = time.time() - t0
    assert all(r.g == 0 for r in rows)
    assert all(r.nullity == 5 for r in rows)
    assert elapsed < 30.0
    _report("2 (k<=300)", f"g(k)=0 for all k<=300 in {elapsed:.1f}s, exact signs")


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("BIHINDEX_FULL_SCAN"),
    reason="full range behind BIHINDEX_FULL_SCAN=1",
)
def test_criterion_2_conjecture_scan_full_range():
    t0 = time.time()
    rows = conjecture_scan(1500)
    elapsed = time.time() - t0
    assert all(r.g == 0 for r in rows)
    assert elapsed < 600.0
    _report("2 (k<=1500)", f"g(k)=0 for all k<=1500 in {elapsed:.0f}s")


# -- criterion 3: closed forms versus matrices --------------------------------------

def test_criterion_3_closed_form_vs_matrix():
    checked = 0
    for k in range(1, 11):
        for m in range(0, 11):
            for n in range(0, 11):
                blk = block_matrix(k, m, n)
                ev = np.sort(np.linalg.eigvalsh(to_numpy(blk)))
                if (m, n) == (0, 0):
                    expected = np.sort([0.0, -float(k**4)])
                    mults = (1, 1)
                else:
                    t, r = lambda_parts(k, m, n)
                    lm = (t - math.sqrt(r)) / 2
                    lp = (t + math.sqrt(r)) / 2
                    mult = branch_multiplicity(m, n)
                    expected = np.sort([lm] * mult + [lp] * mult)
                    mults = (mult, mult)
                scale = np.maximum(np.abs(expected), 1.0)
                assert np.all(np.abs(ev - expected) <= 1e-9 * scale), (k, m, n)
                assert blk.order == sum(mults)
                checked += 1
    _report("3", f"{checked} blocks match closed forms at 1e-9 with multiplicities")


# -- criterion 4: circle ---------------------------------------------------------------

def test_criterion_4_circle_both_paths_and_block_equality():
    for k in range(1, 51):
        expected = (1 + 2 * (k - 1), 3)
        assert circle_index_nullity(k) == expected, k
        assert circle_index_nullity_by_matrices(k) == expected, k
    for k in range(1, 51):
        for m in range(0, 51):
            assert circle_block(k, m) == block_matrix(k, m, 0), (k, m)
    _report("4", "k<=50 by formula and matrix counting; the circle rules give the m-axis blocks")


# -- criterion 5: Legendre torus ---------------------------------------------------------

def test_criterion_5i_charpoly_is_quintic_fourth_power():
    for m in range(1, 7):
        for n in range(1, 7):
            rep = verify_p5_factorization(m, n)  # symmetry + grading + equality
            assert rep.block_order == 20
    _report("5(i)", "36 blocks: each 5x5 component symmetric, charpoly == -quintic exactly")


def test_criterion_5ii_quintic_constant_terms():
    assert p5_coefficients(1, 1)[0] < 0
    assert p5_coefficients(2, 1)[0] == 0
    _report("5(ii)", "a0(1,1) < 0 and a0(2,1) = 0 exactly")


def test_criterion_5iii_descartes_certificate():
    rep = descartes_lemma_check(50, 50)
    assert rep.violations == ()
    assert rep.sturm_confirmed
    assert rep.checked == 50 * 50 - 2
    _report("5(iii)", f"{rep.checked} hypothesis labels pass the six sign conditions "
            "and Sturm confirms no nonpositive quintic root")


def test_criterion_5iv_index_11_nullity_18():
    led = legendre_index_nullity()
    assert (led.index, led.nullity) == (11, 18)
    assert led.index_split == (1, 6, 0, 4, 0)
    assert led.nullity_split == (4, 2, 8, 0, 4)
    _report("5(iv)", "index 1+6+0+4+0=11 and nullity 4+2+8+0+4=18 reproduced")


# -- criterion 6: reduced formulas ------------------------------------------------------

def test_criterion_6_reduced_formulas():
    rng = random.Random(2718)
    for _ in range(500):
        n = rng.randint(2, 40)
        radius = F(rng.randint(1, 15), rng.randint(1, 15))
        problem = ReducedProblem(n, radius)
        assert reduced_index_nullity(problem) == reduced_index_nullity_by_counting(problem)
    for j in range(1, 11):
        boundary = ReducedProblem(1 + j * j, 1)
        assert reduced_index_nullity(boundary) == (1 + 2 * (j - 1), 2)
    for _ in range(50):
        n = rng.randint(2, 20)
        radius = F(rng.randint(1, 9), rng.randint(1, 9))
        assert reduced_index_nullity(ReducedProblem(n, radius, b=F(1))) == (
            reduced_index_nullity(ReducedProblem(n, radius))
        )
    for k in range(1, 21):
        reduced = reduced_index_torus(k)
        assert reduced == (1 + 2 * (k - 1), 2)
        full = index_nullity(k)
        assert reduced[0] <= full.index
        assert reduced[1] <= full.nullity
    _report("6", "500 random rational problems + 10 boundaries + b=1 reduction + "
            "reduced torus under full values for k<=20")


# -- criterion 7: non-compact stability ----------------------------------------------------

def test_criterion_7_counterexample_and_certificate():
    value = counterexample_value()
    assert F(-3547, 1000) <= value <= F(-3527, 1000)
    count = 0
    for an in range(-8, 9):
        for bn in range(-8, 9):
            for cn in range(-17, 18):
                a, b, c = F(an, 2), F(bn, 2), F(cn, 3)
                if a == 0 and b == 0:
                    continue
                count += 1
                phase = CubicPhase(a, b, c)
                stable = is_strictly_stable(phase) is Stability.STABLE
                # the verdict reads the minimum of w; check it against the closed form
                assert stable == (a == 0 or b * b - 3 * a * c <= 0), (a, b, c)
    assert count >= 10_000
    _report("7 (certificate)", f"counterexample {float(value):.4f} in window; certificate "
            f"iff a = 0 or b^2 - 3ac <= 0 on {count} exact rational phases")


def test_criterion_7_hessian_positivity_and_parts_oracle():
    rng = random.Random(1618)
    stable_phases = [
        CubicPhase(F(0), F(1), F(0)),
        CubicPhase(F(1), F(0), F(1)),
        CubicPhase(F(1), F(1), F(1)),
        CubicPhase(F(-2), F(1), F(-1)),
        CubicPhase(F(0), F(-3), F(2)),
    ]
    for phase in stable_phases:
        assert is_strictly_stable(phase) is Stability.STABLE
    checked = 0
    for i in range(200):
        phase = stable_phases[i % len(stable_phases)]
        section = SectionPair(
            f1=random_polynomial_bump(rng) if i % 3 else None,
            f2=random_polynomial_bump(rng),
        )
        assert hessian_form(phase, section) > 0
        checked += 1
    oracle_checked = 0
    for i in range(50):
        phase = stable_phases[i % len(stable_phases)] if i % 2 else CubicPhase(
            F(1), F(0), F(-2)
        )
        section = SectionPair(
            f1=random_polynomial_bump(rng), f2=random_polynomial_bump(rng)
        )
        assert hessian_form(phase, section) == i2_pairing(phase, section), i
        oracle_checked += 1
    _report("7 (hessian)", f"{checked} stable-phase sections exactly positive; "
            f"{oracle_checked} integration-by-parts identities in Q[pi]")


# -- criterion 8: the Bessel nullity direction ----------------------------------------------

def test_criterion_8_bessel_direction():
    rep = bessel_nullity_check()
    assert all(d == 0 for d in rep.derivatives_at_zero)
    assert rep.ratio == 1 and rep.ratio_proved
    assert rep.fourth_derivative_normalized == rep.fourth_derivative_target
    assert float(rep.fourth_derivative_target) == 12 * math.pi
    _report("8", "derivatives at 0 vanish exactly; E'(t) = pi t - pi J1(4t)/2 at every order "
            f"(base t^3, term ratio {TERM_RATIO} on both sides); normalized 4th derivative "
            "is exactly 12pi")


# -- criterion 9: conformal diffeomorphism ---------------------------------------------------

def test_criterion_9_conformal_strict_positivity():
    rng = random.Random(314159)
    for _ in range(100):
        v = random_polynomial_bump(rng)
        assert conformal_hessian(v) > 0
    for _ in range(25):
        v = random_polynomial_bump(rng)
        a = F(rng.randint(1, 100), 10)
        assert conformal_hessian(scaled(v, a)) == a * a * conformal_hessian(v)
    _report("9", "100 random sections exactly positive; quadratic scaling exact")
