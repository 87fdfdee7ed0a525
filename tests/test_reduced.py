"""Reduced index/nullity, the conformal form, and the Bessel direction."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bihindex.bumps import PolynomialBump, random_polynomial_bump
from bihindex.reduced import (
    BesselNullityReport,
    DegenerateThresholdError,
    ReducedProblem,
    _integer_fourth_root_floor,
    bessel_nullity_check,
    conformal_hessian,
    j1,
    nullity_direction_energy,
    nullity_direction_energy_rate,
    reduced_index_nullity,
    reduced_index_torus,
    reduced_spectrum,
)
from bihindex.torus import index_nullity

from oracles import reduced_index_nullity_by_counting


def test_sphere_examples():
    assert reduced_index_nullity(ReducedProblem(2, 1)) == (1, 2)    # threshold 1
    assert reduced_index_nullity(ReducedProblem(5, 1)) == (3, 2)    # threshold 2
    assert reduced_index_nullity(ReducedProblem(3, 1)) == (3, 0)    # sqrt(2) irrational
    assert reduced_index_nullity(ReducedProblem(2, Fraction(1, 3))) == (5, 2)


def test_ellipsoid_b1_reduces_to_sphere():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 12)
        radius = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        sphere = ReducedProblem(n, radius)
        ellips = ReducedProblem(n, radius, b=Fraction(1))
        assert sphere.quartic_constant() == ellips.quartic_constant()
        assert reduced_index_nullity(sphere) == reduced_index_nullity(ellips)


def test_floor_formula_against_counting():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(2, 30)
        radius = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        problem = ReducedProblem(n, radius)
        assert reduced_index_nullity(problem) == reduced_index_nullity_by_counting(problem)
        if rng.random() < 0.5:
            b = Fraction(rng.randint(1, 10), rng.randint(1, 10))
            pe = ReducedProblem(n, radius, b=b)
            assert reduced_index_nullity(pe) == reduced_index_nullity_by_counting(pe)


def test_boundary_integrality_cases():
    # thresholds exactly j = 1..10: n = 1 + (j R)^2 with R = 1
    for j in range(1, 11):
        problem = ReducedProblem(1 + j * j, 1)
        assert reduced_index_nullity(problem) == (1 + 2 * (j - 1), 2)
    # rational radius boundaries: R = 1/2, threshold j means n - 1 = j^2/4
    for j in (2, 4, 6):
        problem = ReducedProblem(1 + j * j // 4, Fraction(1, 2))
        assert reduced_index_nullity(problem) == (1 + 2 * (j - 1), 2)
    # just off the boundary the nullity drops to zero and the floor steps
    assert reduced_index_nullity(ReducedProblem(2, Fraction(999, 1000))) == (3, 0)
    assert reduced_index_nullity(ReducedProblem(2, Fraction(1001, 1000))) == (1, 0)


def test_integer_fourth_root_floor():
    # t is the largest integer with t^4 <= x; exact iff t^4 == x, at any size
    rng = random.Random(4)
    for _ in range(300):
        x = Fraction(rng.randrange(1, 10 ** rng.randrange(1, 400)), rng.randrange(1, 10**6))
        t, exact = _integer_fourth_root_floor(x)
        assert t**4 <= x < (t + 1) ** 4
        assert exact == (t**4 == x)
    assert _integer_fourth_root_floor(Fraction(3**400)) == (3**100, True)
    assert _integer_fourth_root_floor(Fraction(3**400 - 1)) == (3**100 - 1, False)
    assert _integer_fourth_root_floor(Fraction(1, 2)) == (0, False)


def test_irrational_inputs_rejected():
    with pytest.raises(DegenerateThresholdError):
        ReducedProblem(2, 0.5)  # floats refused: the decision must be exact
    with pytest.raises(DegenerateThresholdError):
        ReducedProblem(2, 1, b=1.25)
    with pytest.raises(DegenerateThresholdError):
        ReducedProblem(2, "sqrt(2)")


def test_reduced_spectrum_structure():
    problem = ReducedProblem(2, 1)
    entries = reduced_spectrum(problem, 4)
    assert [e.multiplicity for e in entries] == [1, 2, 2, 2, 2]
    eigs = [e.eigenvalue for e in entries]
    assert eigs == sorted(eigs)
    assert eigs[0] == -1 and eigs[1] == 0


def test_reduced_torus():
    assert reduced_index_torus(1) == (1, 2)
    assert reduced_index_torus(4) == (7, 2)
    for k in range(1, 21):
        assert reduced_index_torus(k) == (1 + 2 * (k - 1), 2)


def test_reduced_bounded_by_full():
    for k in range(1, 13):
        ridx, rnul = reduced_index_torus(k)
        full = index_nullity(k)
        assert ridx <= full.index
        assert rnul <= full.nullity


def test_ellipsoid_large_and_small_b():
    # large flattening stabilises down to reduced index 1 ...
    for b in (16, 20, 100, 1000):
        assert reduced_index_nullity(ReducedProblem(2, 1, b=Fraction(b)))[0] == 1
    # ... and the index grows without bound as b -> 0+
    indices = [
        reduced_index_nullity(ReducedProblem(2, 1, b=Fraction(1, 10**i)))[0]
        for i in range(0, 5)
    ]
    assert indices == sorted(indices)
    assert indices[-1] > indices[0] > 0
    assert indices[-1] > 20


def test_critical_latitude():
    assert ReducedProblem(2, 1).critical_latitude() == pytest.approx(math.pi / 4)
    for b in (Fraction(1, 3), Fraction(2), Fraction(9)):
        alpha = ReducedProblem(2, 1, b=b).critical_latitude()
        assert 0 < alpha < math.pi / 2
        assert math.cos(2 * alpha) == pytest.approx(float((b - 1) / (b + 1)))


def test_conformal_hessian_zero_and_bump():
    bump = PolynomialBump.make(0.0, 1.0, power=6)
    assert conformal_hessian(bump.scaled(0.0)) == 0.0
    # the classical (1 - u^2)^4 profile, built directly
    quartic = np.array([1.0])
    for _ in range(4):
        quartic = np.convolve(quartic, [1.0, 0.0, -1.0])
    v = PolynomialBump(center=0.0, halfwidth=1.0, ycoeffs=tuple(quartic))
    assert conformal_hessian(v) > 0


def test_conformal_hessian_positive_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = random_polynomial_bump(rng)
        assert conformal_hessian(v) > 0


def test_conformal_hessian_quadratic_scaling():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = random_polynomial_bump(rng)
        a = float(rng.uniform(0.2, 5.0))
        h1 = conformal_hessian(v)
        ha = conformal_hessian(v.scaled(a))
        assert ha == pytest.approx(a * a * h1, rel=1e-8)


def test_j1_series():
    assert j1(0.0) == 0.0
    for x in (1e-8, 1e-6, 1e-4):
        assert j1(x) == pytest.approx(x / 2, rel=1e-6)
    # against scipy's implementation across the working range
    from scipy.special import j1 as scipy_j1

    for x in np.linspace(-10, 10, 81):
        assert j1(float(x)) == pytest.approx(float(scipy_j1(x)), abs=1e-13)
    with pytest.raises(ValueError):
        j1(11.0)


def test_energy_even_and_rate_odd():
    for t in (0.07, 0.19):
        assert nullity_direction_energy(t) == pytest.approx(
            nullity_direction_energy(-t), rel=1e-12
        )
        assert nullity_direction_energy_rate(t) == pytest.approx(
            -nullity_direction_energy_rate(-t), rel=1e-10
        )
    # E(0) = pi/4 exactly (the constant profile)
    assert nullity_direction_energy(0.0) == pytest.approx(math.pi / 4, rel=1e-12)


def test_small_t_series_of_rate():
    # E'(t) = 2 pi t^3 - (4 pi / 3) t^5 + O(t^7), from the alternating series
    for t in (0.02, 0.04, 0.08):
        series = 2 * math.pi * t**3 - (4 * math.pi / 3) * t**5
        assert nullity_direction_energy_rate(t) == pytest.approx(
            series, abs=40 * t**7
        )


def test_bessel_nullity_report():
    rep = bessel_nullity_check()
    assert isinstance(rep, BesselNullityReport)
    d1, d2, d3 = rep.derivatives_at_zero
    assert abs(d1) < 1e-6 and abs(d2) < 1e-6 and abs(d3) < 1e-6
    assert rep.ratio_spread < 1e-4
    assert rep.fourth_derivative_normalized == pytest.approx(12 * math.pi, rel=0.01)
    assert rep.all_ok
