"""Reduced index/nullity, the conformal form, and the Bessel direction."""

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from bihindex.bumps import SIN, CosPowerBump, PolynomialBump, TrigPoly
from bihindex import reduced
from bihindex.exact import QPi
from bihindex.reduced import (
    BESSEL_ORDER,
    BesselNullityReport,
    DegenerateThresholdError,
    ReducedProblem,
    _integer_fourth_root_floor,
    bessel_nullity_check,
    bessel_rate_series,
    conformal_hessian,
    nullity_direction_energy_series,
    reduced_index_nullity,
    reduced_index_torus,
    reduced_spectrum,
)
from bihindex.torus import index_nullity

from oracles import bump_values, random_polynomial_bump, reduced_index_nullity_by_counting, scaled


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
    bump = PolynomialBump.make(0, 1, power=6)
    assert conformal_hessian(scaled(bump, 0)) == 0
    assert conformal_hessian(bump) == Fraction(583008256, 7436429)
    # the classical (1 - u^2)^4 profile, built directly
    v = PolynomialBump(center=0, halfwidth=1, ycoeffs=(1, 0, -4, 0, 6, 0, -4, 0, 1))
    assert conformal_hessian(v) > 0
    # on a cos-power bump the form lies in Q[pi]
    assert conformal_hessian(CosPowerBump(Fraction(1, 3), 6)).coeffs[1:] != ()


def test_conformal_hessian_positive_random():
    rng = random.Random(31)
    for _ in range(100):
        v = random_polynomial_bump(rng)
        assert conformal_hessian(v) > 0


def test_conformal_hessian_quadratic_scaling():
    rng = random.Random(8)
    for _ in range(20):
        v = random_polynomial_bump(rng)
        a = Fraction(rng.randint(2, 50), 10)
        assert conformal_hessian(scaled(v, a)) == a * a * conformal_hessian(v)


def test_conformal_hessian_matches_quadrature_oracle():
    rng = random.Random(9)
    for _ in range(10):
        v = random_polynomial_bump(rng)
        c, h = float(v.center), float(v.halfwidth)
        def integrand(u):
            return float(bump_values(v, u, 2) ** 2 + 4 * bump_values(v, u, 1) ** 2)

        direct, _ = quad(integrand, c - h, c + h, epsabs=0, epsrel=1e-12)
        assert float(conformal_hessian(v)) == pytest.approx(direct, rel=1e-9)


def test_j1_series():
    # pi t - pi J1(4t)/2 from the exact series, against scipy's J1
    from scipy.special import j1 as scipy_j1

    r = bessel_rate_series(41)
    assert r[:6] == (0, 0, 0, 2, 0, Fraction(-4, 3))
    for t in (0.01, 0.1, 0.3, 0.5):
        series = math.pi * sum(float(c) * t**i for i, c in enumerate(r))
        bessel = math.pi * t - math.pi * scipy_j1(4 * t) / 2
        assert series == pytest.approx(bessel, rel=1e-12, abs=1e-16)


def test_wallis_integrals_match_the_trig_algebra():
    # int_0^{2pi} sin^p = 2 int_{-pi/2}^{pi/2} sin^p, since sin^p has period pi up to sign
    sine = TrigPoly({(0, 1, SIN): Fraction(1)})
    power = TrigPoly.polynomial((1,))
    for p in range(0, 13):
        wallis = Fraction(math.comb(p, p // 2), 2**p) if p % 2 == 0 else 0  # times 2 pi
        assert 2 * power.integrate_half_period() == QPi((0, 2 * wallis)), p
        power = power * sine


def test_energy_even_and_rate_odd():
    e = nullity_direction_energy_series()
    assert len(e) == BESSEL_ORDER + 1
    assert all(c == 0 for c in e[1::2])  # E is even in t, so E' is odd
    assert e[0] == Fraction(1, 4)  # E(0) = pi/4 (the constant profile)
    F = Fraction
    assert e[:9] == (F(1, 4), 0, 0, 0, F(1, 2), 0, F(-2, 9), 0, F(1, 18))
    # against the defining integral, by scipy
    for t in (0.1, 0.3, 0.6):
        def integrand(theta):
            u = -t * math.sin(theta) - 0.5 * math.cos(2 * t * math.sin(theta))
            return 0.5 * u * u

        direct, _ = quad(integrand, 0.0, 2 * math.pi, epsabs=0, epsrel=1e-13, limit=200)
        series = math.pi * sum(float(c) * t**i for i, c in enumerate(e))
        assert series == pytest.approx(direct, rel=1e-12)


def test_small_t_series_of_rate():
    # E'(t) = 2 pi t^3 - (4 pi / 3) t^5 + O(t^7), from the alternating series
    e = nullity_direction_energy_series()
    assert tuple(i * c for i, c in enumerate(e) if i)[:6] == (0, 0, 0, 2, 0, Fraction(-4, 3))


def test_bessel_nullity_report(monkeypatch):
    rep = bessel_nullity_check()
    assert isinstance(rep, BesselNullityReport)
    assert rep.derivatives_at_zero == (QPi(), QPi(), QPi())
    assert rep.ratio_values == (1,) * 11  # t^3, t^5, ..., t^23
    assert (rep.ratio_mean, rep.ratio_spread) == (1, 0)
    assert rep.fourth_derivative_normalized == rep.fourth_derivative_target == QPi((0, 12))
    assert rep.all_ok
    # a wrong Bessel coefficient anywhere in the compared range fails the ratio check,
    # also where the right one is zero and so gives no ratio
    right = reduced.bessel_rate_series
    for i, wrong in ((19, Fraction(1, 10**9)), (0, Fraction(1))):
        def perturbed(order, i=i, wrong=wrong):
            r = right(order)
            return r[:i] + (r[i] + wrong,) + r[i + 1:]

        monkeypatch.setattr(reduced, "bessel_rate_series", perturbed)
        assert not bessel_nullity_check().ratio_ok, i
        assert not bessel_nullity_check().all_ok, i
