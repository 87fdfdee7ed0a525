"""Reduced index/nullity, the conformal form, and the Bessel direction."""

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from bihindex.bumps import SIN, CosPowerBump, PolynomialBump, TrigPoly
from bihindex import reduced
from bihindex.exact import QPi, Surd
from bihindex.reduced import (
    BesselNullityReport,
    ReducedProblem,
    _integer_fourth_root_floor,
    bessel_nullity_check,
    bessel_side_coefficient,
    conformal_hessian,
    energy_coefficient,
    reduced_index_nullity,
    reduced_index_torus,
)
from bihindex.torus import branch_multiplicity, eigenvalue, index_nullity, lambda_parts

from oracles import (
    bessel_rate_series,
    bump_values,
    nullity_direction_energy_series,
    random_polynomial_bump,
    reduced_index_nullity_by_counting,
    scaled,
)


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
    with pytest.raises(TypeError):
        ReducedProblem(2, 0.5)  # floats refused: the decision must be exact
    with pytest.raises(TypeError):
        ReducedProblem(2, 1, b=1.25)
    with pytest.raises(ValueError):
        ReducedProblem(2, "sqrt(2)")


def test_reduced_spectrum_structure():
    # the reduced eigenvalues are m^4 - c4, once at m = 0 and twice above it:
    # c4 = 1 puts m = 0 below zero and the pair m = 1 on it
    problem = ReducedProblem(2, 1)
    assert problem.quartic_constant() == 1
    assert reduced_index_nullity(problem) == reduced_index_nullity_by_counting(problem) == (1, 2)


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


def test_reduced_operator_is_the_torus_minus_branch_at_m_zero():
    # R(k, 0, n) - (k^4 + k^2 n^2)^2 and T(k, 0, n) - (k^4 + k^2 n^2) - 2(n^4 - k^4) are
    # polynomials of degree <= 8 in k and in n (lambda_parts is a polynomial of that
    # degree), so vanishing on a 9 x 9 grid proves them zero: sqrt R = k^4 + k^2 n^2
    # and lambda^- = (T - sqrt R)/2 = n^4 - k^4 for every (k, n)
    for k in range(9):
        for n in range(9):
            t, r = lambda_parts(k, 0, n)
            assert r == (k**4 + k * k * n * n) ** 2, (k, n)
            assert t - (k**4 + k * k * n * n) == 2 * (n**4 - k**4), (k, n)
    # so the reduced spectrum m^4 - k^4 (once at m = 0, twice above) is mu1 and the
    # minus branch at the labels (0, n), with the torus multiplicities; past n = k
    # every lambda^- is positive.  A changed c4 fails here against the torus blocks.
    for k in range(1, 21):
        signs = [(eigenvalue(k, 0, 0, "mu1").sign(), branch_multiplicity(0, 0))]
        for n in range(1, 3 * k):
            minus = eigenvalue(k, 0, n, "minus")
            assert minus == Surd(n**4 - k**4, 0), (k, n)
            signs.append((minus.sign(), branch_multiplicity(0, n)))
        negative = sum(mult for sign, mult in signs if sign < 0)
        zero = sum(mult for sign, mult in signs if sign == 0)
        assert reduced_index_torus(k) == (negative, zero), k


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
    sphere = ReducedProblem(2, 1)
    assert sphere.critical_cos_2alpha() == 0
    assert sphere.critical_latitude() == pytest.approx(math.pi / 4)
    for b, cos_2alpha in ((Fraction(1, 3), Fraction(-1, 2)), (Fraction(2), Fraction(1, 3)),
                          (Fraction(9), Fraction(4, 5))):
        problem = ReducedProblem(2, 1, b=b)
        assert problem.critical_cos_2alpha() == cos_2alpha
        assert type(problem.critical_cos_2alpha()) is Fraction
        alpha = problem.critical_latitude()
        assert 0 < alpha < math.pi / 2
        assert math.cos(2 * alpha) == pytest.approx(float(cos_2alpha))


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
    # pi t - pi J1(4t)/2 from the exact oracle series, against scipy's J1
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
    from scipy.special import j0 as scipy_j0

    e = nullity_direction_energy_series(24)
    assert all(c == 0 for c in e[1::2])  # E is even in t, so E' is odd
    assert e[0] == Fraction(1, 4)  # E(0) = pi/4 (the constant profile)
    F = Fraction
    assert e[:9] == (F(1, 4), 0, 0, 0, F(1, 2), 0, F(-2, 9), 0, F(1, 18))
    # the oracle series and the closed form against the defining integral, by scipy
    for t in (0.1, 0.3, 0.6):
        def integrand(theta):
            u = -t * math.sin(theta) - 0.5 * math.cos(2 * t * math.sin(theta))
            return 0.5 * u * u

        direct, _ = quad(integrand, 0.0, 2 * math.pi, epsabs=0, epsrel=1e-13, limit=200)
        series = math.pi * sum(float(c) * t**i for i, c in enumerate(e))
        closed = math.pi / 8 + math.pi * t * t / 2 + math.pi / 8 * scipy_j0(4 * t)
        assert series == pytest.approx(direct, rel=1e-12)
        assert closed == pytest.approx(direct, rel=1e-12)


def test_closed_form_matches_the_series_oracles():
    # E = pi/8 + pi t^2/2 + (pi/8) J0(4t) against the u-series, and i e_i against the
    # coefficient of t^(i-1) in t - J1(4t)/2, through t^60
    assert tuple(energy_coefficient(i) for i in range(61)) == nullity_direction_energy_series(60)
    rate = bessel_rate_series(59)
    assert tuple(i * energy_coefficient(i) for i in range(1, 61)) == rate
    assert all(bessel_side_coefficient(j) == rate[2 * j - 1] for j in range(1, 31))


def test_small_t_series_of_rate():
    # E'(t) = 2 pi t^3 - (4 pi / 3) t^5 + O(t^7), from the alternating series
    rate = tuple(i * energy_coefficient(i) for i in range(1, 7))
    assert rate == (0, 0, 0, 2, 0, Fraction(-4, 3))


def _j1_side(j, base=-4, shift=0):
    """bessel_side_coefficient with the base of its power or its second factorial changed."""
    return (1 if j == 1 else 0) - Fraction(
        base ** (j - 1), math.factorial(j - 1) * math.factorial(j + shift))


def test_bessel_nullity_report(monkeypatch):
    rep = bessel_nullity_check()
    assert isinstance(rep, BesselNullityReport)
    assert rep.derivatives_at_zero == (QPi(), QPi(), QPi())
    assert (rep.ratio, rep.ratio_proved) == (1, True)
    assert rep.fourth_derivative_normalized == rep.fourth_derivative_target == QPi((0, 12))
    assert rep.all_ok
    assert all(_j1_side(j) == bessel_side_coefficient(j) for j in range(1, 30))
    # a J1-side term with a changed base or factorial fails the proof, and so do a
    # slightly wrong coefficient that the proof evaluates and a wrong coefficient of t,
    # where both sides are zero and give no term ratio
    right = reduced.bessel_side_coefficient
    wrong_sides = [
        lambda j: _j1_side(j, base=4),
        lambda j: _j1_side(j, base=-2),
        lambda j: _j1_side(j, shift=1),
        lambda j: _j1_side(j, shift=-1),
        lambda j: right(j) + (j == 5) * Fraction(1, 10**9),
        lambda j: right(j) + (j == 1),
    ]
    for i, wrong in enumerate(wrong_sides):
        monkeypatch.setattr(reduced, "bessel_side_coefficient", wrong)
        assert not bessel_nullity_check().ratio_proved, i
        assert not bessel_nullity_check().all_ok, i
