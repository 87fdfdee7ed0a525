"""Cubic-phase lines: the stability certificate, quadratic form, counterexample."""

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from bihindex.bumps import CosPowerBump, PolynomialBump, TrigPoly
from bihindex.exact import QPi
from bihindex.noncompact import (
    COUNTEREXAMPLE_PHASE,
    CubicPhase,
    NotProperError,
    SectionPair,
    Stability,
    counterexample_value,
    hessian_form,
    integrand_min,
    is_strictly_stable,
)

from oracles import (
    bump_values,
    curvature_integrand,
    i2_pairing,
    i2_sections,
    random_polynomial_bump,
)

F = Fraction

# the counterexample in closed form, by an independent symbolic computation
COUNTEREXAMPLE = QPi((
    0, F(186219151800876019, 31457280000000), 0, F(-51211696647251, 52428800000),
    0, F(122923067211, 2621440000), 0, F(-12587751, 13107200), 0, F(2079, 262144),
))


def test_certificate_examples():
    assert is_strictly_stable(CubicPhase(F(0), F(1), F(0), F(0))) is Stability.STABLE
    assert is_strictly_stable(CubicPhase(F(1), F(0), F(1), F(0))) is Stability.STABLE
    assert CubicPhase(F(1), F(0), F(1)).b ** 2 - 3 * F(1) * F(1) == -3
    assert is_strictly_stable(CubicPhase(F(1), F(0), F(-2), F(0))) is Stability.NOT_CERTIFIED
    # on the boundary b^2 = 3ac the minimum of w is exactly 0, still certified
    assert integrand_min(CubicPhase(F(1), F(3), F(3), F(0))) == 0
    assert is_strictly_stable(CubicPhase(F(1), F(3), F(3), F(0))) is Stability.STABLE


def test_not_proper_rejected():
    with pytest.raises(NotProperError):
        CubicPhase(F(0), F(0), F(1), F(5))


def test_integrand_min_examples():
    assert integrand_min(CubicPhase(F(1), F(0), F(-2), F(7))) == -24
    for b in (F(1), F(-3), F(5, 2)):
        assert integrand_min(CubicPhase(F(0), b, F(9), F(1))) == 4 * b * b


def test_integrand_min_is_attained_minimum():
    rng = random.Random(77)
    for _ in range(60):
        a = F(rng.randint(-5, 5), rng.randint(1, 4))
        b = F(rng.randint(-5, 5), rng.randint(1, 4))
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        if a == 0 and b == 0:
            continue
        phase = CubicPhase(a, b, c)
        wmin = integrand_min(phase)
        # dense rational sampling never goes below the closed-form minimum
        samples = [curvature_integrand(phase, F(g, 4)) for g in range(-400, 401)]
        assert min(samples) >= wmin
        # and the minimum is attained exactly at the rational vertex
        if a != 0:
            assert curvature_integrand(phase, -b / (3 * a)) == wmin
        else:
            assert samples[400] == wmin  # constant in gamma when a = 0


def test_certificate_iff_min_nonnegative_grid():
    # the verdict reads integrand_min, so the grid checks it against the closed
    # form; small exact grid here, the acceptance suite runs the 10^4-point version
    count = 0
    for an in range(-5, 6):
        for bn in range(-5, 6):
            for cn in range(-5, 6):
                a, b, c = F(an), F(bn), F(cn, 2)
                if a == 0 and b == 0:
                    continue
                count += 1
                phase = CubicPhase(a, b, c)
                stable = is_strictly_stable(phase) is Stability.STABLE
                assert stable == (a == 0 or b * b - 3 * a * c <= 0)
    assert count > 1000


def test_hessian_zero_section():
    assert hessian_form(COUNTEREXAMPLE_PHASE, SectionPair()) == 0


def test_hessian_tangential_only_positive():
    rng = random.Random(5)
    phase = CubicPhase(F(1), F(0), F(-2))
    for _ in range(10):
        f1 = random_polynomial_bump(rng)
        val = hessian_form(phase, SectionPair(f1=f1))
        assert val > 0  # pure (f1'')^2 integral
        assert val.coeffs[1:] == ()  # rational on a polynomial bump


def test_counterexample_value():
    val = counterexample_value()
    assert val == COUNTEREXAMPLE
    assert F(-3547, 1000) <= val <= F(-3527, 1000)
    # the terms cancel by about 10^3, so the float comes from an enclosure of pi
    assert float(val) == -3.5370641409743477
    assert float(val) != sum(float(c) * math.pi**k for k, c in enumerate(val.coeffs))


def _support(bump):
    half = math.pi / 2 if isinstance(bump, CosPowerBump) else float(bump.halfwidth)
    return float(bump.center) - half, float(bump.center) + half


def _phase_floats(phase, g):
    a, b, c = float(phase.a), float(phase.b), float(phase.c)
    return 3 * a * g * g + 2 * b * g + c, 6 * a * g + 2 * b, 6 * a


def test_counterexample_integrand_formula():
    # the expanded integrand of the counterexample, integrated by scipy
    def integrand(g):
        c = math.cos(g)
        s = math.sin(g)
        term1 = (36 * g**2 + 12 * (3 * g**2 - 2)) * c**12
        term2 = ((3 * g**2 - 2) ** 2 * c**6 - 6 * c**6 + 30 * s**2 * c**4) ** 2
        return term1 + term2

    direct, _ = quad(integrand, -math.pi / 2, math.pi / 2, epsabs=0, epsrel=1e-13, limit=200)
    assert float(counterexample_value()) == pytest.approx(direct, rel=1e-10)


def test_hessian_matches_quadrature_oracle():
    # float sections from oracles.bump_values, integrated by scipy; the exact
    # value is rendered through its enclosure of pi
    rng = random.Random(17)
    for trial in range(12):
        phase = CubicPhase(F(rng.randint(-3, 3)), F(rng.randint(1, 3)), F(rng.randint(-3, 3), 2))
        f1 = random_polynomial_bump(rng)
        f2 = (random_polynomial_bump(rng) if trial % 2
              else CosPowerBump(F(rng.randint(-16, 16), 8), 6))

        def integrand(g):
            ap, app, appp = _phase_floats(phase, g)
            v1 = bump_values(f1, g, 2)
            f, f2dd = bump_values(f2, g, 0), bump_values(f2, g, 2)
            return float(v1**2 + (f2dd + ap * ap * f) ** 2 + (app * app + 2 * appp * ap) * f * f)

        edges = sorted({*_support(f1), *_support(f2)})
        direct = sum(quad(integrand, lo, hi, epsabs=0, epsrel=1e-12, limit=200)[0]
                     for lo, hi in zip(edges, edges[1:]))
        exact = hessian_form(phase, SectionPair(f1=f1, f2=f2))
        assert float(exact) == pytest.approx(direct, rel=1e-9), trial


def test_i2_sections_tangential_only():
    rng = random.Random(3)
    f1 = random_polynomial_bump(rng)
    phase = CubicPhase(F(2), F(1), F(0))
    tangential, normal = i2_sections(phase, SectionPair(f1=f1))
    assert tangential == f1.profile().derivative(4)
    assert normal == TrigPoly()


def _random_section(rng):
    f2 = (random_polynomial_bump(rng) if rng.random() < 0.5
          else CosPowerBump(F(rng.randint(-16, 16), 8), 2 * rng.randint(3, 4)))
    return SectionPair(f1=random_polynomial_bump(rng) if rng.random() < 0.7 else None, f2=f2)


def test_integration_by_parts_oracle():
    # the boundary terms vanish, so the two forms are the same element of Q[pi]
    rng = random.Random(21)
    for trial in range(50):
        a = F(rng.randint(-3, 3), rng.randint(1, 3))
        b = F(rng.randint(-3, 3), rng.randint(1, 3))
        c = F(rng.randint(-3, 3))
        if a == 0 and b == 0:
            a = F(1)
        phase = CubicPhase(a, b, c)
        section = _random_section(rng)
        assert hessian_form(phase, section) == i2_pairing(phase, section), trial


def test_stable_phase_hessian_positive_sample():
    rng = random.Random(14)
    stable_phases = [
        CubicPhase(F(0), F(1), F(0)),
        CubicPhase(F(1), F(0), F(1)),
        CubicPhase(F(1), F(1), F(1)),
        CubicPhase(F(2), F(-1), F(3)),
    ]
    for phase in stable_phases:
        assert is_strictly_stable(phase) is Stability.STABLE
        for _ in range(8):
            assert hessian_form(phase, _random_section(rng)) > 0


def test_hessian_polarization_identity():
    rng = random.Random(42)
    phase = CubicPhase(F(1), F(1), F(1))

    def combine(u, v, sign):
        assert (u.center, u.halfwidth) == (v.center, v.halfwidth)
        width = max(len(u.ycoeffs), len(v.ycoeffs))
        out = [F(0)] * width
        for i, c in enumerate(u.ycoeffs):
            out[i] += c
        for i, c in enumerate(v.ycoeffs):
            out[i] += sign * c
        return PolynomialBump(u.center, u.halfwidth, tuple(out))

    for _ in range(6):
        w1 = tuple(F(rng.randint(-20, 20), 10) for _ in range(3))
        w2 = tuple(F(rng.randint(-20, 20), 10) for _ in range(2))
        u = PolynomialBump.make(F(3, 10), F(17, 10), power=6, weights=w1)
        v = PolynomialBump.make(F(3, 10), F(17, 10), power=6, weights=w2)
        hu = hessian_form(phase, SectionPair(f2=u))
        hv = hessian_form(phase, SectionPair(f2=v))
        hplus = hessian_form(phase, SectionPair(f2=combine(u, v, +1)))
        hminus = hessian_form(phase, SectionPair(f2=combine(u, v, -1)))
        assert hplus + hminus == 2 * hu + 2 * hv


def test_cos_power_bump_regularity():
    # cos^6 is C^5 across x = +-pi/2: derivatives 0..5 vanish there, the 6th does not
    profile = CosPowerBump(center=F(0), power=6).profile()
    for side in (1, -1):
        for r in range(6):
            assert profile.derivative(r).at_half_pi(side) == 0, (side, r)
        assert profile.derivative(6).at_half_pi(side) == 720
