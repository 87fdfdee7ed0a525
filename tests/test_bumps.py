"""The exact algebra of polynomials times cosines and sines, and the bumps in it."""

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from bihindex.bumps import COS, SIN, CosPowerBump, PolynomialBump, TrigPoly

F = Fraction


def value(p: TrigPoly, x: float) -> float:
    """p at a float x, term by term."""
    return sum(
        float(c) * x**k * (math.cos(w * x) if trig == COS else math.sin(w * x))
        for (k, w, trig), c in p.terms.items()
    )


def random_trig_poly(rng: random.Random, size: int = 4) -> TrigPoly:
    out = TrigPoly()
    for _ in range(size):
        trig = rng.choice((COS, SIN))
        w = rng.randint(trig, 4)  # sin(0 x) is zero, so SIN starts at w = 1
        c = F(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        out = out + TrigPoly({(rng.randint(0, 3), w, trig): c})
    return out


def test_algebra_against_float_values():
    rng = random.Random(2)
    for _ in range(40):
        p, q = random_trig_poly(rng), random_trig_poly(rng)
        for x in (-1.3, -0.2, 0.7, 1.5):
            assert value(p + q, x) == pytest.approx(value(p, x) + value(q, x), abs=1e-9)
            assert value(p * -1, x) == pytest.approx(-value(p, x), abs=1e-9)
            assert value(p * q, x) == pytest.approx(value(p, x) * value(q, x), abs=1e-9)
            h = 1e-5
            slope = (value(p, x + h) - value(p, x - h)) / (2 * h)
            assert value(p.derivative(), x) == pytest.approx(slope, abs=1e-5)


def test_antiderivative_and_half_period_integral():
    rng = random.Random(3)
    for _ in range(40):
        p = random_trig_poly(rng)
        assert p.antiderivative().derivative() == p
        assert float(p.at_half_pi(1)) == pytest.approx(value(p, math.pi / 2), abs=1e-9)
        assert float(p.at_half_pi(-1)) == pytest.approx(value(p, -math.pi / 2), abs=1e-9)
        direct, _ = quad(lambda x: value(p, x), -math.pi / 2, math.pi / 2, epsabs=1e-12)
        assert float(p.integrate_half_period()) == pytest.approx(direct, abs=1e-9)


def test_rational_integral():
    p = TrigPoly.polynomial((1, F(1, 2), 0, 3))  # 1 + x/2 + 3x^3
    assert p.integrate(F(-1), F(2)) == 3 + F(1, 4) * 3 + F(3, 4) * 15
    assert TrigPoly().integrate(F(0), F(1)) == 0
    with pytest.raises(ValueError):
        TrigPoly({(0, 2, COS): F(1)}).integrate(F(0), F(1))


def test_normal_form():
    # sin(0 x) is zero, cos(-w x) = cos(w x), sin(-w x) = -sin(w x), and cancelled terms vanish
    s = TrigPoly({(1, 3, SIN): F(1)})
    c = TrigPoly({(0, 2, COS): F(1)})
    assert s * c == TrigPoly({(1, 5, SIN): F(1, 2), (1, 1, SIN): F(1, 2)})
    assert c * s == s * c
    assert s + s * -1 == TrigPoly() and (s * 0).terms == {}
    assert c * c == TrigPoly({(0, 0, COS): F(1, 2), (0, 4, COS): F(1, 2)})


def test_bump_profiles():
    bump = PolynomialBump.make(F(1, 2), F(3, 2), power=5, weights=(1, F(1, 3)))
    x = 0.4
    y = x / 1.5
    assert value(bump.profile(), x) == pytest.approx((1 - y * y) ** 5 * (1 + y / 3))
    assert value(CosPowerBump(F(-1), 8).profile(), x) == pytest.approx(math.cos(x) ** 8)


def test_bump_data_must_be_exact():
    with pytest.raises(TypeError):
        PolynomialBump.make(0.5, 1)
    with pytest.raises(TypeError):
        CosPowerBump(0.25, 6)
    with pytest.raises(ValueError):
        PolynomialBump.make(0, 1, power=4)
    with pytest.raises(ValueError):
        PolynomialBump.make(0, 0)
    with pytest.raises(ValueError):
        CosPowerBump(0, 7)
