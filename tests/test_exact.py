"""Exact scalar layer: ring axioms, surd signs, exact comparisons, Q[pi]."""

import math
import random
from fractions import Fraction

import pytest

from bihindex.exact import (
    QPi,
    QuadExt,
    Surd,
    pi_enclosure,
    sign_p_plus_q_sqrt,
    sign_two_radicals,
)
from bihindex.torus import spectrum


def test_quadext_products():
    assert QuadExt(1, 1) * QuadExt(1, -1) == QuadExt(-1, 0)
    assert QuadExt(0, 1) * QuadExt(0, 1) == QuadExt(2, 0)
    assert QuadExt(3, 2) * QuadExt(3, -2) == QuadExt(1, 0)  # unit of the ring


def test_quadext_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(300):
        x = QuadExt(rng.randint(-50, 50), rng.randint(-50, 50))
        y = QuadExt(rng.randint(-50, 50), rng.randint(-50, 50))
        z = QuadExt(rng.randint(-50, 50), rng.randint(-50, 50))
        # the defining multiplication rule
        assert x * y == QuadExt(x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_quadext_huge_magnitudes():
    big = 10**40
    x = QuadExt(big, big - 1)
    y = x * x
    assert y.a == big * big + 2 * (big - 1) ** 2
    assert y.b == 2 * big * (big - 1)


def test_surd_sign_examples():
    assert Surd(-1, 1, 2).sign() == 0          # (-1 + sqrt(1)) / 2
    assert Surd(16, 1088, 2, -1).sign() == -1  # (16 - sqrt(1088)) / 2
    assert Surd(0, 0, 2).sign() == 0           # (0 + sqrt(0)) / 2
    assert Surd(-3, 8, 5).sign() == -1
    assert Surd(-3, 10, 5).sign() == 1


def test_surd_sign_rule_negative_p():
    # with q > 0, s > 0 and the minus branch: negative whenever p <= 0,
    # otherwise decided by p^2 - s
    assert Surd(0, 2, 1, -1).sign() == -1
    assert Surd(2, 3, 1, -1).sign() == 1
    assert Surd(2, 4, 1, -1).sign() == 0
    assert Surd(2, 5, 1, -1).sign() == -1


def test_surd_equality_across_representations():
    # (6 - sqrt(528)) / 2 == (3 - sqrt(132)) / 1
    assert Surd(6, 528, 2, -1) == Surd(3, 132, 1, -1)
    # (-20 + sqrt(528)) / 16 == (-5 + sqrt(33)) / 4
    assert Surd(-20, 528, 16) == Surd(-5, 33, 4)
    assert Surd(7, 0, 2) == Fraction(7, 2)
    assert Surd(7, 0, 2) != Fraction(5, 2)


def test_surd_ordering_against_floats():
    rng = random.Random(11)
    for _ in range(500):
        a = Surd(rng.randint(-40, 40), rng.randint(0, 1600), rng.randint(1, 20),
                 rng.choice((1, -1)))
        b = Surd(rng.randint(-40, 40), rng.randint(0, 1600), rng.randint(1, 20),
                 rng.choice((1, -1)))
        fa, fb = float(a), float(b)
        if abs(fa - fb) > 1e-6:
            assert (a < b) == (fa < fb), (a, b)
            assert (a > b) == (fa > fb)


def test_surd_floor_is_exact():
    # every radicand up to 400, squares among them, on both branches: the
    # floor n is the integer with n <= value < n + 1, by exact comparisons
    for s in range(401):
        for p in range(-25, 26, 3):
            for q in (1, 2, 5, 7):
                for branch in (1, -1):
                    v = Surd(p, s, q, branch)
                    n = math.floor(v)
                    assert isinstance(n, int) and not v < n and v < n + 1, v
    big = Surd(-(10**40), 10**80 + 1, 3, -1)  # (-10^40 - sqrt(10^80 + 1)) / 3
    assert math.floor(big) == (-2 * 10**40 - 1) // 3


def test_sign_primitives_brute_force():
    rng = random.Random(3)
    for _ in range(2000):
        p, q = rng.randint(-30, 30), rng.randint(-30, 30)
        s = rng.randint(0, 900)
        got = sign_p_plus_q_sqrt(p, q, s)
        val = p + q * math.sqrt(s)
        if abs(val) > 1e-9:
            assert got == (1 if val > 0 else -1)
        else:
            assert got == 0 or abs(val) < 1e-9
    # s = 0, t = 0 and radicands sharing a squarefree part are drawn often,
    # and a cancels the rational part half the time, so exact zeros occur.
    # 1 and sqrt(r) for distinct squarefree r > 1 are linearly independent
    # over Q, so the value is 0 exactly when each r's coefficient is 0.
    zeros = 0
    for _ in range(3000):
        shared = rng.choice((1, 2, 3))
        s, t = (rng.choice((0, 0, shared * rng.randint(1, 4) ** 2, rng.randint(0, 120)))
                for _ in "st")
        b, c = rng.randint(-9, 9), rng.randint(-9, 9)
        parts: dict[int, int] = {}  # squarefree radicand -> its coefficient
        for coeff, radicand in ((b, s), (c, t)):
            if radicand:  # radicand = u^2 r, r squarefree, as radicand <= 120 < 11^2
                u = max(d for d in range(1, 11) if radicand % (d * d) == 0)
                r = radicand // (u * u)
                parts[r] = parts.get(r, 0) + coeff * u
        a = -parts.get(1, 0) if rng.random() < 0.5 else rng.randint(-20, 20)
        parts[1] = parts.get(1, 0) + a
        got = sign_two_radicals(a, b, s, c, t)
        val = a + b * math.sqrt(s) + c * math.sqrt(t)
        if not any(parts.values()):
            assert got == 0, (a, b, s, c, t)
            zeros += 1
        else:
            assert abs(val) > 1e-9 and got == (1 if val > 0 else -1), (a, b, s, c, t)
    assert zeros > 300


def test_surd_validation():
    with pytest.raises(ValueError):
        Surd(1, -1, 1)
    with pytest.raises(ZeroDivisionError):
        Surd(1, 1, 0)
    with pytest.raises(ValueError, match="branch must be"):
        Surd(1, 2, 1, 0)
    with pytest.raises(ValueError, match="negative radicand"):
        sign_p_plus_q_sqrt(1, 1, -1)
    # negative denominators are normalised away
    v = Surd(1, 2, -3, 1)
    assert v.q == 3 and v.p == -1 and v.branch == -1


# pi to 100 decimals, written out independently of the package
PI_100 = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749445923078164062862"
    "089986280348253421170679"
)


@pytest.mark.parametrize("k", [1000, 10**6, 10**12, 10**77 - 1])
def test_surd_floats_match_a_256_bit_reference(k):
    # lambda^+ = (T + sqrt(R))/2 with T near -sqrt(R) cancels every digit of
    # a float sqrt (at k = 10^12 all 21 positive eigenvalues came out 0.0), and
    # math.sqrt(R) overflows from k ~ 3.4e38; the reference carries 256 bits
    # of sqrt(s), and no eigenvalue is small enough for them to matter
    for e in spectrum(k, 20):
        v = e.eigenvalue
        ref = Fraction(v.p * 2**256 + v.branch * math.isqrt(v.s << 512), v.q * 2**256)
        assert abs(Fraction(float(v)) - ref) <= abs(ref) / 2**50, (k, v)


def test_pi_enclosure_contains_pi():
    for n in (1, 2, 10, 16, 32, 64):
        lo, hi = pi_enclosure(n)
        assert hi - lo == Fraction(1, 16**n)
        # PI_100 is within 10^-100 of pi, far inside the gaps at these precisions
        assert lo < PI_100 < hi, n
    lo, hi = pi_enclosure(300)
    assert lo < hi < lo + Fraction(1, 10**360)


def test_qpi_arithmetic_and_equality():
    pi = QPi((0, 1))
    assert QPi((1, 2, 0, 0)).coeffs == (1, 2)  # trailing zeros dropped
    assert QPi((0, 0, 1)) - pi * 3 + 2 == QPi((2, -3, 1))
    assert (pi + Fraction(1, 2)) * 4 == 4 * QPi((Fraction(1, 2), 1)) == QPi((2, 4))
    assert 1 + pi * -1 == -1 * (pi - 1)
    assert QPi() == 0 and QPi((5,)) == 5 and pi != 3 and pi != "pi"


def test_qpi_signs_and_order():
    pi = QPi((0, 1))
    assert QPi().sign() == 0 and QPi((-2,)).sign() == -1
    assert (pi - Fraction(355, 113)).sign() == -1  # 355/113 exceeds pi by 2.7e-7
    assert (pi - Fraction(103993, 33102)).sign() == 1  # and 103993/33102 falls short by 5.8e-10
    assert (QPi((0, 0, 1)) - Fraction(98696044010893586188, 10**19)).sign() == 1  # pi^2
    assert Fraction(314, 100) < pi < Fraction(315, 100)
    assert pi <= pi and pi >= pi
    # within 10^-40 of zero, where the first enclosures straddle 0 and must be refined
    near = Fraction(int(PI_100 * 10**40), 10**40)  # pi truncated to 40 decimals
    assert (pi - near).sign() == 1 and (pi - near - Fraction(1, 10**40)).sign() == -1
    assert float(pi - near) == float(PI_100 - near)


def test_qpi_sign_sees_a_minimum_inside_the_enclosure():
    # (pi - q)^2 - delta, with q within 16^-64 of pi and delta far above that
    # square, is negative; its minimum lies at q, inside the first enclosure of
    # pi, so evaluating only at the enclosure's ends would give +1
    q = pi_enclosure(64)[0]
    delta = (pi_enclosure(16)[0] - q) ** 2 / 2
    assert QPi((q * q - delta, -2 * q, 1)).sign() == -1


def test_qpi_floats_are_correctly_rounded():
    pi = QPi((0, 1))
    assert float(pi) == math.pi
    assert float(QPi()) == 0.0 and float(QPi((Fraction(1, 3),))) == 1 / 3
    rng = random.Random(11)
    for _ in range(100):
        x = QPi(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for _ in range(5))
        value = sum(c * PI_100**k for k, c in enumerate(x.coeffs))
        assert float(x) == float(value)
    # cancellation: the float of each term, summed, is off; the enclosure is not
    near = pi * 10**6 - Fraction(3141592653589793, 10**9)
    assert float(near) == float(PI_100 * 10**6 - Fraction(3141592653589793, 10**9))
    with pytest.raises(OverflowError):
        float(pi * 10**400)


def test_qpi_str():
    assert str(QPi()) == "0"
    assert str(QPi((Fraction(1, 3),))) == "1/3"
    assert str(QPi((Fraction(1, 3), -1, 0, Fraction(-2, 7)))) == "-2/7*pi^3 - 1*pi + 1/3"
    assert str(QPi((0, 12))) == "12*pi"
