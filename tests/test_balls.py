import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burauforge import balls
from burauforge.balls import ComplexBall, embed, pi_bounds, unit_turn
from burauforge.cyclotomic import CyclotomicNumber, root_of_unity

PI_REF = Fraction("3.14159265358979323846264338327950288419716939937510582097")


def test_pi_enclosure():
    lo, hi = pi_bounds(60)
    assert lo < PI_REF < hi
    assert hi - lo < Fraction(1, 2 ** 60)


def test_embed_examples():
    b = embed(root_of_unity(4, 1), 1, 30)
    assert b.rad <= Fraction(1, 2 ** 30)
    assert abs(float(b.re)) < 1e-8 and abs(float(b.im) - 1) < 1e-8

    b = embed(CyclotomicNumber.from_rational(-1), 1, 10)
    assert b.re == -1 and b.im == 0 and b.rad <= Fraction(1, 2 ** 10)

    b = embed(root_of_unity(12, 1), 5, 30)
    assert abs(float(b.re) - math.cos(5 * math.pi / 6)) < 1e-8
    assert abs(float(b.im) - math.sin(5 * math.pi / 6)) < 1e-8


def test_embed_rejects_bad_exponent():
    with pytest.raises(ValueError):
        embed(root_of_unity(12, 1), 4, 20)


def test_embedded_roots_have_modulus_one():
    # (|centre| - rad)^2 <= 1 <= (|centre| + rad)^2, all rational
    for m, j, e in [(7, 1, 3), (16, 3, 5), (9, 2, 4), (11, 4, 7)]:
        b = embed(root_of_unity(m, e), j, 40)
        norm = b.re * b.re + b.im * b.im
        lo = norm - 2 * b.rad - b.rad * b.rad
        hi = norm + 2 * b.rad + b.rad * b.rad
        assert lo <= 1 <= hi


@given(st.fractions(min_value=0, max_value=1), st.integers(min_value=20, max_value=60))
@settings(max_examples=40, deadline=None)
def test_unit_turn_on_the_circle(t, bits):
    b = unit_turn(t, bits)
    norm = b.re * b.re + b.im * b.im
    slack = 3 * b.rad
    assert abs(float(norm) - 1) <= float(slack) + 1e-15
    # agree with floating point to well within the radius
    z = complex(math.cos(2 * math.pi * float(t)), math.sin(2 * math.pi * float(t)))
    assert abs(z - complex(float(b.re), float(b.im))) <= float(b.rad) + 1e-9


def test_ball_arithmetic_encloses():
    a = ComplexBall(Fraction(1, 3), Fraction(-2, 7), Fraction(1, 1000))
    b = ComplexBall(Fraction(5, 2), Fraction(1, 9), Fraction(1, 500))
    prod = a * b
    za = complex(1 / 3, -2 / 7)
    zb = complex(5 / 2, 1 / 9)
    assert abs(za * zb - complex(float(prod.re), float(prod.im))) <= float(prod.rad)
    quot = a / b
    assert abs(za / zb - complex(float(quot.re), float(quot.im))) <= float(quot.rad)


def test_rounding_preserves_enclosure():
    a = ComplexBall(Fraction(22, 7), Fraction(-355, 113), Fraction(1, 10 ** 9))
    r = a.round_to(40)
    # the original centre must lie inside the rounded ball
    dist_sq = (a.re - r.re) ** 2 + (a.im - r.im) ** 2
    assert dist_sq <= (r.rad - a.rad) ** 2
    assert r.rad >= a.rad


@given(st.fractions(min_value=-2, max_value=2), st.integers(min_value=20, max_value=200))
@settings(max_examples=40, deadline=None)
def test_unit_turn_cache_is_a_pure_memo(t, bits):
    # the memoised value equals the uncached computation, field for field
    got = unit_turn(t, bits)
    want = balls._unit_turn.__wrapped__(t, bits)
    assert (got.re, got.im, got.rad) == (want.re, want.im, want.rad)


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 7), Fraction(-3, 8), Fraction(5, 3)])
@pytest.mark.parametrize("bits", [20, 72, 200])
def test_unit_turn_is_periodic(t, bits):
    assert unit_turn(t, bits) == unit_turn(t + 1, bits)
