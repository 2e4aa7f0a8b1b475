import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from burauforge import balls
from burauforge.balls import ComplexBall, PrecisionExhausted, embed, pi_bounds, unit_turn
from burauforge.cyclotomic import CyclotomicNumber, euler_phi, root_of_unity

PI_REF = Fraction("3.14159265358979323846264338327950288419716939937510582097")


# ---------------------------------------------------------------------------
# reference kernel: the exact-rational pi and exp(2 pi i t) that the integer
# kernel replaced, kept as the oracle for it

def _reference_arctan_inv_bounds(x: int, bits: int) -> tuple[Fraction, Fraction]:
    # arctan(1/x) by the alternating Taylor series; error < first omitted term
    total = Fraction(0)
    k = 0
    term = Fraction(1, x)
    eps = Fraction(1, 1 << (bits + 4))
    while term >= eps:
        total += term if k % 2 == 0 else -term
        k += 1
        term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
    if k % 2 == 0:
        return total, total + term
    return total - term, total


def reference_pi_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= pi <= hi with hi - lo < 2^-bits (Machin formula)."""
    a_lo, a_hi = _reference_arctan_inv_bounds(5, bits + 6)
    b_lo, b_hi = _reference_arctan_inv_bounds(239, bits + 6)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def _reference_cos_sin_small(theta_lo: Fraction, theta_hi: Fraction, bits: int):
    # Taylor with alternating remainder, valid for 0 <= theta <= 1
    eps = Fraction(1, 1 << (bits + 2))

    def eval_at(theta: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        c = Fraction(1)
        s = theta
        term = theta
        k = 1
        while True:
            term = term * theta / (2 * k)
            c += term if k % 2 == 0 else -term
            term = term * theta / (2 * k + 1)
            s += term if k % 2 == 0 else -term
            k += 1
            if term < eps:
                return c, s, term

    c_lo, s_lo, r1 = eval_at(theta_lo)
    c_hi, s_hi, r2 = eval_at(theta_hi)
    slack = max(r1, r2)
    # cos decreasing, sin increasing on [0, pi/4]
    return (c_hi - slack, c_lo + slack), (s_lo - slack, s_hi + slack)


def reference_unit_turn(t, bits: int) -> tuple[Fraction, Fraction, Fraction]:
    """Rational (re, im, rad) enclosing exp(2 pi i t), by an octant
    reduction and exact-rational Taylor series."""
    t = Fraction(t) % 1
    quarter, t = divmod(t, Fraction(1, 4))
    flip = t > Fraction(1, 8)
    if flip:
        t = Fraction(1, 4) - t
    pi_lo, pi_hi = reference_pi_bounds(bits + 6)
    (c_lo, c_hi), (s_lo, s_hi) = _reference_cos_sin_small(2 * t * pi_lo, 2 * t * pi_hi, bits)
    re = (c_lo + c_hi) / 2
    im = (s_lo + s_hi) / 2
    rad = max(c_hi - re, re - c_lo) + max(s_hi - im, im - s_lo)
    if flip:
        re, im = im, re  # exp(i(pi/2 - x)) = i conj(exp(ix))
    for _ in range(int(quarter) % 4):
        re, im = -im, re
    # snap onto the grid 2^-(bits + 8), as the returned ball did
    scale = 1 << (bits + 8)
    return (Fraction(round(re * scale), scale), Fraction(round(im * scale), scale),
            Fraction(math.ceil(rad * scale) + 1, scale))


def _horner_at(x: CyclotomicNumber, j: int, bits: int) -> ComplexBall:
    # Horner over the integer numerator, then one division by the denominator
    acc = ComplexBall(x.num[-1] << bits, 0, 0, bits)
    if len(x.num) > 1:
        root = unit_turn(Fraction(j, x.conductor), bits)
        for c in reversed(x.num[:-1]):
            acc = acc * root + ComplexBall(c << bits, 0, 0, bits)
    if x.den == 1:
        return acc
    return acc / ComplexBall(x.den << bits, 0, 0, bits)


def reference_embed(x: CyclotomicNumber, j: int, precision: int) -> ComplexBall:
    """The embedding that one dot product replaced: Horner in ball products
    on the grids (precision + 8) 2^i, until the radius meets the bound."""
    bits = precision + 8
    while True:
        ball = _horner_at(x, j, bits)
        if ball.rad <= 1 << (bits - precision):
            return ball.to(precision)
        bits *= 2


# ---------------------------------------------------------------------------

def _contains(ball: ComplexBall, re: Fraction, im: Fraction) -> bool:
    # is the exact point re + i im in the ball?  Compared on the ball's grid
    scale = 1 << ball.bits
    return (re * scale - ball.re) ** 2 + (im * scale - ball.im) ** 2 <= ball.rad ** 2


def _value(ball: ComplexBall) -> complex:
    scale = 1 << ball.bits
    return complex(Fraction(ball.re, scale), Fraction(ball.im, scale))


def test_pi_enclosure():
    lo, hi = pi_bounds(62)
    assert Fraction(lo, 2 ** 62) < PI_REF < Fraction(hi, 2 ** 62)
    assert Fraction(hi - lo, 2 ** 62) < Fraction(1, 2 ** 60)


@given(st.integers(min_value=0, max_value=600))
@settings(max_examples=30, deadline=None)
def test_pi_bounds_bracket_the_reference(bits):
    lo, hi = pi_bounds(bits)
    assert hi - lo <= 2
    ref_lo, ref_hi = reference_pi_bounds(bits + 64)
    assert Fraction(lo, 2 ** bits) <= ref_lo < ref_hi <= Fraction(hi, 2 ** bits)


def test_embed_examples():
    b = embed(root_of_unity(4, 1), 1, 30)
    assert b.bits == 30 and b.rad <= 2
    assert abs(_value(b) - 1j) < 1e-8

    b = embed(CyclotomicNumber.from_rational(-1), 1, 10)
    assert (b.re, b.im, b.bits) == (-1 << 10, 0, 10) and b.rad <= 2

    b = embed(root_of_unity(12, 1), 5, 30)
    assert abs(_value(b) - cmath.exp(5j * math.pi / 6)) < 1e-8


def test_embed_rejects_bad_exponent():
    with pytest.raises(ValueError):
        embed(root_of_unity(12, 1), 4, 20)


def test_embedded_roots_have_modulus_one():
    # | |centre| - 1 | <= rad on the grid 2^-40, with rad <= 2 grid steps
    for m, j, e in [(7, 1, 3), (16, 3, 5), (9, 2, 4), (11, 4, 7)]:
        b = embed(root_of_unity(m, e), j, 40)
        assert b.bits == 40 and b.rad <= 2
        norm = b.re * b.re + b.im * b.im
        assert (math.isqrt(norm) - b.rad) ** 2 <= 1 << 80 <= (math.isqrt(norm) + 1 + b.rad) ** 2


def _meet(x: ComplexBall, y: ComplexBall) -> bool:
    # do the two closed discs intersect?  Compared on the finer grid, where
    # moving the coarser ball is exact
    bits = max(x.bits, y.bits)
    x, y = x.to(bits), y.to(bits)
    return (x.re - y.re) ** 2 + (x.im - y.im) ** 2 <= (x.rad + y.rad) ** 2


def _random_number(m: int, size: int, seed: int, den: int, j: int):
    # phi(m) integers of up to `size` bits, a third of them zero, over den,
    # and the first exponent from j on coprime to the reduced conductor
    rng = random.Random(seed)
    coeffs = [rng.choice((0, 1, 1)) * rng.randint(-(1 << size), 1 << size)
              for _ in range(euler_phi(m))]
    x = CyclotomicNumber.from_coefficients(m, [Fraction(c, den) for c in coeffs])
    while math.gcd(j, x.conductor) != 1:
        j += 1
    return x, j


_CYCLOTOMIC_NUMBERS = st.builds(
    _random_number, st.integers(min_value=1, max_value=1024),
    st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=1 << 32),
    st.integers(min_value=1, max_value=1 << 64), st.integers(min_value=1, max_value=1024))


@given(_CYCLOTOMIC_NUMBERS, st.integers(min_value=16, max_value=512))
@example(_random_number(1021, 64, 1, 3, 1), 32)
@example(_random_number(1024, 200, 2, 1, 511), 512)
@settings(max_examples=25, deadline=None)
def test_embed_agrees_with_horner(xj, precision):
    x, j = xj
    ball, reference = embed(x, j, precision), reference_embed(x, j, precision)
    # radius 2 grid steps, or 1 about an exact integer, as the reference's
    assert ball.bits == precision and ball.rad == reference.rad <= 2
    assert _meet(ball, reference)
    # the point the reference encloses at more than twice the bits, up to
    # its own radius of at most 2^(-1 - 2 precision)
    fine = reference_embed(x, j, 2 * precision + 2)
    assert _meet(ball, fine)


def test_embedding_roots_are_unit_turn_centres_outside_its_memo():
    # the cached roots of a dot product are the centres of unit_turn's
    # enclosures after an exact 1, and embedding adds nothing to its memo
    balls._unit_turn.cache_clear()
    res, ims = balls._turns(3, 20, 72)
    assert len(res) == len(ims) == 8 and (res[0], ims[0]) == (1 << 72, 0)
    for k in range(1, 8):
        root = balls._unit_turn.__wrapped__(Fraction(3 * k, 20), 72)
        assert (res[k], ims[k]) == (root.re, root.im)
    embed(root_of_unity(1021, 5), 7, 40)
    assert balls._unit_turn.cache_info().currsize == 0


@given(st.fractions(min_value=0, max_value=1), st.integers(min_value=20, max_value=60))
@settings(max_examples=40, deadline=None)
def test_unit_turn_on_the_circle(t, bits):
    b = unit_turn(t, bits)
    one = 1 << bits
    norm = b.re * b.re + b.im * b.im
    assert (one - b.rad) ** 2 <= norm <= (one + b.rad) ** 2
    # agree with floating point to well within the radius
    z = cmath.exp(2j * math.pi * float(t))
    assert abs(z - _value(b)) <= b.rad / one + 1e-9


@given(st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 6),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_unit_turn_contains_the_reference_midpoint(t, bits):
    re, im, _ = reference_unit_turn(t, bits)
    assert _contains(unit_turn(t, bits), re, im)


@given(st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9),
       st.integers(min_value=1, max_value=4096))
@settings(max_examples=40, deadline=None)
def test_unit_turn_radius_is_at_most_four_grid_steps(t, bits):
    b = unit_turn(t, bits)
    assert b.bits == bits and b.rad <= 4
    z = cmath.exp(2j * math.pi * float(t))
    assert abs(z - _value(b)) <= Fraction(b.rad, 1 << bits) + 1e-12


@given(st.integers(min_value=1, max_value=60), st.data(), st.integers(min_value=8, max_value=200))
@settings(max_examples=40, deadline=None)
def test_unit_turn_to_the_order_contains_one(m, data, bits):
    root = unit_turn(Fraction(data.draw(st.integers(min_value=0, max_value=m - 1)), m), bits)
    power = root
    for _ in range(m - 1):
        power = power * root
    assert _contains(power, Fraction(1), Fraction(0))


_MANTISSA = st.integers(min_value=-(1 << 90), max_value=1 << 90)
# offsets (s, t) * rad with s^2 + t^2 <= 1 reach points all over the disc
_OFFSET = st.fractions(min_value=Fraction(-7, 10), max_value=Fraction(7, 10), max_denominator=1000)


@st.composite
def _balls_with_points(draw, bits):
    ball = ComplexBall(draw(_MANTISSA), draw(_MANTISSA),
                       draw(st.integers(min_value=0, max_value=1 << 40)), bits)
    scale = 1 << bits
    re = (ball.re + draw(_OFFSET) * ball.rad) / scale
    im = (ball.im + draw(_OFFSET) * ball.rad) / scale
    return ball, re, im


@given(st.integers(min_value=0, max_value=80).flatmap(
    lambda bits: st.tuples(_balls_with_points(bits), _balls_with_points(bits))))
@settings(max_examples=200, deadline=None)
def test_ball_arithmetic_encloses(pair):
    (x, x_re, x_im), (y, y_re, y_im) = pair
    assert _contains(x + y, x_re + y_re, x_im + y_im)
    assert _contains(x - y, x_re - y_re, x_im - y_im)
    assert _contains(x * y, x_re * y_re - x_im * y_im, x_re * y_im + x_im * y_re)
    try:
        quotient = x / y
    except PrecisionExhausted:
        # only a divisor ball that reaches within one grid step of 0 is refused
        assert math.isqrt(y.re * y.re + y.im * y.im) <= y.rad
        return
    norm = y_re * y_re + y_im * y_im
    assert _contains(quotient, (x_re * y_re + x_im * y_im) / norm,
                     (x_im * y_re - x_re * y_im) / norm)


@given(st.integers(min_value=0, max_value=80).flatmap(_balls_with_points),
       st.integers(min_value=0, max_value=120))
@settings(max_examples=200, deadline=None)
def test_rounding_preserves_enclosure(ball_point, bits):
    # to() both refines and coarsens the grid; the point stays enclosed
    ball, re, im = ball_point
    moved = ball.to(bits)
    assert moved.bits == bits
    assert _contains(moved, re, im)
    if bits >= ball.bits:  # refining is exact
        assert moved.rad == ball.rad << (bits - ball.bits)


@pytest.mark.parametrize("ball", [
    ComplexBall(0, 0, 0, 10),
    ComplexBall(1, -1, 2, 10),
    ComplexBall(3 << 20, 4 << 20, 5 << 20, 20),
])
def test_inverse_of_a_ball_around_zero_raises(ball):
    one = ComplexBall(1 << ball.bits, 0, 0, ball.bits)
    with pytest.raises(PrecisionExhausted):
        one / ball


def test_operations_refuse_mixed_grids():
    with pytest.raises(ValueError):
        ComplexBall(1, 0, 0, 10) + ComplexBall(1, 0, 0, 11)


@given(st.fractions(min_value=-2, max_value=2), st.integers(min_value=20, max_value=200))
@settings(max_examples=40, deadline=None)
def test_unit_turn_cache_is_a_pure_memo(t, bits):
    # the memoised value equals the uncached computation, field for field
    assert unit_turn(t, bits) == balls._unit_turn.__wrapped__(t, bits)


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 7), Fraction(-3, 8), Fraction(5, 3)])
@pytest.mark.parametrize("bits", [20, 72, 200])
def test_unit_turn_is_periodic(t, bits):
    assert unit_turn(t, bits) == unit_turn(t + 1, bits)
