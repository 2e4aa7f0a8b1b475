"""Complex balls with rational centres and certified outward rounding.

All endpoint arithmetic is exact rational; the only approximations are
explicit radius enlargements, so every operation returns an enclosure of
the true image.  Pi and the trigonometric values needed for embedding
roots of unity are produced from alternating series with explicit
remainder bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CyclotomicNumber

__all__ = ["ComplexBall", "embed", "unit_turn", "PrecisionExhausted"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PrecisionExhausted(RuntimeError):
    """A sign or inclusion could not be decided at the working precision."""


def sqrt_upper(q: Fraction) -> Fraction:
    if q < 0:
        raise ValueError("negative radicand")
    n, d = q.numerator, q.denominator
    s = math.isqrt(n * d)
    if s * s < n * d:
        s += 1
    return Fraction(s, d)


def sqrt_lower(q: Fraction) -> Fraction:
    if q <= 0:
        return _ZERO
    n, d = q.numerator, q.denominator
    return Fraction(math.isqrt(n * d), d)


@dataclass(frozen=True)
class ComplexBall:
    re: Fraction
    im: Fraction
    rad: Fraction

    @staticmethod
    def exact(re, im=0) -> "ComplexBall":
        return ComplexBall(Fraction(re), Fraction(im), _ZERO)

    def abs_lower(self) -> Fraction:
        low = sqrt_lower(self.re * self.re + self.im * self.im) - self.rad
        return low if low > 0 else _ZERO

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re + other.re, self.im + other.im,
                           self.rad + other.rad)

    def __sub__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re - other.re, self.im - other.im,
                           self.rad + other.rad)

    def __neg__(self) -> "ComplexBall":
        return ComplexBall(-self.re, -self.im, self.rad)

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        a = sqrt_upper(self.re * self.re + self.im * self.im)
        b = sqrt_upper(other.re * other.re + other.im * other.im)
        rad = a * other.rad + b * self.rad + self.rad * other.rad
        return ComplexBall(re, im, rad)

    def conj(self) -> "ComplexBall":
        return ComplexBall(self.re, -self.im, self.rad)

    def mul_i(self) -> "ComplexBall":
        return ComplexBall(-self.im, self.re, self.rad)

    def inverse(self) -> "ComplexBall":
        low = self.abs_lower()
        if low <= self.rad or low == 0:
            raise PrecisionExhausted("inversion of a ball containing zero")
        n = self.re * self.re + self.im * self.im
        centre_re, centre_im = self.re / n, -self.im / n
        rad = self.rad / (low * (low - self.rad))
        return ComplexBall(centre_re, centre_im, rad)

    def __truediv__(self, other: "ComplexBall") -> "ComplexBall":
        return self * other.inverse()

    def round_to(self, bits: int) -> "ComplexBall":
        # snap the centre to a dyadic grid (shift absorbed into the radius)
        # and round the radius itself upward onto the same grid, so that
        # chained operations cannot accumulate ever-larger denominators
        scale = 1 << bits
        re = Fraction(round(self.re * scale), scale)
        im = Fraction(round(self.im * scale), scale)
        rad = Fraction(math.ceil(self.rad * scale) + 1, scale)
        return ComplexBall(re, im, rad)

    def __str__(self):
        return f"({float(self.re):+.12g}{float(self.im):+.12g}j) +/- {float(self.rad):.3g}"


# ---------------------------------------------------------------------------
# pi and exp(2 pi i t)

def _arctan_inv_bounds(x: int, bits: int) -> tuple[Fraction, Fraction]:
    # arctan(1/x) by the alternating Taylor series; error < first omitted term
    total = _ZERO
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


@lru_cache(maxsize=None)
def pi_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= pi <= hi with hi - lo < 2^-bits (Machin formula)."""
    a_lo, a_hi = _arctan_inv_bounds(5, bits + 6)
    b_lo, b_hi = _arctan_inv_bounds(239, bits + 6)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def _cos_sin_small(theta_lo: Fraction, theta_hi: Fraction, bits: int):
    # Taylor with alternating remainder, valid for 0 <= theta <= 1
    eps = Fraction(1, 1 << (bits + 2))

    def eval_at(theta: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        c = _ONE
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
    cos_int = (c_hi - slack, c_lo + slack)
    sin_int = (s_lo - slack, s_hi + slack)
    return cos_int, sin_int


def unit_turn(t: Fraction, bits: int) -> ComplexBall:
    """Enclosure of exp(2 pi i t) for a rational number of turns t.

    Results are memoised per (t mod 1, bits): embedding a matrix and
    placing arc endpoints ask for the same few roots many times.
    """
    return _unit_turn(Fraction(t) % 1, bits)


@lru_cache(maxsize=None)
def _unit_turn(t: Fraction, bits: int) -> ComplexBall:
    # normalises t again so that the uncached _unit_turn.__wrapped__,
    # the reference the tests compare against, takes any t
    t = Fraction(t) % 1
    quarter, t = divmod(t, Fraction(1, 4))
    flip = False
    if t > Fraction(1, 8):
        t = Fraction(1, 4) - t
        flip = True
    pi_lo, pi_hi = pi_bounds(bits + 6)
    theta_lo, theta_hi = 2 * t * pi_lo, 2 * t * pi_hi
    (c_lo, c_hi), (s_lo, s_hi) = _cos_sin_small(theta_lo, theta_hi, bits)
    re = (c_lo + c_hi) / 2
    im = (s_lo + s_hi) / 2
    rad = max(c_hi - re, re - c_lo) + max(s_hi - im, im - s_lo)
    ball = ComplexBall(re, im, rad)
    if flip:
        ball = ball.conj().mul_i()  # exp(i(pi/2 - x)) = i conj(exp(ix))
    for _ in range(int(quarter) % 4):
        ball = ball.mul_i()
    return ball.round_to(bits + 8)


# ---------------------------------------------------------------------------
# certified embedding of cyclotomic numbers

def embed(x: CyclotomicNumber, j: int, precision: int) -> ComplexBall:
    """Ball of radius <= 2^-precision around x under zeta_m -> exp(2 pi i j / m)."""
    m = x.conductor
    if math.gcd(j % m if m > 1 else 1, m) != 1:
        raise ValueError("embedding exponent must be coprime to the conductor")
    target = Fraction(1, 1 << precision)
    bits = precision + 8
    for _ in range(12):
        ball = _embed_at(x, j, bits)
        if ball.rad <= target:
            return ball
        bits *= 2
    raise PrecisionExhausted("embedding did not reach the requested radius")


def _embed_at(x: CyclotomicNumber, j: int, bits: int) -> ComplexBall:
    m = x.conductor
    if m == 1:
        return ComplexBall.exact(x.rational_value())
    root = unit_turn(Fraction(j, m), bits)
    # Horner over the coefficient vector, rounding to keep denominators small
    acc = ComplexBall.exact(0)
    coeffs = x.coefficients()
    for c in reversed(coeffs):
        acc = acc * root
        if c:
            acc = acc + ComplexBall.exact(c)
        acc = acc.round_to(bits)
    return acc

