"""Complex balls on a binary grid with certified outward rounding.

A ball ``ComplexBall(re, im, rad, bits)`` is the closed disc of radius
rad * 2^-bits about (re + i im) * 2^-bits: three integer mantissas on the
grid 2^-bits.  Every ``+ - * /`` returns a ball on its operands' grid: the
exact centre is rounded to the nearest grid point and that rounding, at
most one grid step, is added to the propagated radius, so every result
encloses the true image (mid-rad ball arithmetic as in van der Hoeven,
"Ball arithmetic", 2009).  The grid and its rounding rule live in this
module only; ``to(bits)`` moves a ball to another grid.  Pi and the roots
of unity come from integer series with explicit remainder bounds, and
``embed`` evaluates a cyclotomic number as one integer dot product.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CyclotomicNumber, euler_phi

__all__ = ["ComplexBall", "embed", "unit_turn", "PrecisionExhausted"]


class PrecisionExhausted(RuntimeError):
    """A sign or inclusion could not be decided at the working precision."""


def _round_shift(v: int, k: int) -> int:
    # v / 2^k rounded to the nearest integer
    return (v + (1 << k >> 1)) >> k


def _ceil_shift(v: int, k: int) -> int:
    return -(-v >> k)


def _round_div(v: int, d: int) -> int:
    # v / d rounded to the nearest integer, for d > 0
    return (2 * v + d) // (2 * d)


def _grid(x: "ComplexBall", y: "ComplexBall") -> int:
    if x.bits != y.bits:
        raise ValueError("balls on different grids")
    return x.bits


class ComplexBall:
    """The disc of radius rad * 2^-bits about (re + i im) * 2^-bits."""

    __slots__ = ("re", "im", "rad", "bits")

    def __init__(self, re: int, im: int, rad: int, bits: int):
        self.re = re
        self.im = im
        self.rad = rad
        self.bits = bits

    def __eq__(self, other):
        return (isinstance(other, ComplexBall) and self.re == other.re and self.im == other.im
                and self.rad == other.rad and self.bits == other.bits)

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re + other.re, self.im + other.im,
                           self.rad + other.rad, _grid(self, other))

    def __sub__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re - other.re, self.im - other.im,
                           self.rad + other.rad, _grid(self, other))

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        bits = _grid(self, other)
        a, b, c, d = self.re, self.im, other.re, other.im
        # |x'y' - xy| <= |x| r_y + |y| r_x + r_x r_y, on the grid 2^-2bits
        rad = ((math.isqrt(a * a + b * b) + 1) * other.rad
               + (math.isqrt(c * c + d * d) + 1 + other.rad) * self.rad)
        return ComplexBall(_round_shift(a * c - b * d, bits), _round_shift(a * d + b * c, bits),
                           _ceil_shift(rad, bits) + 1, bits)

    def __truediv__(self, other: "ComplexBall") -> "ComplexBall":
        bits = _grid(self, other)
        a, b, c, d = self.re, self.im, other.re, other.im
        norm = c * c + d * d
        low = math.isqrt(norm)  # |other| is at least low grid steps
        if low <= other.rad:
            raise PrecisionExhausted("division by a ball containing zero")
        # |x'/y' - x/y| <= (r_x |y| + |x| r_y) / (|y| (|y| - r_y)), which
        # decreases in |y|; the quotient's mantissa is scaled by 2^bits
        rad = (self.rad * low + (math.isqrt(a * a + b * b) + 1) * other.rad) << bits
        return ComplexBall(_round_div((a * c + b * d) << bits, norm),
                           _round_div((b * c - a * d) << bits, norm),
                           -(-rad // (low * (low - other.rad))) + 1, bits)

    def to(self, bits: int) -> "ComplexBall":
        """The same enclosure on the grid 2^-bits: exact when refining."""
        k = bits - self.bits
        if k >= 0:
            return ComplexBall(self.re << k, self.im << k, self.rad << k, bits)
        return ComplexBall(_round_shift(self.re, -k), _round_shift(self.im, -k),
                           _ceil_shift(self.rad, -k) + 1, bits)


# ---------------------------------------------------------------------------
# pi and exp(2 pi i t)

@lru_cache(maxsize=None)
def pi_bounds(bits: int) -> tuple[int, int]:
    """Integers lo < pi * 2^bits < hi with hi - lo <= 2 (Machin's formula).

    pi = 16 arctan(1/5) - 4 arctan(1/239), each series summed in integers
    scaled by 2^(bits + guard).  Nested floor divisions by positive
    integers equal one floor division, so each summand is the floor of
    its exact value and errs by less than 1; the alternating tail after
    the first zero power is below 1 as well.
    """
    guard = bits.bit_length() + 8
    total = err = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, k = (1 << (bits + guard)) // x, 0
        while power:
            term = power // (2 * k + 1)
            total += weight * (term if k % 2 == 0 else -term)
            power //= x * x
            k += 1
        err += abs(weight) * (k + 1)
    return (total - err) >> guard, _ceil_shift(total + err, guard)


def unit_turn(t: Fraction, bits: int) -> ComplexBall:
    """Enclosure of exp(2 pi i t), on the grid 2^-bits with radius at most
    4 * 2^-bits, for a rational number of turns t.

    Results are memoised per (t mod 1, bits): placing arc endpoints asks
    for the same few points many times.
    """
    return _unit_turn(Fraction(t) % 1, bits)


@lru_cache(maxsize=None)
def _unit_turn(t: Fraction, bits: int) -> ComplexBall:
    # exp(2 pi i t) = i^quarter exp(i theta), theta = pi rem / (2 den) in
    # [0, pi/2); normalising t here lets the uncached __wrapped__ take any t
    quarter, rem = divmod(4 * (t.numerator % t.denominator), t.denominator)
    # the exact angle times 2^w lies in [theta, theta + theta_err]
    w = bits + bits.bit_length() + 6
    pi_lo, pi_hi = pi_bounds(w)
    theta = pi_lo * rem // (2 * t.denominator)
    theta_err = -(-pi_hi * rem // (2 * t.denominator)) - theta
    # Taylor series of exp(i theta) scaled by 2^w.  The n-th term is the
    # floor of the previous one times theta / n, so it falls short of its
    # exact value by e_n <= e_(n-1) theta / n + 1 <= 3 (theta < 1.6, e_1 = 0);
    # once a term is 0 the exact tail is below 7.  The terms vanish for
    # n > max(w, 7), so bit_length(bits) + 6 guard bits absorb 3n + 7.
    one = 1 << w
    re, im, term, n = one, 0, one, 0
    while term:
        n += 1
        term = (term * theta >> w) // n
        if n % 4 == 0:
            re += term
        elif n % 4 == 1:
            im += term
        elif n % 4 == 2:
            re -= term
        else:
            im -= term
    for _ in range(quarter):
        re, im = -im, re
    return ComplexBall(re, im, 3 * n + 7 + theta_err, w).to(bits)


# ---------------------------------------------------------------------------
# certified embedding of cyclotomic numbers

def embed(x: CyclotomicNumber, j: int, precision: int) -> ComplexBall:
    """Ball around x under zeta_m -> exp(2 pi i j / m), on the grid of
    ``precision`` (2^-precision) with radius at most 2^(1 - precision).

    x = sum_k c_k zeta_m^k / den is one integer dot product of the c_k with
    centres of enclosures of exp(2 pi i jk / m), each within 4 grid steps,
    over den: it errs by under weight / den steps, weight = 4 sum|c_k| + 2 den.
    The first grid of (precision + 8) 2^i bits with 2^(bits - precision) >=
    weight / den meets the bound: no retries and no PrecisionExhausted.
    """
    m = x.conductor
    if math.gcd(j, m) != 1:
        raise ValueError("embedding exponent must be coprime to the conductor")
    weight = 4 * sum(map(abs, x.num)) + 2 * x.den
    bits = precision + 8
    while x.den << (bits - precision) < weight:
        bits *= 2
    res, ims = _turns(j % m, m, bits)
    re, im = sum(map(operator.mul, x.num, res)), sum(map(operator.mul, x.num, ims))
    rad = 0 if len(x.num) == 1 and x.den == 1 else -(-weight // x.den)  # 0: exact integer
    return ComplexBall(_round_div(re, x.den), _round_div(im, x.den), rad, bits).to(precision)


@lru_cache(maxsize=16)
def _turns(j: int, m: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # centres of zeta_m^(jk) for k < phi(m), the first the exact 1; built
    # past the unit_turn memo, so that this cache bounds what embed keeps
    roots = [_unit_turn.__wrapped__(Fraction(j * k, m), bits) for k in range(1, euler_phi(m))]
    return (1 << bits, *(r.re for r in roots)), (0, *(r.im for r in roots))
