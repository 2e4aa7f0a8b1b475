"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is a vector of integer coefficients over the power basis
1, z, ..., z^(phi(m)-1) modulo the m-th cyclotomic polynomial, together
with one shared positive denominator.  Conductors are normalised away
from the residue class 2 (mod 4), so the torsion units of the stored
field are exactly the signed powers of its root; multiplicative orders,
Galois action and equality are all decided exactly.

Rationals are detected on construction and collapse to conductor 1.
One integer step moves a value down a prime p of its conductor m: its
relative trace to Q(zeta_(m/p)) divided by the degree.  Construction
takes that step for p = 2 when m = 2 (mod 4), where the degree is 1.
``canonical()`` (and hashing / serialisation) takes it lazily, prime
by prime, for as long as the value equals its trace, which reaches the
minimal cyclotomic subfield; the hot arithmetic path never does.
Equality across conductors is an exact zero test of the difference,
which gives the same answer.

Inversion uses only these field operations.  A root of unity +-zeta^j is
found among the first m reduction rows, z^j mod Phi_m for j < m, which
are the only stored form of the powers of zeta_m; it inverts to its
complex conjugate.
Any other x inverts as the product of its Galois conjugates other than
x, divided by the rational norm N(x), which is the product of all of
them (Cohen, *A Course in Computational Algebraic Number Theory*, 4.2).

Every product goes through ``_polymul_into``: it adds the product of two
polynomials, given by their nonzero (index, coefficient) pairs, into an
unreduced integer vector, term by term or, past 12 term products per
digit, by Kronecker substitution with a byte-slice decode linear in the
digits.  ``CyclotomicNumber.__mul__`` calls it once per product; ``matmul``,
the kernel for matrix products and other sums of products, lifts every
entry once into Q(zeta_m), m the lcm of all conductors, and adds all
entry pairs of an output entry into one vector, reduced mod Phi_m (by
sparse rows of z^e) and normalised once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .words import power

__all__ = [
    "CyclotomicNumber",
    "root_of_unity",
    "multiplicative_order",
    "root_power_sums",
    "galois_conjugates",
    "euler_phi",
    "cyclotomic_polynomial",
    "prime_factors",
    "matmul",
    "dot",
]


# ---------------------------------------------------------------------------
# small number theory

def prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    phi = m
    for p in prime_factors(m):
        phi -= phi // p
    return phi


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)

def _poly_divexact(a: list[int], b: tuple[int, ...]) -> list[int]:
    # exact division by a monic integer polynomial
    a = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db]
        if c:
            out[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    if any(a[:db]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Monic integer coefficients of Phi_m, constant term first."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in _divisors(m):
        if d < m:
            num = _poly_divexact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # z^e reduced mod Phi_m as its nonzero (index, coefficient) pairs, for
    # e up to what products and Galois substitutions can reach: row e, for
    # e < m, is the only stored form of zeta_m^e, and since z^m = 1 the rows
    # past m are the same objects as the rows m below them
    d = euler_phi(m)
    phi = cyclotomic_polynomial(m)
    rows = [((i, 1),) for i in range(d)]
    cur = [-c for c in phi[:d]]
    for _ in range(d, m):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(d):
                cur[i] -= top * phi[i]
    return tuple(rows + rows[:max(0, 2 * d - 1 - m)])


def _root_exponent(x) -> tuple[bool, int] | None:
    # (negated, j) with x = zeta_m^j or -zeta_m^j, m the conductor of x and
    # j < m, or None when x is no root of unity.  A negated hit occurs only
    # for odd m: for 4 | m, -zeta_m^j is zeta_m^(j + m/2)
    if x.den != 1:
        return None
    m = x.conductor
    row = tuple((i, c) for i, c in enumerate(x.num) if c)
    rows = _reduction_rows(m)
    for negated, target in ((False, row), (True, tuple((i, -c) for i, c in row))):
        try:
            return negated, rows.index(target, 0, m)
        except ValueError:
            pass
    return None


# Term products per digit of the product past which Kronecker substitution
# is the cheaper product (packing or decoding a digit costs about five)
_TERMS_PER_DIGIT = 12


def _polymul_into(vec: list, x, y) -> None:
    """Add x * y into vec, for x and y nonzero (exponent, coefficient)
    pairs ascending in the exponent; vec must reach every exponent.

    Past _TERMS_PER_DIGIT term products per digit of the product, x and y
    are packed at z = 2^w, w whole bytes with every coefficient of the
    product below 2^(w-1) in absolute value, and the digits of the one
    integer product are decoded from its bytes (Harvey, JSC 2009).
    """
    if not x or not y:
        return
    lo_x, lo_y = x[0][0], y[0][0]
    count = x[-1][0] - lo_x + y[-1][0] - lo_y + 1
    if len(x) * len(y) <= _TERMS_PER_DIGIT * count:
        for i, c in x:
            for j, e in y:
                vec[i + j] += c * e
        return
    bound = (min(len(x), len(y)) * max(abs(c) for _, c in x)
             * max(abs(e) for _, e in y))
    width = bound.bit_length() // 8 + 1
    _unpack_into(vec, lo_x + lo_y, _pack(x, lo_x, width) * _pack(y, lo_y, width),
                 count, width)


def _pack(pairs, lo: int, width: int) -> int:
    # sum c 2^(8 width (i - lo)) over the pairs (i, c), |c| < 2^(8 width - 1),
    # with the positive and the negative terms each one byte string
    size = (pairs[-1][0] - lo + 1) * width
    pos, neg = bytearray(size), bytearray(size)
    for i, c in pairs:
        at = (i - lo) * width
        if c > 0:
            pos[at:at + width] = c.to_bytes(width, "little")
        else:
            neg[at:at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack_into(vec: list, lo: int, value: int, count: int, width: int) -> None:
    # add the digits v_k, |v_k| < 2^(8 width - 1), of value = sum v_k 2^(8 width k)
    # into vec[lo + k] for k < count: biased by 2^(8 width - 1) each, the
    # digits are nonnegative byte slices of one conversion
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    try:
        raw = (value + bias).to_bytes(count * width, "little")
    except OverflowError:
        raise ArithmeticError("Kronecker product exceeds its digit width") from None
    for k in range(count):
        v = int.from_bytes(raw[k * width:(k + 1) * width], "little") - half
        if v:
            vec[lo + k] += v


def _row_sum(m: int, terms, out: list | None = None) -> list:
    # out (zero by default) plus the sum of c * (z^e reduced mod Phi_m)
    # over the pairs (e, c) in terms; out is updated in place
    rows = _reduction_rows(m)
    if out is None:
        out = [0] * euler_phi(m)
    for e, c in terms:
        if c:
            for i, r in rows[e]:
                out[i] += c * r
    return out


def _reduce_mod_phi(m: int, vec: list) -> list:
    d = euler_phi(m)
    if len(vec) <= d:
        return vec + [0] * (d - len(vec))
    return _row_sum(m, enumerate(vec[d:], d), vec[:d])


def _content_normalise(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        den = -den
        num = [-v for v in num]
    g = den
    for v in num:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                break
    if g > 1:
        den //= g
        num = [v // g for v in num]
    return tuple(num), den


# ---------------------------------------------------------------------------

class CyclotomicNumber:
    """An element of Q(zeta_m), exact and immutable."""

    __slots__ = ("conductor", "num", "den", "_canon", "_hash")

    def __init__(self, conductor: int, num: tuple[int, ...], den: int):
        # internal: inputs must already be normalised; use the factories
        self.conductor = conductor
        self.num = num
        self.den = den
        self._canon = None
        self._hash = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(m: int, num: Iterable[int], den: int) -> "CyclotomicNumber":
        vec = list(num)
        d = euler_phi(m)
        if len(vec) != d:
            vec = _reduce_mod_phi(m, vec)
        if m > 1 and not any(vec[1:]):
            return CyclotomicNumber._make(1, [vec[0]], den)
        if m % 4 == 2:
            # Q(zeta_2d) = Q(zeta_d) for odd d: a trace of degree 1
            vec, scale = _relative_trace(m, vec, 2)
            return CyclotomicNumber._make(m // 2, vec, den * scale)
        nv, nd = _content_normalise(vec, den)
        return CyclotomicNumber(m, nv, nd)

    @staticmethod
    def from_rational(value) -> "CyclotomicNumber":
        f = Fraction(value)
        return CyclotomicNumber._make(1, [f.numerator], f.denominator)

    @staticmethod
    def from_coefficients(m: int, coeffs) -> "CyclotomicNumber":
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != euler_phi(m):
            raise ValueError("coefficient vector must have length phi(m)")
        den = math.lcm(*[f.denominator for f in fracs]) if fracs else 1
        num = [int(f * den) for f in fracs]
        return CyclotomicNumber._make(m, num, den)

    # -- basic predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    # -- coercion ------------------------------------------------------------

    def _lift(self, target: int) -> tuple[int, ...]:
        # coefficient vector of self inside Q(zeta_target), target % m == 0
        m = self.conductor
        if target == m:
            return self.num
        t = target // m
        return tuple(_row_sum(target, ((k * t, c) for k, c in enumerate(self.num))))

    @staticmethod
    def _common(x: "CyclotomicNumber", y: "CyclotomicNumber"):
        m = math.lcm(x.conductor, y.conductor)
        return m, x._lift(m), y._lift(m)

    @staticmethod
    def _coerce(value) -> "CyclotomicNumber":
        if isinstance(value, CyclotomicNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicNumber.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into a cyclotomic number")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        try:
            other = CyclotomicNumber._coerce(other)
        except TypeError:
            return NotImplemented
        m, a, b = CyclotomicNumber._common(self, other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        vec = [sa * u + sb * v for u, v in zip(a, b)]
        return CyclotomicNumber._make(m, vec, den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        try:
            other = CyclotomicNumber._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return CyclotomicNumber._coerce(other) - self

    def __mul__(self, other):
        try:
            other = CyclotomicNumber._coerce(other)
        except TypeError:
            return NotImplemented
        if self.conductor == 1:
            c, d = self.num[0], self.den
            return CyclotomicNumber._make(
                other.conductor, [c * v for v in other.num], d * other.den)
        if other.conductor == 1:
            c, d = other.num[0], other.den
            return CyclotomicNumber._make(
                self.conductor, [c * v for v in self.num], d * self.den)
        m, a, b = CyclotomicNumber._common(self, other)
        vec = [0] * (2 * len(a) - 1)
        _polymul_into(vec, [(i, c) for i, c in enumerate(a) if c],
                      [(i, c) for i, c in enumerate(b) if c])
        return CyclotomicNumber._make(m, vec, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero:
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        m = self.conductor
        if m == 1:
            return CyclotomicNumber._make(1, [self.den], self.num[0])
        if _root_exponent(self) is not None:
            return self.conjugate()
        # x times the product of its other Galois conjugates is the norm
        rest = math.prod(self.galois(j) for j in range(2, m) if math.gcd(j, m) == 1)
        return rest * (1 / (self * rest).rational_value())

    def __truediv__(self, other):
        try:
            other = CyclotomicNumber._coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CyclotomicNumber._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        return power(self, e, CyclotomicNumber.from_rational(1))

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        try:
            other = CyclotomicNumber._coerce(other)
        except TypeError:
            return NotImplemented
        if self.conductor == other.conductor:
            return self.num == other.num and self.den == other.den
        return (self - other).is_zero

    def __hash__(self):
        if self._hash is None:
            c = self.canonical()
            self._hash = hash((c.conductor, c.num, c.den))
        return self._hash

    # -- Galois action -------------------------------------------------------

    def galois(self, j: int) -> "CyclotomicNumber":
        """Image under zeta_m -> zeta_m^j; j must be coprime to the conductor."""
        m = self.conductor
        if m == 1:
            return self
        j %= m
        if math.gcd(j, m) != 1:
            raise ValueError("Galois exponent must be coprime to the conductor")
        # z^k -> z^(kj mod m) permutes the powers below m; only those at or
        # past phi(m) are reduced
        out = [0] * m
        for k, c in enumerate(self.num):
            out[k * j % m] = c
        y = CyclotomicNumber._make(m, out, self.den)
        if self._canon is self:
            # conjugates share their minimal field
            y._canon = y
        return y

    def conjugate(self) -> "CyclotomicNumber":
        return self.galois(-1)

    # -- canonical (minimal conductor) form -----------------------------------

    def canonical(self) -> "CyclotomicNumber":
        """self stored in its minimal field Q(zeta_f), f never 2 mod 4.

        A value at conductor m lies in Q(zeta_(m/p)) exactly when it
        equals its relative trace divided by the degree, and Q(zeta_a)
        and Q(zeta_b) meet in Q(zeta_gcd(a, b)); so stepping down one
        prime of the conductor at a time while that holds reaches f.  The
        result is memoised on self and on itself.
        """
        if self._canon is not None:
            return self._canon
        x = self
        for p in prime_factors(x.conductor):
            while x.conductor % p == 0:
                vec, scale = _relative_trace(x.conductor, x.num, p)
                y = CyclotomicNumber._make(x.conductor // p, vec, x.den * scale)
                if y != x:
                    break
                x = y
        self._canon = x
        x._canon = x
        return x

    # -- torsion -------------------------------------------------------------

    def multiplicative_order(self):
        """Order of self in the unit group, or None when not a root of unity."""
        if self.is_zero:
            raise ValueError("zero has no multiplicative order")
        hit = _root_exponent(self)
        if hit is None:
            return None
        negated, j = hit
        m = self.conductor
        order = m // math.gcd(m, j)
        # an odd order doubles under negation
        return 2 * order if negated else order

    # -- serialisation and display --------------------------------------------

    def to_json(self) -> dict:
        c = self.canonical()
        # str(Fraction(v, 1)) == str(v), and most values are integral
        coeffs = (list(map(str, c.num)) if c.den == 1
                  else [str(Fraction(v, c.den)) for v in c.num])
        return {"conductor": c.conductor, "coeffs": coeffs}

    def __str__(self):
        c = self.canonical()
        if c.conductor == 1:
            return str(c.rational_value())
        parts = []
        for k, v in enumerate(c.num):
            if not v:
                continue
            coef = v if c.den == 1 else Fraction(v, c.den)
            if k == 0:
                parts.append(str(coef))
            else:
                mono = f"z{c.conductor}" if k == 1 else f"z{c.conductor}^{k}"
                if coef == 1:
                    parts.append(mono)
                elif coef == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{coef}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"CyclotomicNumber({self})"


# ---------------------------------------------------------------------------
# relative traces, torsion

def _relative_trace(m: int, vec, p: int) -> tuple[list[int], int]:
    # (vec', scale): the trace of vec from Q(zeta_m) to Q(zeta_n), n = m/p,
    # divided by its degree, is vec' / scale over the powers of
    # zeta_n = zeta_m^p.  When p | n the p conjugates over Q(zeta_n) send
    # zeta_m to zeta_p^s zeta_m: they fix zeta_m^(p j) = zeta_n^j and sum
    # every other power to 0.  Otherwise zeta_m = zeta_p^b zeta_n^a with
    # a = p^-1 mod n, b = n^-1 mod p, and the p - 1 conjugates zeta_p ->
    # zeta_p^s send zeta_m^i to a sum of zeta_p^(b i s) zeta_n^(a i), which
    # is (p - 1) zeta_n^(a i) when p | i and -zeta_n^(a i) when not.
    n = m // p
    if n % p == 0:
        return list(vec[::p]), 1
    a = pow(p, -1, n)
    return _row_sum(n, (((a * i) % n, c * (p - 1) if i % p == 0 else -c)
                        for i, c in enumerate(vec))), p - 1


_ZERO = CyclotomicNumber.from_rational(0)


def _sparse_rows(rows, m: int) -> tuple[int, list[list[list[tuple[int, int]]]]]:
    # (den, lifted): each entry of rows inside Q(zeta_m) as its nonzero
    # (index, coefficient) pairs over the common denominator den of rows.
    # The pairs go in lists: CPython keeps up to 2000 freed tuples of each
    # length below 20 for reuse, and tuples of every length up to phi(m)
    # raised the peak memory of a sweep pass by a tenth.
    den = math.lcm(*[v.den for r in rows for v in r])
    lifted = []
    for r in rows:
        out = []
        for v in r:
            s = den // v.den
            if v.conductor == 1:
                c = v.num[0]
                out.append([(0, s * c)] if c else [])
            else:
                out.append([(i, s * c) for i, c in enumerate(v._lift(m)) if c])
        lifted.append(out)
    return den, lifted


def matmul(left, right) -> list[list[CyclotomicNumber]]:
    """Rows of the product of two matrices over cyclotomic fields, each
    given by its rows of CyclotomicNumbers.

    Every output entry is one integer sum of products in Q(zeta_m), m the
    lcm of all conductors, reduced mod Phi_m and normalised once; no
    CyclotomicNumber product or sum is formed on the way.
    """
    m = math.lcm(*[v.conductor for rows in (left, right) for r in rows for v in r])
    den_left, a = _sparse_rows(left, m)
    den_right, b = _sparse_rows(right, m)
    den = den_left * den_right
    width = 2 * euler_phi(m) - 1
    cols = list(zip(*b))
    out = []
    for row in a:
        new = []
        for col in cols:
            vec = [0] * width
            for x, y in zip(row, col):
                _polymul_into(vec, x, y)
            new.append(CyclotomicNumber._make(m, vec, den) if any(vec) else _ZERO)
        out.append(new)
    return out


def dot(u, v) -> CyclotomicNumber:
    """sum_k u[k] * v[k], through ``matmul``."""
    return matmul([u], [[y] for y in v])[0][0]


# ---------------------------------------------------------------------------
# public operations

def root_of_unity(m: int, j: int) -> CyclotomicNumber:
    """zeta_m^j at its minimal conductor."""
    if m < 1:
        raise ValueError("conductor must be positive")
    j %= m
    g = math.gcd(j, m)
    n, e = m // g, j // g
    if n == 1:
        return CyclotomicNumber.from_rational(1)
    x = CyclotomicNumber._make(n, _row_sum(n, [(e, 1)]), 1)
    # a primitive n-th root generates Q(zeta_n), so it is stored in its
    # minimal field
    x._canon = x
    return x


def multiplicative_order(x: CyclotomicNumber):
    return x.multiplicative_order()


def root_power_sums(x: CyclotomicNumber, sums: Iterable) -> list[CyclotomicNumber]:
    """[sum c x^k over the pairs (k, c) of terms, for terms in sums] for a
    root of unity x, with integer exponents k and coefficients c.

    x is +-zeta_m^j in its field, so x^k is (+-1)^k zeta_m^(jk mod m):
    x's exponent is searched for once, and each sum is one integer vector
    over the reduction rows of Phi_m, with no field product formed.
    Raises ValueError when x is not a root of unity.
    """
    hit = _root_exponent(x)
    if hit is None:
        raise ValueError("not a root of unity")
    negated, j = hit
    m = x.conductor
    return [CyclotomicNumber._make(m, _row_sum(m, (
        (j * k % m, -c if negated and k % 2 else c) for k, c in terms)), 1) for terms in sums]


def galois_conjugates(x: CyclotomicNumber) -> list[CyclotomicNumber]:
    """Orbit of x under the Galois group of its minimal field, ascending exponent."""
    c = x.canonical()
    m = c.conductor
    return [c.galois(j) for j in range(1, m + 1) if math.gcd(j, m) == 1]
