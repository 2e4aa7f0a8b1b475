"""The reduced Burau representation over cyclotomic fields, and projective
2x2 linear algebra.

Convention: the n=3 image of the squared generators is always taken at
parameter -q, so that with a caller-supplied q

    A = [[q^2, 1+q], [0, 1]],  B = [[1, 0], [-q-q^2, q^2]],
    C = (image of the centre) = -q^3 * Id.

These closed forms are the definitions ``squared_images`` returns; the
test suite proves once that they equal the generator products for every q.

``root_eigen_powers`` raises a 2x2 matrix whose eigenvalues are signed
powers of a root of unity q, as those of A, B (q^2, 1) and AB (-q, -q^3)
are, by Cayley-Hamilton: each power is c_m m + c_I I with coefficients
that are sums of powers of q, all from one ``root_power_sums``, after an
exact check of the pair against the trace and the determinant.  The relation
families take every power of A, B and AB from it;
``CycloMatrix.__pow__`` (square-and-multiply) stays the generic path.

``first_scalar_word`` is the one search for a scalar product of 2x2
matrices, run by the relation oracle over x, x^-1, y, y^-1 and by
``projective_order`` over one letter.  It works on residues modulo a
prime p = 1 (mod m) below 2^30, so that every residue is one digit of a
CPython int, proven prime by a deterministic Miller-Rabin test, prime
to every denominator and to every letter's determinant.  It meets in
the middle: half-words are matched by their projective classes mod p
instead of walking the whole word tree, and the powers of one letter
by baby and giant steps instead of one power at a time.
"""

from __future__ import annotations

import functools
import math
import operator

from .cyclotomic import (CyclotomicNumber, cyclotomic_polynomial, dot, matmul,
                         root_power_sums)
from .words import GroupWord, evaluate_word, power

__all__ = ["CycloMatrix", "burau_generator", "burau_eval", "squared_images",
           "root_eigen_powers", "first_scalar_word", "projective_order"]

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)


class CycloMatrix:
    """Small dense matrix over a cyclotomic field."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    @staticmethod
    def identity(n: int) -> "CycloMatrix":
        return CycloMatrix([[_ONE if i == j else _ZERO for j in range(n)]
                            for i in range(n)])

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __mul__(self, other: "CycloMatrix") -> "CycloMatrix":
        """The product through the fused kernel ``cyclotomic.matmul``: each
        entry is one integer sum of products over Q(zeta_m), m the lcm of
        the conductors of both factors, reduced mod Phi_m and normalised
        once, with no field product or sum built per term."""
        return CycloMatrix(matmul(self.rows, other.rows))

    def __pow__(self, e: int) -> "CycloMatrix":
        return power(self, e, CycloMatrix.identity(self.size))

    def __eq__(self, other):
        return isinstance(other, CycloMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def det2(self) -> CyclotomicNumber:
        (a, b), (c, d) = self.rows
        return dot((a, b), (d, -c))

    def inverse(self) -> "CycloMatrix":
        """The inverse of a 2x2 matrix, by its adjugate; 2x2 only, other sizes
        raise ValueError (``burau_eval`` inverts generators in closed form)."""
        if self.size != 2:
            raise ValueError("only 2x2 matrices are inverted")
        (a, b), (c, d) = self.rows
        dinv = self.det2().inverse()
        return CycloMatrix([[d * dinv, -b * dinv], [-c * dinv, a * dinv]])

    def is_scalar(self) -> bool:
        n = self.size
        d0 = self.rows[0][0]
        for i in range(n):
            for j in range(n):
                if i == j:
                    if not (self.rows[i][j] == d0):
                        return False
                elif not self.rows[i][j].is_zero:
                    return False
        return True

    def scalar_value(self) -> CyclotomicNumber | None:
        return self.rows[0][0] if self.is_scalar() else None

    def transpose_conjugate(self) -> "CycloMatrix":
        n = self.size
        return CycloMatrix([[self.rows[j][i].conjugate() for j in range(n)]
                            for i in range(n)])

    def __str__(self):
        return "[" + "; ".join(", ".join(str(v) for v in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"CycloMatrix({self})"


# ---------------------------------------------------------------------------

def _elementary(size: int, r: int, left, mid, right) -> CycloMatrix:
    # the identity with row r reading (left, mid, right) in the columns
    # r - 1, r, r + 1, those outside the matrix left out
    rows = [[_ONE if i == c else _ZERO for c in range(size)] for i in range(size)]
    for c, v in ((r - 1, left), (r, mid), (r + 1, right)):
        if 0 <= c < size:
            rows[r][c] = v
    return CycloMatrix(rows)


def burau_generator(n: int, j: int, q: CyclotomicNumber) -> CycloMatrix:
    """Image of the j-th standard generator of B_n, an (n-1)x(n-1) matrix:
    the identity with row j reading (q, -q, 1) around the diagonal."""
    if n < 2:
        raise ValueError("need at least two strands")
    if not 1 <= j <= n - 1:
        raise ValueError("generator index out of range")
    if q.is_zero:
        raise ValueError("parameter must be nonzero")
    return _elementary(n - 1, j - 1, q, -q, _ONE)


def burau_eval(w: GroupWord, q: CyclotomicNumber) -> CycloMatrix:
    """Product of generator images along a braid word, at parameter q; a
    negative syllable is a power of the closed-form inverse generator, whose
    row j reads (1, -1/q, 1/q) around the diagonal."""
    n = w.context.strands
    if n is None:
        raise ValueError("word does not live in a braid group")
    images = [burau_generator(n, j, q) for j in range(1, n)]
    qi = q.inverse()
    inverses = [_elementary(n - 1, j, _ONE, -qi, qi) for j in range(n - 1)]
    one = CycloMatrix.identity(n - 1)
    result = None
    for g, e in w.syllables:
        acc = power(images[g], e, one) if e > 0 else power(inverses[g], -e, one)
        result = acc if result is None else result * acc
    return one if result is None else result


def squared_images(q: CyclotomicNumber) -> tuple[CycloMatrix, CycloMatrix, CycloMatrix]:
    """(A, B, C) for the n=3 representation at parameter -q, in closed form.

    A and B are the images of the squared generators, C the image of the
    full twist.  The closed forms are the definitions; the tests prove that
    they equal the generator products at every q.  At q = -1 the pair
    degenerates to the identity (the callers that care flag that case
    themselves).
    """
    if q.is_zero:
        raise ValueError("parameter must be nonzero")
    q2 = q * q
    mq3 = -(q2 * q)
    return (CycloMatrix([[q2, _ONE + q], [_ZERO, _ONE]]),
            CycloMatrix([[_ONE, _ZERO], [-q - q2, q2]]),
            CycloMatrix([[mq3, _ZERO], [_ZERO, mq3]]))


def root_eigen_powers(m: CycloMatrix, q: CyclotomicNumber, lam: tuple[int, int],
                      mu: tuple[int, int], exponents) -> list[CycloMatrix]:
    """[m^e for e in exponents] for a 2x2 m whose eigenvalues are
    lam = s q^a and mu = t q^b, each given as (sign s or t = +-1,
    exponent a or b), for a root of unity q.

    By Cayley-Hamilton, with U_n = sum_(j<n) lam^j mu^(n-1-j),

        m^n = U_n m - lam mu U_(n-1) I              (n >= 1),
        m^-n = (lam mu)^-n (U_(n+1) I - U_n m)      (n >= 0),

    also when lam = mu.  Each coefficient is a sum of (exponent of q,
    coefficient) terms, one per j up to the period of the terms in j and
    counted once per period; one ``root_power_sums`` makes every sum, and
    every power is a row of one product [[c_m, c_I], ...] [[m], [I]]: no
    power, product or inverse of m is formed.  Before any use the pair is
    checked exactly against the trace and the determinant of m, raising
    ValueError when either differs.
    """
    if m.size != 2:
        raise ValueError("only 2x2 matrices are powered by their eigenvalues")
    (s, a), (t, b) = lam, mu
    if s not in (1, -1) or t not in (1, -1):
        raise ValueError("eigenvalue signs must be 1 or -1")
    order = q.multiplicative_order()
    if order is None:
        raise ValueError("q must be a root of unity")
    # the j-th term of U_n is t^(n-1) (s t)^j q^(b (n-1) + (a-b) j): periodic in j
    period = math.lcm(1 if s == t else 2, order // math.gcd(order, a - b))

    def root_sum(n: int, c: int, x: int) -> list[tuple[int, int]]:
        # the terms of c q^x U_n, c = +-1
        full, rest = divmod(n, period)
        sign = c * t ** ((n - 1) % 2)
        terms = []
        for j in range(min(n, period)):
            terms.append((x + b * (n - 1) + (a - b) * j, sign * (full + (j < rest))))
            sign *= s * t
        return terms

    sums = [root_sum(2, 1, 0), root_sum(1, s * t, a + b)]
    for e in exponents:
        if e > 0:
            sums += [root_sum(e, 1, 0), root_sum(e - 1, -s * t, a + b)]
        else:
            # (lam mu)^e = (s t)^e q^(e (a + b))
            c = s * t if e % 2 else 1
            sums += [root_sum(-e, -c, e * (a + b)), root_sum(1 - e, c, e * (a + b))]
    trace, det, *coefficients = root_power_sums(q, sums)
    (m00, m01), (m10, m11) = m.rows
    if m00 + m11 != trace or m.det2() != det:
        raise ValueError("eigenvalues do not match the trace and determinant")
    rows = matmul([coefficients[i:i + 2] for i in range(0, len(coefficients), 2)],
                  [[m00, m01, m10, m11], [_ONE, _ZERO, _ZERO, _ONE]])
    return [CycloMatrix([row[:2], row[2:]]) for row in rows]


def pair_word_eval(w: GroupWord, a: CycloMatrix, b: CycloMatrix) -> CycloMatrix:
    """Evaluate a word over a two-letter alphabet at the matrices (a, b)."""
    names = w.context.names
    if len(names) != 2:
        raise ValueError("expected a two-generator word")
    return evaluate_word(w, {names[0]: a, names[1]: b}, CycloMatrix.identity(a.size))


# ---------------------------------------------------------------------------
# the scalar search runs modulo a prime p = 1 (mod m) just below 2^30:
# on a 64-bit CPython an int digit has 30 bits, so every residue is one
# digit and products and remainders take the one-digit paths
_RESIDUE_BITS = 30
# bases a tried for a root a^((p - 1) / m) of Phi_m modulo one p
_ROOT_TRIES = 64
# the primes up to 7: as Miller-Rabin bases they decide primality exactly
# below the least strong pseudoprime to all four, 3,215,031,751 =
# 151 * 751 * 28351 (Pomerance, Selfridge and Wagstaff, "The
# pseudoprimes to 25 * 10^9", Math. Comp. 35, 1980), and every modulus
# of the scalar search lies below 2^30, under it
_WITNESS_BASES = (2, 3, 5, 7)
_FOUR_BASES_BOUND = 3215031751


def _is_prime(n: int) -> bool:
    """Whether n < 3,215,031,751 is prime, by the deterministic
    Miller-Rabin test over the bases 2, 3, 5 and 7."""
    if n >= _FOUR_BASES_BOUND:
        raise ValueError(f"primality is decided below {_FOUR_BASES_BOUND} only")
    if n < 2:
        return False
    for b in _WITNESS_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _WITNESS_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_at(coeffs, r: int, p: int) -> int:
    # the integer polynomial with these coefficients, constant first, at r
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % p
    return acc


@functools.lru_cache(maxsize=64)
def _split_root(m: int, avoid: int) -> tuple[int, int]:
    """(p, r) with p a prime = 1 (mod m) coprime to avoid and
    Phi_m(r) = 0 (mod p).

    p walks down the integers 1 (mod m) below 2^30, skipping those that
    ``_is_prime`` rejects or that share a factor with avoid, and r is the
    first a^((p - 1) / m), a = 2, 3, ..., that is a root of Phi_m; past
    _ROOT_TRIES bases the walk moves on.  A prime p = 1 (mod m) splits
    completely in Q(zeta_m) (Washington, *Introduction to Cyclotomic
    Fields*, Thm 2.13), so a root turns up within a few bases."""
    phi = cyclotomic_polynomial(m)
    p = ((1 << _RESIDUE_BITS) - 2) // m * m + 1
    while True:
        if math.gcd(p, avoid) == 1 and _is_prime(p):
            for a in range(2, 2 + _ROOT_TRIES):
                r = pow(a, (p - 1) // m, p)
                if not _poly_at(phi, r, p):
                    return p, r
        p -= m


def _residue_map(m: int, p: int, r: int):
    """The ring map zeta_m -> r from Z[zeta_m] into Z/p, on values whose
    conductor c divides m, each a polynomial in zeta_m^(m/c) mapped
    through r^(m/c).

    Z[zeta_m] is Z[x] / Phi_m, so this is a ring map exactly when
    Phi_m(r) = 0 (mod p), on denominators invertible mod p; both are
    checked, raising ArithmeticError.
    """
    if _poly_at(cyclotomic_polynomial(m), r, p):
        raise ArithmeticError(f"{r} is not a root of Phi_{m} modulo {p}")

    def residue(v: CyclotomicNumber) -> int:
        if math.gcd(v.den, p) != 1:
            raise ArithmeticError(f"denominator {v.den} is not invertible modulo {p}")
        return _poly_at(v.num, pow(r, m // v.conductor, p), p) * pow(v.den, -1, p) % p

    return residue


def _letter_residues(letters: dict) -> tuple[int, dict]:
    """(p, residue matrices of the letters mod p), each flattened to
    (m00, m01, m10, m11), for the first prime p of ``_split_root`` at
    which every letter's determinant is a unit; a letter singular mod p
    moves the search on to the next prime, and an exactly singular one
    raises ValueError."""
    entries = [v for mat in letters.values() for row in mat.rows for v in row]
    m = math.lcm(*(v.conductor for v in entries))
    avoid = math.lcm(*(v.den for v in entries))
    while True:
        p, r = _split_root(m, avoid)
        residue = _residue_map(m, p, r)
        images = {k: tuple(residue(v) for row in mat.rows for v in row)
                  for k, mat in letters.items()}
        singular = [k for k, (a, b, c, d) in images.items() if (a * d - b * c) % p == 0]
        if not singular:
            return p, images
        if any(letters[k].det2().is_zero for k in singular):
            raise ValueError("letters must be invertible")
        avoid *= p


def _projective_keys(mats: list, p: int) -> list[tuple]:
    """Each invertible residue matrix mod the prime p scaled so that its
    first nonzero entry of m00, m01 is 1: equal exactly when the matrices
    are proportional.  One modular inversion serves the whole list
    (Montgomery's batch inversion: prefix products, one inverse, and a
    walk back)."""
    pivots = [m00 or m01 for m00, m01, _, _ in mats]
    prefix, acc = [], 1
    for x in pivots:
        prefix.append(acc)
        acc = acc * x % p
    inv = pow(acc, -1, p)
    keys = [()] * len(mats)
    for i in range(len(mats) - 1, -1, -1):
        s = inv * prefix[i] % p
        inv = inv * pivots[i] % p
        m00, m01, m10, m11 = mats[i]
        keys[i] = (m00 * s % p, m01 * s % p, m10 * s % p, m11 * s % p)
    return keys


def _residue_product(x: tuple, y: tuple, p: int) -> tuple:
    # the product of two flattened 2x2 residue matrices mod p
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return ((x00 * y00 + x01 * y10) % p, (x00 * y01 + x01 * y11) % p,
            (x10 * y00 + x11 * y10) % p, (x10 * y01 + x11 * y11) % p)


def _adjugate(x: tuple, p: int) -> tuple:
    m00, m01, m10, m11 = x
    return m11, -m01 % p, -m10 % p, m00


def first_scalar_word(letters: dict, max_len: int):
    """Syllables of the first reduced word of length <= max_len whose
    product of 2x2 letter matrices is scalar, or None when there is none.

    ``letters`` maps syllables (generator, 1 or -1) to invertible
    matrices; words are taken by length and, within a length, in the
    lexicographic order of the letters' order (breadth-first), and a
    letter never follows its inverse.  The letters are mapped once into
    Z/p by ``_residue_map``, m the lcm of their conductors and p a prime
    at which no letter is singular.  An exactly scalar product has a
    scalar residue matrix, so only a word whose residue product is
    scalar gets its exact product checked.

    The residues meet in the middle (Shanks' baby-step giant-step): a
    word of length l is u v with |v| = l // 2, and u v is scalar mod p
    exactly when u is proportional to adj(v), as every residue is
    invertible.  So the reduced half-words are built once per length, in
    search order, u keyed by its projective class and v by that of
    adj(v); for each l the u's are scanned in order against the v's with
    the same key, in order, a v whose first letter cancels u's last
    skipped.  With one letter M the words are its powers, and with
    b = isqrt(max_len) + 1 the power M^(g b + i), i < b, is scalar mod p
    exactly when M^i is proportional to adj(M^b)^g, a multiple of
    M^(-g b): the b baby steps M^i are keyed once and each giant step is
    looked up among them, about 2 sqrt(max_len) residue products.
    """
    if max_len < 1:
        raise ValueError("length bound must be positive")
    if any(mat.size != 2 for mat in letters.values()):
        raise ValueError("only 2x2 matrices are searched")
    p, images = _letter_residues(letters)
    if len(images) == 1:
        return _first_scalar_power(letters, p, images, max_len)
    # the letters that may follow a word's last letter: all but its
    # inverse, and all of them after the empty word
    after = {(g, e): [(k, im) for k, im in images.items() if k != (g, -e)] for g, e in images}
    after[None] = list(images.items())
    # levels[k]: the reduced words of length k in search order, each
    # (word, first letter, last letter, residue matrix); a word is the
    # nested pair (word before, last letter), never copied
    levels = [[((), None, None, (1, 0, 0, 1))]]
    u_keys, v_index = {}, {}
    for length in range(1, max_len + 1):
        v_len = length // 2
        u_len = length - v_len
        if u_len == len(levels):
            levels.append([((path, key), first or key, key, _residue_product(mat, im, p))
                           for path, first, last, mat in levels[-1]
                           for key, im in after[last]])
        if u_len not in u_keys:
            u_keys[u_len] = _projective_keys([w[3] for w in levels[u_len]], p)
        if v_len not in v_index:
            index = v_index[v_len] = {}
            adjugates = [_adjugate(w[3], p) for w in levels[v_len]]
            for (path, first, _, _), key in zip(levels[v_len], _projective_keys(adjugates, p)):
                index.setdefault(key, []).append((path, first))
        index = v_index[v_len]
        for (path, _, last, _), key in zip(levels[u_len], u_keys[u_len]):
            for v_path, v_first in index.get(key, ()):
                if v_first == (last[0], -last[1]):
                    continue
                sylls = _syllables(path) + _syllables(v_path)
                if _is_scalar_product(letters, sylls):
                    return sylls
    return None


def _first_scalar_power(letters: dict, p: int, images: dict, max_len: int):
    # the one-letter search of ``first_scalar_word``: the hits n = g b + i,
    # 1 <= n <= max_len, come in ascending order of g and then of i
    ((letter, image),) = images.items()
    b = math.isqrt(max_len) + 1
    baby = [(1, 0, 0, 1)]
    for _ in range(b):
        baby.append(_residue_product(baby[-1], image, p))
    step = _adjugate(baby.pop(), p)
    giants = [(1, 0, 0, 1)]
    for _ in range(max_len // b):
        giants.append(_residue_product(giants[-1], step, p))
    index = {}
    for i, key in enumerate(_projective_keys(baby, p)):
        index.setdefault(key, []).append(i)
    for g, key in enumerate(_projective_keys(giants, p)):
        for i in index.get(key, ()):
            if 1 <= g * b + i <= max_len:
                sylls = (letter,) * (g * b + i)
                if _is_scalar_product(letters, sylls):
                    return sylls
    return None


def _is_scalar_product(letters: dict, sylls: tuple) -> bool:
    return functools.reduce(operator.mul, (letters[s] for s in sylls)).is_scalar()


def _syllables(path) -> tuple:
    # the letters of a word kept as nested pairs (word before, last letter)
    sylls = []
    while path:
        path, key = path
        sylls.append(key)
    return tuple(reversed(sylls))


def projective_order(m: CycloMatrix, bound: int) -> int | None:
    """Least n <= bound with m^n scalar, or None when the bound is exceeded:
    the one-letter scalar search, so 2x2 and invertible only."""
    sylls = first_scalar_word({(0, 1): m}, bound)
    return None if sylls is None else len(sylls)
