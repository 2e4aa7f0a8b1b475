"""Optional crosschecks against an independent computer-algebra system.

These only run when sympy happens to be installed; the package itself
never imports it.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from burauforge import burau
from burauforge.cyclotomic import (CyclotomicNumber, cyclotomic_polynomial,
                                   euler_phi)


def test_cyclotomic_polynomials_match():
    x = sympy.Symbol("x")
    for m in range(1, 60):
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(m)) == [int(c) for c in theirs], m


def test_field_products_match_numerically():
    rng = random.Random(123)
    for _ in range(10):
        m = rng.choice([5, 7, 8, 12])
        d = euler_phi(m)
        z = sympy.exp(2 * sympy.pi * sympy.I / m)
        c1 = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        c2 = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        x1 = CyclotomicNumber.from_coefficients(m, c1)
        x2 = CyclotomicNumber.from_coefficients(m, c2)
        s1 = sum(int(c) * z ** k for k, c in enumerate(c1))
        s2 = sum(int(c) * z ** k for k, c in enumerate(c2))
        want = complex(sympy.N(s1 * s2, 30))
        prod = x1 * x2
        got = sum(complex(sympy.N(z ** k, 30)) * float(Fraction(v, prod.den))
                  for k, v in enumerate(prod._lift(m)))
        assert abs(want - got) <= 1e-14 * max(1.0, abs(want)), m


def test_primality_matches_sympy_below_its_bound():
    # random integers of every size below the bound of the four-base test,
    # 3,215,031,751, and the walk's own candidates p = 1 (mod m) just
    # below 2^30
    rng = random.Random(61)
    ns = [rng.randrange(1 << rng.randint(2, 31)) for _ in range(2000)]
    ns += [rng.randrange(1 << 31, burau._FOUR_BASES_BOUND) for _ in range(1000)]
    for m in (7, 60, 1021):
        top = ((1 << 30) - 2) // m * m + 1
        ns += range(top, top - 200 * m, -m)
    for n in ns:
        assert burau._is_prime(n) == sympy.isprime(n), n
