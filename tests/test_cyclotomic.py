import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from burauforge import cyclotomic
from burauforge.cyclotomic import (CyclotomicNumber, _polymul_into,
                                   _reduction_rows, _unpack_into,
                                   cyclotomic_polynomial, euler_phi,
                                   galois_conjugates, matmul,
                                   multiplicative_order, prime_factors,
                                   root_of_unity, root_power_sum)

C = CyclotomicNumber


def rational(v):
    return C.from_rational(v)


def trial_order(x, bound):
    # independent oracle: successive powers compared against one
    power = x
    for n in range(1, bound + 1):
        if power == 1:
            return n
        power = power * x
    return None


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7


def test_root_of_unity_examples():
    assert root_of_unity(4, 2) == rational(-1)
    total = sum((root_of_unity(5, j) for j in range(1, 5)), rational(0))
    assert total == rational(-1)
    z12 = root_of_unity(12, 1)
    assert root_of_unity(12, 4) == z12 * z12 - 1  # x^4 mod (x^4 - x^2 + 1)
    assert root_of_unity(12, 4).conductor == 3


def test_arithmetic_examples():
    z8 = root_of_unity(8, 1)
    assert z8 * root_of_unity(8, 7) == 1
    assert rational(2).inverse() == Fraction(1, 2)
    assert root_of_unity(3, 1) * root_of_unity(4, 1) == root_of_unity(12, 7)


def test_inverse_of_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        rational(0).inverse()


def test_multiplicative_order_examples():
    assert multiplicative_order(root_of_unity(10, 3)) == 10
    assert multiplicative_order(-root_of_unity(5, 1)) == 10
    assert multiplicative_order(rational(2)) is None
    with pytest.raises(ValueError):
        multiplicative_order(rational(0))


def test_order_consistency_sweep():
    for m in range(1, 61):
        for j in range(m):
            expected = m // math.gcd(m, j)
            assert multiplicative_order(root_of_unity(m, j)) == expected


def test_order_matches_trial_powers():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 30)
        j = rng.randint(0, m - 1)
        x = root_of_unity(m, j)
        sign = rng.choice([1, -1])
        if sign < 0:
            x = -x
        assert multiplicative_order(x) == trial_order(x, 2 * m + 2)


def test_galois_conjugates():
    z4 = root_of_unity(4, 1)
    assert galois_conjugates(z4) == [z4, -z4]
    assert len(galois_conjugates(root_of_unity(5, 1))) == 4
    assert galois_conjugates(rational(3)) == [rational(3)]


def test_canonical_reduction():
    z12 = root_of_unity(12, 1)
    x = (z12 ** 4).canonical()
    assert x.conductor == 3
    assert x == root_of_unity(3, 1)
    # rationals always collapse to conductor 1
    y = z12 ** 12
    assert y.conductor == 1 and y == 1


def test_order_lookup_without_canonical_form():
    # a cube root stored at conductor 12 is still recognised
    z12 = root_of_unity(12, 1)
    x = z12 ** 4
    assert x.conductor == 12
    assert multiplicative_order(x) == 3
    assert multiplicative_order(-x) == 6


def test_equality_is_canonical_coefficient_comparison():
    # same value reached through different conductors
    a = root_of_unity(12, 4)
    b = root_of_unity(3, 1)
    assert a == b
    ca, cb = a.canonical(), b.canonical()
    assert ca.conductor == cb.conductor and ca.num == cb.num and ca.den == cb.den
    assert hash(a) == hash(b)


def test_serialisation_roundtrip():
    x = root_of_unity(12, 1) / 3 + rational(Fraction(1, 2))
    data = x.to_json()
    assert set(data) == {"conductor", "coeffs"}
    assert C.from_coefficients(data["conductor"], data["coeffs"]) == x


def _fraction_str(x):
    # the printed form with every coefficient a Fraction
    c = x.canonical()
    if c.conductor == 1:
        return str(c.rational_value())
    parts = []
    for k, v in enumerate(c.num):
        coef = Fraction(v, c.den)
        if not coef:
            continue
        if k == 0:
            parts.append(str(coef))
        else:
            mono = f"z{c.conductor}" if k == 1 else f"z{c.conductor}^{k}"
            parts.append(mono if coef == 1 else f"-{mono}" if coef == -1 else f"{coef}*{mono}")
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


@given(st.integers(min_value=1, max_value=40), st.data())
@settings(max_examples=150, deadline=None)
def test_printed_forms_match_the_fraction_path(m, data):
    # integral values print without building a Fraction, and must print
    # what the Fraction path prints, with or without a denominator
    den = data.draw(st.sampled_from([1, 1, 2, 3, 6]))
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=euler_phi(m),
                                max_size=euler_phi(m)))
    x = C.from_coefficients(m, [Fraction(v, den) for v in coeffs])
    c = x.canonical()
    assert x.to_json() == {"conductor": c.conductor,
                           "coeffs": [str(Fraction(v, c.den)) for v in c.num]}
    assert str(x) == _fraction_str(x)


def _stored(x):
    return x.conductor, x.num, x.den


def reference_canonical(x):
    # The least divisor d of the conductor m, d not 2 mod 4, whose Galois
    # subgroup {j = 1 mod d} fixes x; then the coordinates of x over the
    # powers of zeta_m^(m/d) by a Fraction solve.
    m = x.conductor
    d = next(d for d in range(1, m + 1) if m % d == 0 and d % 4 != 2 and all(
        x.galois(j) == x for j in range(1 + d, m, d) if math.gcd(j, m) == 1))
    if d == m:
        return x
    rows, dd = reference_reduction_rows(m), euler_phi(d)
    aug = [[Fraction(rows[(m // d * s) % m][r]) for s in range(dd)] + [Fraction(v, x.den)]
           for r, v in enumerate(x.num)]
    rref, pivots = row_reduce(aug)
    assert pivots == list(range(dd))
    return reference_canonical(C.from_coefficients(d, [row[dd] for row in rref[:dd]]))


@lru_cache(maxsize=8)
def reference_reduction_rows(m):
    # z^e reduced mod Phi_m as dense coefficient tuples, for e below
    # max(m, 2 phi(m) - 1): the dense reference for _reduction_rows
    d = euler_phi(m)
    phi = cyclotomic_polynomial(m)
    rows = []
    cur = [0] * d
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(1, max(m, 2 * d - 1)):
        top = cur[-1]
        nxt = [0] + cur[:-1]
        if top:
            for i in range(d):
                nxt[i] -= top * phi[i]
        cur = nxt
        rows.append(tuple(cur))
    return rows


def reference_fold(d, coeffs):
    # sum c_k zeta_2d^k for odd d, with zeta_2d = -zeta_d^((d+1)/2)
    z = -root_of_unity(d, (d + 1) // 2)
    return sum((c * z ** k for k, c in enumerate(coeffs)), rational(0))


def _at(m, d, coeffs):
    # x in Q(zeta_d), d | m, and the same value stored at conductor m
    x = C.from_coefficients(d, coeffs)
    return x, root_of_unity(m, 1) * x * root_of_unity(m, -1)


@st.composite
def stored_above_minimal(draw):
    m = draw(st.integers(min_value=1, max_value=130))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=euler_phi(d),
                           max_size=euler_phi(d)))
    den = draw(st.integers(min_value=1, max_value=6))
    return _at(m, d, [Fraction(c, den) for c in coeffs])


@given(stored_above_minimal())
@example(_at(64, 16, [1, 0, 2, 0, 0, 0, 0, -1]))           # 2^k
@example(_at(81, 9, [0, 1, 0, 0, 3, 0]))                    # p^k
@example(_at(60, 20, [1, 2, 0, 0, 0, 0, 0, 1]))             # 4 * odd
@example(_at(105, 15, [0, 1, 1, 0, 0, 0, 0, -2]))           # three primes
@example(_at(120, 24, [1, 0, 0, 0, 0, 0, 0, 1]))
@example(_at(126, 21, [1] + [0] * 11))
@settings(max_examples=120, deadline=None)
def test_canonical_agrees_with_reference(pair):
    x, y = pair
    assert y == x
    c = y.canonical()
    assert _stored(c) == _stored(reference_canonical(y))
    assert c.conductor % 4 != 2
    assert y.canonical() is c and c.canonical() is c
    assert hash(y) == hash(x) == hash(c)


@given(st.integers(min_value=0, max_value=64).map(lambda k: 2 * k + 1), st.data())
@settings(max_examples=120, deadline=None)
def test_even_conductor_fold_agrees_with_reference(d, data):
    coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=euler_phi(2 * d),
                                max_size=euler_phi(2 * d)))
    assert _stored(C.from_coefficients(2 * d, coeffs)) == _stored(reference_fold(d, coeffs))


def _random_element(rng, m):
    return C.from_coefficients(
        m, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(euler_phi(m))])


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_ring_axioms_random(m):
    rng = random.Random(100 + m)
    for _ in range(200):
        x = _random_element(rng, m)
        y = _random_element(rng, m)
        z = _random_element(rng, m)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if not x.is_zero:
            assert x * x.inverse() == 1
        assert (x + (-x)).num == (0,)


@given(st.integers(min_value=1, max_value=40), st.integers(), st.integers())
@settings(max_examples=80, deadline=None)
def test_root_exponents_multiply(m, i, j):
    assert root_of_unity(m, i) * root_of_unity(m, j) == root_of_unity(m, i + j)


@given(st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=24))
@settings(max_examples=60, deadline=None)
def test_cross_conductor_product_order(m1, m2):
    x = root_of_unity(m1, 1) * root_of_unity(m2, 1)
    lcm = math.lcm(m1, m2)
    assert multiplicative_order(x) == lcm // math.gcd(lcm // m1 + lcm // m2, lcm)


# ---------------------------------------------------------------------------
# inversion: field inverses are unique, so x * x^-1 == 1 decides the answer

_COEFF = st.one_of(st.just(0), st.integers(-4, 4),
                   st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def nonzero_elements(draw):
    m = draw(st.integers(min_value=1, max_value=40))
    x = C.from_coefficients(m, draw(st.lists(_COEFF, min_size=euler_phi(m),
                                             max_size=euler_phi(m))))
    assume(not x.is_zero)
    return x


@given(nonzero_elements())
@settings(max_examples=150, deadline=None)
def test_inverse_is_a_two_sided_involution(x):
    inv = x.inverse()
    assert x * inv == 1 and inv * x == 1
    assert inv.inverse() == x


@given(nonzero_elements(), st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_commutes_with_galois(x, data):
    m = x.conductor
    j = data.draw(st.sampled_from([j for j in range(1, m + 1) if math.gcd(j, m) == 1]))
    assert x.galois(j).inverse() == x.inverse().galois(j)


@given(st.integers(min_value=1, max_value=40), st.integers(), st.sampled_from([1, -1]))
@settings(max_examples=120, deadline=None)
def test_root_of_unity_inverse_is_its_conjugate(m, j, sign):
    x = sign * root_of_unity(m, j)
    assert x.inverse() == x.conjugate()
    assert x.inverse() == sign * root_of_unity(m, -j)


@pytest.mark.parametrize("offset", [1, 2])
def test_inverse_above_the_minimal_conductor(offset):
    # offset + zeta_3 at conductor 12, where zeta_3 = zeta_12^2 - 1;
    # offset 1 gives the root of unity zeta_12^2, offset 2 a non-unit
    x = C.from_coefficients(12, [offset - 1, 0, 1, 0])
    assert x.conductor == 12 and x == offset + root_of_unity(12, 4)
    assert x * x.inverse() == 1
    assert x.inverse() == (offset + root_of_unity(3, 1)).inverse()


def test_dense_non_unit_inverse_at_conductor_59():
    rng = random.Random(59)
    x = C.from_coefficients(59, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(euler_phi(59))])
    assert x.conductor == 59 and x.multiplicative_order() is None
    inv = x.inverse()
    assert x * inv == 1
    assert inv.inverse() == x


# ---------------------------------------------------------------------------
# products: the one product routine against the term-by-term loop and the
# dense reduction table, kept here as the reference

def reference_polymul(x, y, width):
    vec = [0] * width
    for i, c in x:
        for j, e in y:
            vec[i + j] += c * e
    return vec


def reference_product(x, y):
    # x * y: both lifted, multiplied term by term and reduced through the
    # dense table
    m = math.lcm(x.conductor, y.conductor)
    rows, d = reference_reduction_rows(m), euler_phi(m)

    def reduced(terms):
        out = [0] * d
        for e, c in terms:
            if c:
                for i, r in enumerate(rows[e]):
                    out[i] += c * r
        return out

    def lifted(v):
        t = m // v.conductor
        vec = reduced((k * t, c) for k, c in enumerate(v.num))
        return [(i, c) for i, c in enumerate(vec) if c]

    vec = reference_polymul(lifted(x), lifted(y), 2 * d - 1)
    return C.from_coefficients(m, [Fraction(c, x.den * y.den)
                                   for c in reduced(enumerate(vec))])


def _signed(rng, bits):
    return rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)


@st.composite
def coefficient_pairs(draw, d, most=None):
    # ascending nonzero (index, coefficient) pairs below d: all d of them,
    # or a sparse sample; coefficients up to 2^700 in absolute value
    rng = draw(st.randoms(use_true_random=False))
    bits = draw(st.sampled_from([1, 7, 8, 63, 64, 65, 200, 700]))
    if draw(st.booleans()) and (most is None or d <= most):
        indices = range(d)
    else:
        indices = sorted(rng.sample(range(d), rng.randint(0, min(d, 40))))
    return [(i, _signed(rng, bits)) for i in indices]


@st.composite
def polynomial_factors(draw):
    m = draw(st.integers(min_value=1, max_value=1024))
    d = euler_phi(m)
    return 2 * d - 1, draw(coefficient_pairs(d)), draw(coefficient_pairs(d))


_RNG = random.Random(1021)


@given(polynomial_factors())
@example((59, [(i, 1) for i in range(24)], [(i, -3) for i in range(23)]))   # 12 per digit
@example((59, [(i, 1) for i in range(24)], [(i, -3) for i in range(24)]))   # past 12
@example((255, [(i, 1) for i in range(128)], [(i, 1) for i in range(128)]))  # digit 2^7
@example((401, [(7, 2 ** 64 - 1)], [(i, -2 ** 63) for i in range(5, 198, 1)]))
@example((59, [(i, -2 ** 64) for i in range(3, 30)], [(i, 2 ** 64 - 1) for i in range(8)]))
@example((2039, [(i, _signed(_RNG, 700)) for i in range(1020)],
          [(i, _signed(_RNG, 700)) for i in range(1020)]))                      # conductor 1021
@settings(max_examples=60, deadline=None)
def test_product_routine_agrees_with_the_term_loop(factors):
    width, x, y = factors
    start = [(-1) ** i * i for i in range(width)]
    vec = list(start)
    _polymul_into(vec, x, y)
    assert vec == [s + v for s, v in zip(start, reference_polymul(x, y, width))]


def test_kronecker_decode_raises_past_its_digits():
    vec = [0, 0, 0]
    _unpack_into(vec, 0, -1 + (5 << 8) - (3 << 16), 3, 1)
    assert vec == [-1, 5, -3]
    for value in (1 << 24, -(1 << 24), 128 << 16):
        with pytest.raises(ArithmeticError):
            _unpack_into(vec, 0, value, 3, 1)


@st.composite
def field_elements(draw, m, most=None):
    # an element of Q(zeta_c) for a divisor c of m
    c = draw(st.sampled_from([c for c in range(1, m + 1) if m % c == 0]))
    vec = [0] * euler_phi(c)
    for i, v in draw(coefficient_pairs(euler_phi(c), most)):
        vec[i] = v
    return C.from_coefficients(c, [Fraction(v, draw(st.integers(1, 9))) for v in vec])


@given(st.integers(min_value=1, max_value=1024).flatmap(
    lambda m: st.tuples(field_elements(m), field_elements(m))))
@settings(max_examples=40, deadline=None)
def test_field_product_agrees_with_reference(pair):
    x, y = pair
    assert _stored(x * y) == _stored(reference_product(x, y))


@given(st.integers(min_value=2, max_value=3), st.integers(min_value=1, max_value=1024),
       st.data())
@settings(max_examples=30, deadline=None)
def test_matmul_agrees_with_reference(n, m, data):
    left, right = ([[data.draw(field_elements(m, most=96)) for _ in range(n)]
                    for _ in range(n)] for _ in range(2))
    got = matmul(left, right)
    for i in range(n):
        for j in range(n):
            want = sum((reference_product(left[i][k], right[k][j]) for k in range(n)),
                       rational(0))
            assert _stored(got[i][j].canonical()) == _stored(want.canonical())


@pytest.mark.parametrize("m", [1, 2, 7, 12, 60, 105, 128, 255, 509, 720, 1021, 1024])
def test_reduction_rows_are_the_dense_table_sparsely(m):
    dense = reference_reduction_rows(m)
    assert len(_reduction_rows(m)) == len(dense)
    for sparse, row in zip(_reduction_rows(m), dense):
        assert sparse == tuple((i, c) for i, c in enumerate(row) if c)


# ---------------------------------------------------------------------------
# torsion: the dense table the library replaced by a search of its first m
# reduction rows, kept as the reference for orders, inverses and power sums

@lru_cache(maxsize=4)
def reference_torsion_table(m):
    # every root of unity in Q(zeta_m) is +-zeta_m^j
    table = {}
    for j in range(m):
        row = reference_reduction_rows(m)[j]
        table.setdefault(row, (False, j))
        table.setdefault(tuple(-v for v in row), (True, j))
    return table


def reference_root(x):
    # (negated, j) from the reference table, or None
    return reference_torsion_table(x.conductor).get(x.num) if x.den == 1 else None


def reference_order(x):
    m = x.conductor
    if m == 1:
        return {1: 1, -1: 2}.get(x.rational_value())
    hit = reference_root(x)
    if hit is None:
        return None
    negated, j = hit
    if not negated:
        return m // math.gcd(m, j)
    if m % 2 == 0:
        return m // math.gcd(m, (j + m // 2) % m)
    return 2 * (m // math.gcd(m, j))


def reference_signed_power(m, negated, e):
    # -zeta_m^e when negated, else zeta_m^e, at conductor m from the dense rows
    row = reference_reduction_rows(m)[e % m]
    return C.from_coefficients(m, [-v for v in row] if negated else row)


_CONDUCTORS = [m for m in range(1, 1025) if m % 4 != 2]


@given(st.sampled_from(_CONDUCTORS), st.integers(min_value=0, max_value=1023),
       st.booleans(), st.lists(st.integers(-9, 9), max_size=12))
@example(1021, 1, False, [0, 1, 2, 3])
@example(1024, 512, False, [1, 1])       # -1 at an even conductor
@example(1024, 0, True, [1, 1])
@example(1021, 7, True, [2, -1, 5])
@example(1, 0, True, [1, 2, 3])
@example(60, 15, True, [1, 0, -1])
@settings(max_examples=80, deadline=None)
def test_root_lookups_agree_with_the_reference_table(m, j, negated, coeffs):
    x = reference_signed_power(m, negated, j)
    # the reference reads the value as stored, a rational at conductor 1
    hit = reference_root(x)
    assert hit is not None
    sign, k = hit
    n = x.conductor
    assert multiplicative_order(x) == reference_order(x)
    inv = x.inverse()
    assert _stored(inv) == _stored(reference_signed_power(n, sign, -k))
    assert x * inv == 1
    want = sum((c * reference_signed_power(n, sign and i % 2, k * i)
                for i, c in enumerate(coeffs)), rational(0))
    assert _stored(root_power_sum(x, coeffs)) == _stored(want)


@given(st.sampled_from(_CONDUCTORS), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=1023))
@example(1021, 0, 1)
@example(3, 0, 1)                        # 1 + zeta_3 = -zeta_3^2 is a root
@example(3, 2, 1)                        # so is zeta_3 + zeta_3^2 = -1
@settings(max_examples=80, deadline=None)
def test_non_roots_have_no_order(m, kind, j):
    z = root_of_unity(m, j % m)
    x = [1 + z, 2 * z, z + z * z, z / 2][kind]
    assume(not x.is_zero)
    if reference_root(x) is not None:
        assert multiplicative_order(x) == reference_order(x)
        return
    assert multiplicative_order(x) is None
    assert x * x.inverse() == 1
    with pytest.raises(ValueError):
        root_power_sum(x, [1, 1])


@given(st.sampled_from(_CONDUCTORS))
@example(1021)
@example(1024)
@settings(max_examples=40, deadline=None)
def test_rows_past_the_conductor_are_shared(m):
    rows = _reduction_rows(m)
    assert len(rows) == max(m, 2 * euler_phi(m) - 1)
    for e in range(m, len(rows)):
        assert rows[e] is rows[e - m]


def test_first_root_lookup_at_1021_holds_little_memory():
    # start from no per-conductor table at all
    for table in vars(cyclotomic).values():
        if hasattr(table, "cache_clear"):
            table.cache_clear()
    x = C.from_coefficients(1021, [0, 1] + [0] * 1018)
    tracemalloc.start()
    try:
        assert multiplicative_order(x) == 1021
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense table held 16 MB here
    assert held < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# row reduction, the reference solve of reference_canonical and of the
# invariant-form solve in test_hyperbolic, checked against two independent
# elimination loops

def row_reduce(rows):
    """Reduced row echelon form of a matrix over Q or a cyclotomic field.

    Entries are Fractions or CyclotomicNumbers: anything with exact
    ``+ - * /`` whose truth value means "nonzero".  ``rows`` is left
    unchanged.  Columns are taken left to right; the pivot of a column is
    its first nonzero entry at or below the next free row, that row is
    swapped up and scaled by ``1 / pivot``, and the column is cleared in
    every other row.  Returns ``(rref, pivots)``: the reduced rows, and
    the pivot column of rref[i] for each leading row i, ascending; rows
    from len(pivots) on are zero.
    """
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def reference_solve_rational(matrix, rhs):
    # Gaussian elimination; returns one exact solution or None
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [matrix[r][:] + [rhs[r]] for r in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None
    sol = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][cols]
    return sol


def reference_elimination(rows):
    # reduced row echelon form over the field, and its pivot columns
    m = [row[:] for row in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if not m[i][c].is_zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


_ENTRIES = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def rational_systems(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    matrix = [[draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    return matrix, [draw(_ENTRIES) for _ in range(rows)]


@given(rational_systems())
@settings(max_examples=150, deadline=None)
def test_row_reduce_agrees_with_reference_solve(system):
    matrix, rhs = system
    cols = len(matrix[0])
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    before = [row[:] for row in aug]
    rref, pivots = row_reduce(aug)
    assert aug == before
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert [row[c] for row in rref] == [int(k == i) for k in range(len(rref))]
    assert not any(any(row) for row in rref[len(pivots):])
    expected = reference_solve_rational(matrix, rhs)
    if cols in pivots:
        assert expected is None
    else:
        sol = [Fraction(0)] * cols
        for i, c in enumerate(pivots):
            sol[c] = rref[i][cols]
        assert sol == expected


@given(rational_systems(), st.integers(min_value=0, max_value=3))
@settings(max_examples=120, deadline=None)
def test_row_reduce_over_the_field_agrees_with_reference(system, twist):
    # rational entries, or the same entries times powers of zeta_5: row
    # reduction over the field, as the reference solves use it
    matrix, _ = system
    z = root_of_unity(5, 1)
    rows = [[C.from_rational(v) * z ** ((twist * (i + j)) % 5)
             for j, v in enumerate(row)] for i, row in enumerate(matrix)]
    assert row_reduce(rows) == reference_elimination(rows)


@given(st.integers(min_value=1, max_value=30),
       st.lists(st.integers(min_value=-1, max_value=1), max_size=30))
@settings(max_examples=100, deadline=None)
def test_truth_value_is_nonzero(m, coeffs):
    coeffs = (coeffs + [0] * euler_phi(m))[:euler_phi(m)]
    x = C.from_coefficients(m, coeffs)
    assert bool(x) is not x.is_zero
    assert bool(x - x) is False


def test_truth_value_of_computed_zero():
    assert not (1 + root_of_unity(3, 1) + root_of_unity(3, 2))
    assert root_of_unity(3, 1)
    assert not rational(0) and rational(-1)


@pytest.mark.parametrize("n, primes", [
    (1, []), (2, [2]), (12, [2, 3]), (49, [7]), (97, [97]), (360, [2, 3, 5]),
])
def test_prime_factors(n, primes):
    assert prime_factors(n) == primes
