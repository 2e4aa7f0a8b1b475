import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burauforge import burau
from burauforge.burau import (CycloMatrix, burau_eval, burau_generator, pair_word_eval,
                              projective_order, root_eigen_powers, squared_images)
from burauforge.cyclotomic import (CyclotomicNumber, cyclotomic_polynomial, euler_phi,
                                   root_of_unity)
from burauforge.words import braid_group, free_group, parse_word, power, word

C = CyclotomicNumber
B3 = braid_group(3)
B4 = braid_group(4)


def _entries(m):
    return [[str(v) for v in row] for row in m.rows]


def test_generator_matrices_n3():
    q = root_of_unity(13, 1)
    g1 = burau_generator(3, 1, q)
    assert g1[0, 0] == -q and g1[0, 1] == 1 and g1[1, 0] == 0 and g1[1, 1] == 1
    g2 = burau_generator(3, 2, q)
    assert g2[0, 0] == 1 and g2[0, 1] == 0 and g2[1, 0] == q and g2[1, 1] == -q


def test_generator_matrix_n4_middle_block():
    q = root_of_unity(13, 1)
    g2 = burau_generator(4, 2, q)
    assert g2.size == 3
    assert g2[1, 0] == q and g2[1, 1] == -q and g2[1, 2] == 1
    assert g2[0, 0] == 1 and g2[2, 2] == 1 and g2[0, 1] == 0 and g2[2, 1] == 0


def test_generator_index_bounds():
    q = root_of_unity(5, 1)
    with pytest.raises(ValueError):
        burau_generator(3, 3, q)
    with pytest.raises(ValueError):
        burau_generator(3, 0, q)


def test_braid_relations():
    q = root_of_unity(11, 2)
    assert burau_eval(parse_word(B3, "g1 g2 g1"), q) == burau_eval(parse_word(B3, "g2 g1 g2"), q)
    for u, v in (("g1 g2 g1", "g2 g1 g2"), ("g2 g3 g2", "g3 g2 g3"), ("g1 g3", "g3 g1")):
        assert burau_eval(parse_word(B4, u), q) == burau_eval(parse_word(B4, v), q)


def test_empty_word_is_identity():
    q = root_of_unity(9, 1)
    assert burau_eval(word(B3, []), q) == CycloMatrix.identity(2)


def test_homomorphism_random_pairs():
    rng = random.Random(17)
    q = root_of_unity(7, 2)
    q4 = root_of_unity(10, 1)
    for ctx, qq, gens in ((B3, q, 2), (B4, q4, 3)):
        for _ in range(100):
            u = word(ctx, [(rng.randrange(gens), rng.choice([-2, -1, 1, 2]))
                           for _ in range(3)])
            v = word(ctx, [(rng.randrange(gens), rng.choice([-2, -1, 1, 2]))
                           for _ in range(3)])
            assert burau_eval(u * v, qq) == burau_eval(u, qq) * burau_eval(v, qq)


def test_center_is_scalar_at_negated_parameter():
    q = root_of_unity(7, 1)
    m = burau_eval(parse_word(B3, "g1 g2") ** 3, -q)
    assert m.is_scalar() and m.scalar_value() == -(q ** 3)


def generator_products(q):
    """(A, B, C) at parameter -q as products of the generator matrices: the
    reference that the closed forms of ``squared_images`` are checked against."""
    g1 = burau_generator(3, 1, -q)
    g2 = burau_generator(3, 2, -q)
    return g1 * g1, g2 * g2, (g1 * g2) ** 3


# Every entry of g1^2, g2^2 and (g1 g2)^3 at -q is a polynomial in q of
# degree at most 6 (each generator entry has degree at most 1, and the
# longest product has six factors), and so is every closed-form entry.
# Two such polynomials that agree at 7 distinct rationals are equal, so
# agreement at these proves the closed forms at every q in every field.
SEVEN_RATIONALS = [C.from_rational(Fraction(k, 3)) for k in range(1, 8)]


def test_closed_forms_hold_for_every_q():
    for q in SEVEN_RATIONALS:
        assert squared_images(q) == generator_products(q)


def test_closed_forms_random_roots():
    rng = random.Random(23)
    seen = 0
    while seen < 20:
        m = rng.randint(3, 40)
        j = rng.randint(1, m - 1)
        q = root_of_unity(m, j)
        if q == -1 or q.is_zero:
            continue
        a, b, c = squared_images(q)
        assert (a, b, c) == generator_products(q)
        q2 = q * q
        assert a[0, 0] == q2 and a[0, 1] == 1 + q and a[1, 0] == 0 and a[1, 1] == 1
        assert b[0, 0] == 1 and b[1, 0] == -q - q2 and b[1, 1] == q2
        assert c.is_scalar() and c.scalar_value() == -(q ** 3)
        seen += 1


def test_squared_images_makes_no_matrix_product(monkeypatch):
    calls = []
    product = CycloMatrix.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(CycloMatrix, "__mul__", counting)
    for q in (root_of_unity(7, 1), root_of_unity(12, 5), C.from_rational(1),
              C.from_rational(Fraction(-2, 3))):
        squared_images(q)
    assert calls == []
    generator_products(root_of_unity(7, 1))  # the counter does see products
    assert calls


def test_projective_order_examples():
    one = CycloMatrix.identity(2)
    assert projective_order(one, 1) == 1
    a, _, _ = squared_images(root_of_unity(14, 1))
    assert projective_order(a, 10) == 7
    a1, _, _ = squared_images(C.from_rational(1))
    assert projective_order(a1, 60) is None
    a10, _, _ = squared_images(root_of_unity(10, 1))
    assert projective_order(a10, 10) == 5



def reference_projective_order(m, bound):
    """Least n <= bound with m^n scalar, by exact powers one at a time."""
    if bound < 1:
        raise ValueError("bound must be positive")
    power = m
    for n in range(1, bound + 1):
        if power.is_scalar():
            return n
        power = power * m
    return None


PAIR = free_group(("A", "B"))
TORSION_WORDS = [parse_word(PAIR, text) for text in ("A", "B", "A B")]
# nontrivial reduced words of at most eight letters in A and B, and the
# words of finite order A, B and A B
pair_words = st.one_of(
    st.sampled_from(TORSION_WORDS),
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
             min_size=1, max_size=8).map(lambda sylls: word(PAIR, sylls))
    .filter(lambda w: not w.is_identity))


@given(st.integers(2, 60), pair_words, st.integers(1, 130))
@settings(max_examples=80, deadline=None)
def test_projective_order_agrees_with_exact_powers(order, w, bound):
    a, b, _ = squared_images(root_of_unity(order, 1))
    m = pair_word_eval(w, a, b)
    assert projective_order(m, bound) == reference_projective_order(m, bound)


@pytest.mark.parametrize("q", [
    # (3+4i)/5 has norm one and infinite order; 2/3 + zeta_5 has neither
    C.from_rational(Fraction(3, 5)) + root_of_unity(4, 1) * Fraction(4, 5),
    C.from_rational(Fraction(2, 3)) + root_of_unity(5, 1),
])
def test_projective_order_agrees_with_exact_powers_off_the_unit_roots(q):
    a, b, _ = squared_images(q)
    for w in TORSION_WORDS + [parse_word(PAIR, "A B^-1"), parse_word(PAIR, "A^2 B A^-1")]:
        m = pair_word_eval(w, a, b)
        for bound in (1, 2, 7, 30):
            assert projective_order(m, bound) == reference_projective_order(m, bound)


def test_projective_order_is_two_by_two_only():
    with pytest.raises(ValueError, match="2x2"):
        projective_order(CycloMatrix.identity(3), 5)
    with pytest.raises(ValueError, match="positive"):
        projective_order(CycloMatrix.identity(2), 0)


def test_projective_order_refuses_a_singular_matrix():
    # no modulus makes a singular letter a unit
    one, zero = C.from_rational(1), C.from_rational(0)
    with pytest.raises(ValueError, match="invertible"):
        projective_order(CycloMatrix([[one, zero], [zero, zero]]), 5)


@given(st.integers(1, 1021), st.integers(1, 10 ** 40))
@settings(max_examples=60, deadline=None)
def test_split_root_is_a_root_of_the_cyclotomic_polynomial(m, avoid):
    p, r = burau._split_root(m, avoid)
    assert p % m == 1 % m and p < 1 << 61 and math.gcd(p, avoid) == 1
    assert burau._is_prime(p)
    assert burau._poly_at(cyclotomic_polynomial(m), r, p) == 0
    # a modulus shared with avoid is skipped for the next one down
    p2, r2 = burau._split_root(m, avoid * p)
    assert p2 < p and p2 % m == 1 % m and math.gcd(p2, avoid * p) == 1
    assert burau._is_prime(p2)
    assert burau._poly_at(cyclotomic_polynomial(m), r2, p2) == 0


# strong pseudoprimes to the base 2 (23 * 89), to the bases 2, 3, 5 and 7
# (151 * 751 * 28351), to every prime base up to 19 (10670053 * 32010157,
# which the ninth base, 23, rejects), and to every prime base up to 23
@pytest.mark.parametrize("n", [2047, 3215031751, 341550071728321, 3825123056546413051])
def test_primality_rejects_strong_pseudoprimes(n):
    assert not burau._is_prime(n)


def test_primality_accepts_the_mersenne_prime_below_2_61():
    assert burau._is_prime((1 << 61) - 1)
    assert not burau._is_prime((1 << 61) + 1)


def test_primality_agrees_with_trial_division_and_stops_at_2_64():
    assert [n for n in range(5000) if burau._is_prime(n)] == [
        n for n in range(5000) if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert burau._is_prime((1 << 64) - 59)
    with pytest.raises(ValueError, match="2\\^64"):
        burau._is_prime(1 << 64)


def test_residue_map_is_a_ring_map_across_subfields():
    p, r = burau._split_root(7, 1)
    assert pow(r, 7, p) == 1 and r != 1
    residue = burau._residue_map(7, p, r)
    assert residue(root_of_unity(7, 2) + 3) == (r * r + 3) % p
    # values of the subfields Q(zeta_3) and Q(i) meet in Q(zeta_12)
    p, r = burau._split_root(12, 1)
    residue = burau._residue_map(12, p, r)
    u = root_of_unity(3, 1) * Fraction(2, 7) + 1
    v = root_of_unity(4, 1) - Fraction(1, 3)
    assert residue(u * v) == residue(u) * residue(v) % p
    assert residue(u + v) == (residue(u) + residue(v)) % p


def test_residue_map_refuses_a_wrong_root_and_a_shared_denominator():
    p, r = burau._split_root(7, 1)
    for wrong in (1, 2, r * r % p + 1):
        with pytest.raises(ArithmeticError, match="not a root"):
            burau._residue_map(7, p, wrong)
    # Phi_4(2) = 5, but 5 divides the denominator of (3+4i)/5
    residue = burau._residue_map(4, 5, 2)
    q = C.from_rational(Fraction(3, 5)) + root_of_unity(4, 1) * Fraction(4, 5)
    with pytest.raises(ArithmeticError, match="not invertible"):
        residue(q)


def test_matrix_power_makes_no_spare_products(monkeypatch):
    # 13 = 0b1101: three squarings and two further products, none with
    # the identity and no squaring past the top bit
    a, _, _ = squared_images(root_of_unity(7, 1))
    expected = a * a * a * a * a * a * a * a * a * a * a * a * a
    products = []
    mul = CycloMatrix.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(CycloMatrix, "__mul__", counted)
    result = a ** 13
    assert len(products) == 5
    assert result == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_form_generator_inverses(n):
    q = root_of_unity(9, 2)
    identity = CycloMatrix.identity(n - 1)
    context = braid_group(n)
    for j in range(1, n):
        inv = burau_eval(word(context, [(j - 1, -1)]), q)
        assert burau_generator(n, j, q) * inv == identity
        assert inv * burau_generator(n, j, q) == identity


@pytest.mark.parametrize("text", ["g1", "g2^-1 g3", "g1 g2 g3 g1^-2", "g3^3 g2 g1^-1 g2",
                                  "g4^-2 g1 g3^-1 g2^3", "g2 g4 g1^-3 g3 g4^-1"])
def test_word_times_its_inverse_is_the_identity(text):
    context = B4 if "g4" not in text else braid_group(5)
    w = parse_word(context, text)
    identity = CycloMatrix.identity(context.strands - 1)
    for q in (root_of_unity(9, 2), C.from_rational(Fraction(2, 3)) + root_of_unity(5, 1)):
        assert burau_eval(w, q) * burau_eval(w.inverse(), q) == identity
        assert burau_eval(w.inverse(), q) * burau_eval(w, q) == identity


def test_inverse_is_two_by_two_only():
    q = root_of_unity(5, 1)
    with pytest.raises(ValueError):
        burau_generator(4, 2, q).inverse()
    with pytest.raises(ZeroDivisionError):
        CycloMatrix([[q, q * q], [C.from_rational(1), q]]).inverse()


def test_matrices_of_different_sizes_are_unequal():
    assert CycloMatrix.identity(2) != CycloMatrix.identity(3)
    g1 = burau_generator(4, 1, root_of_unity(13, 1))
    block = CycloMatrix([row[:2] for row in g1.rows[:2]])
    assert g1 != block and block != g1
    assert g1 == CycloMatrix(g1.rows)


# ---------------------------------------------------------------------------
# the fused product kernel against the per-term loop it replaced

def reference_matmul(left, right):
    """Rows of left * right with one field product and one field sum per
    term: the loop CycloMatrix.__mul__ ran before the fused kernel."""
    out = []
    for r in left:
        new = []
        for j in range(len(right[0])):
            acc = r[0] * right[0][j]
            for k in range(1, len(r)):
                if not r[k].is_zero:
                    acc = acc + r[k] * right[k][j]
            new.append(acc)
        out.append(new)
    return out


def _stored(x):
    return (x.conductor, x.num, x.den)


def _canonical(x):
    return _stored(x.canonical())


def _assert_invariants(x):
    m = x.conductor
    assert x.den > 0
    assert len(x.num) == euler_phi(m)
    assert math.gcd(x.den, *x.num) == 1
    assert m % 4 != 2
    if m > 1:
        assert any(x.num[1:])  # rationals live at conductor 1


_COEFF = st.one_of(st.just(0), st.integers(-4, 4),
                   st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def _entry(draw, m):
    # zero, a rational with a denominator, or an element of Q(zeta_m)
    kind = draw(st.sampled_from(["zero", "rational", "field"]))
    if kind == "zero":
        return C.from_rational(0)
    if kind == "rational":
        return C.from_rational(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6))))
    return C.from_coefficients(m, draw(st.lists(_COEFF, min_size=euler_phi(m),
                                                max_size=euler_phi(m))))


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 3))
    fields = draw(st.lists(st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15, 16, 20]),
                           min_size=2, max_size=2, unique=True))

    def matrix():
        return [[draw(_entry(draw(st.sampled_from(fields)))) for _ in range(n)]
                for _ in range(n)]
    return matrix(), matrix()


@given(matrix_pairs())
@settings(max_examples=200, deadline=None)
def test_product_kernel_matches_the_per_term_reference(pair):
    left, right = pair
    got = (CycloMatrix(left) * CycloMatrix(right)).rows
    want = reference_matmul(left, right)
    conductors = {v.conductor for rows in pair for r in rows for v in r} - {1}
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            assert g == w
            assert _canonical(g) == _canonical(w)
            if len(conductors) <= 1:
                assert _stored(g) == _stored(w)
            _assert_invariants(g)
    if len(left) == 2:
        (a, b), (c, d) = left
        assert CycloMatrix(left).det2() == a * d - b * c


@pytest.mark.parametrize("order", [7, 12, 14, 23])
def test_product_kernel_stores_burau_words_like_the_reference(order):
    a, b, _ = squared_images(root_of_unity(order, 1))
    mats = [a, b, a.inverse(), b * a, a ** 3 * b.inverse()]
    for x in mats:
        for y in mats:
            got = (x * y).rows
            want = reference_matmul(x.rows, y.rows)
            assert [[_stored(v) for v in r] for r in got] == \
                [[_stored(v) for v in r] for r in want]


def test_product_kernel_forms_no_field_products_or_sums(monkeypatch):
    a, b, _ = squared_images(root_of_unity(9, 2))
    x, y = a * b.inverse(), b ** 3
    expected = reference_matmul(x.rows, y.rows)
    calls = []

    def counting(name):
        method = getattr(C, name)

        def counted(self, other):
            calls.append(name)
            return method(self, other)
        return counted
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(C, name, counting(name))
    product = x * y
    det = x.det2()
    assert calls == []
    monkeypatch.undo()
    assert product.rows == tuple(tuple(r) for r in expected)
    assert det == x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]


# ---------------------------------------------------------------------------
# powers by eigenvalues: A and B have eigenvalues q^2, 1 and AB has -q, -q^3

EIGENVALUES = {"A": ((1, 2), (1, 0)), "B": ((1, 2), (1, 0)), "AB": ((-1, 1), (-1, 3))}


@st.composite
def roots_of_unity(draw):
    # a primitive root of each order 1..60, q = 1 and q = -1 among them
    n = draw(st.integers(1, 60))
    return root_of_unity(n, draw(st.sampled_from([j for j in range(1, n + 1)
                                                   if math.gcd(j, n) == 1])))


@given(roots_of_unity())
@settings(max_examples=25, deadline=None)
def test_eigen_powers_match_square_and_multiply(q):
    a, b, _ = squared_images(q)
    exponents = range(-60, 61)
    for name, m in (("A", a), ("B", b), ("AB", a * b)):
        got = root_eigen_powers(m, q, *EIGENVALUES[name], exponents)
        assert got == [power(m, e, CycloMatrix.identity(2)) for e in exponents], name


@pytest.mark.parametrize("n", [1, 2])
def test_eigen_powers_at_q_plus_minus_one(n):
    # a repeated eigenvalue: at q = 1, A is the unipotent [[1, 2], [0, 1]]
    q = root_of_unity(n, 1)
    a, b, _ = squared_images(q)
    for name, m in (("A", a), ("B", b), ("AB", a * b)):
        got = root_eigen_powers(m, q, *EIGENVALUES[name], range(-60, 61))
        assert got == [power(m, e, CycloMatrix.identity(2)) for e in range(-60, 61)], name


@given(roots_of_unity(), st.sampled_from([1, -1]), st.sampled_from([1, -1]),
       st.integers(-30, 30), st.integers(-30, 30), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_eigen_powers_of_triangular_matrices(q, s, t, a, b, corner):
    # any signs and exponents: [[s q^a, corner], [0, t q^b]], conjugated
    # by [[1, 0], [1, 1]] so that it is not triangular
    lam, mu = s * q ** a, t * q ** b
    m = CycloMatrix([[lam - corner, C.from_rational(corner)],
                     [lam - corner - mu, mu + corner]])
    exponents = range(-25, 26)
    got = root_eigen_powers(m, q, (s, a), (t, b), exponents)
    assert got == [power(m, e, CycloMatrix.identity(2)) for e in exponents]


def test_eigen_powers_of_a_unipotent_matrix():
    one = root_of_unity(1, 1)
    a, _, _ = squared_images(one)
    a_5, a_inv = root_eigen_powers(a, one, (1, 2), (1, 0), [5, -1])
    assert _entries(a_5) == [["1", "10"], ["0", "1"]]
    assert _entries(a_inv) == [["1", "-2"], ["0", "1"]]


def test_eigen_powers_refuse_a_wrong_eigenvalue_pair():
    q = root_of_unity(7, 1)
    a, b, _ = squared_images(q)
    for m, lam, mu in ((a, (1, 0), (1, 2)), (a, (1, 2), (1, 0))):
        assert root_eigen_powers(m, q, lam, mu, [3]) == [m * m * m]
    one = C.from_rational(1)
    # trace q^2 + 1 but determinant q^2 - 1
    unbalanced = CycloMatrix([[q * q, one], [one, one]])
    # the first three pairs have determinant q^2 and the wrong trace
    for m, lam, mu in ((a, (1, 1), (1, 1)), (a, (-1, 2), (-1, 0)), (a, (1, 3), (1, -1)),
                       (unbalanced, (1, 2), (1, 0)),
                       (a * b, (1, 2), (1, 0)), (a * b, (-1, 1), (1, 3))):
        with pytest.raises(ValueError, match="trace and determinant"):
            root_eigen_powers(m, q, lam, mu, [3])
    with pytest.raises(ValueError, match="root of unity"):
        root_eigen_powers(a, q + 1, (1, 2), (1, 0), [3])
    with pytest.raises(ValueError, match="signs"):
        root_eigen_powers(a, q, (2, 2), (1, 0), [3])
    with pytest.raises(ValueError, match="2x2"):
        root_eigen_powers(CycloMatrix.identity(3), q, (1, 0), (1, 0), [3])
