import random

import pytest

from burauforge.burau import (CycloMatrix, burau_eval, burau_generator,
                              projective_order, squared_images)
from burauforge.cyclotomic import CyclotomicNumber, root_of_unity
from burauforge.words import braid_group, parse_word, word

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


def test_closed_forms_random_roots():
    rng = random.Random(23)
    seen = 0
    while seen < 20:
        m = rng.randint(3, 40)
        j = rng.randint(1, m - 1)
        q = root_of_unity(m, j)
        if q == -1 or q.is_zero:
            continue
        a, b, c = squared_images(q)  # closed forms asserted inside
        q2 = q * q
        assert a[0, 0] == q2 and a[0, 1] == 1 + q and a[1, 0] == 0 and a[1, 1] == 1
        assert b[0, 0] == 1 and b[1, 0] == -q - q2 and b[1, 1] == q2
        assert c.is_scalar() and c.scalar_value() == -(q ** 3)
        seen += 1


def test_projective_order_examples():
    one = CycloMatrix.identity(2)
    assert projective_order(one, 1) == 1
    a, _, _ = squared_images(root_of_unity(14, 1))
    assert projective_order(a, 10) == 7
    a1, _, _ = squared_images(C.from_rational(1))
    assert projective_order(a1, 60) is None
    a10, _, _ = squared_images(root_of_unity(10, 1))
    assert projective_order(a10, 10) == 5



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


@pytest.mark.parametrize("text", ["g1", "g2^-1 g3", "g1 g2 g3 g1^-2", "g3^3 g2 g1^-1 g2"])
def test_inverse_3x3_on_b4_words(text):
    m = burau_eval(parse_word(B4, text), root_of_unity(9, 2))
    identity = CycloMatrix.identity(3)
    assert m * m.inverse() == identity
    assert m.inverse() * m == identity


def test_inverse_3x3_singular_raises():
    q = root_of_unity(5, 1)
    one, zero = C.from_rational(1), C.from_rational(0)
    top, middle = [q, q * q, one], [one, q, zero]
    m = CycloMatrix([top, middle, [u + v for u, v in zip(top, middle)]])
    with pytest.raises(ZeroDivisionError):
        m.inverse()


def test_matrices_of_different_sizes_are_unequal():
    assert CycloMatrix.identity(2) != CycloMatrix.identity(3)
    g1 = burau_generator(4, 1, root_of_unity(13, 1))
    block = CycloMatrix([row[:2] for row in g1.rows[:2]])
    assert g1 != block and block != g1
    assert g1 == CycloMatrix(g1.rows)
