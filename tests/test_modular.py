import pytest

from burauforge import modular
from burauforge.cli import SUITES
from burauforge.modular import (ModMatrix2, ab_images, psi_generators, psl_order,
                                psl_order_bruteforce, verify_presentation,
                                verify_st_kernel)
from burauforge.words import free_group, parse_word

AB = free_group(("a", "b"))


# the rotation generators as integer matrices; psi_generators reduces
# them mod n
ALPHA = ((1, -1), (0, 1))
U = ((1, -1), (1, 0))
V = ((0, -1), (1, 0))
MINUS_ONE = ((-1, 0), (0, -1))


def _int_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mod(n, m):
    (a, b), (c, d) = m
    return ModMatrix2.make(n, a, b, c, d)


def test_rotation_identities_over_the_integers():
    # u^3 = v^2 = -I, and the two spellings of b agree, over Z: so they
    # hold up to sign mod every n
    assert _int_mul(_int_mul(U, U), U) == MINUS_ONE
    assert _int_mul(V, V) == MINUS_ONE
    a = _int_mul(ALPHA, ALPHA)
    assert a == ((1, -2), (0, 1))
    b = _int_mul(_int_mul(V, a), V)
    assert b == _int_mul(MINUS_ONE, ((1, 0), (2, 1)))
    assert _int_mul(_int_mul(_int_mul(U, U), a), U) == b


def test_generator_orders():
    # alpha^k = +-[[1, -k], [0, 1]], so alpha has order exactly n; u has
    # order 3 and v order 2
    for n in range(5, 102, 2):
        alpha, u, v = psi_generators(n)
        assert (alpha, u, v) == (_mod(n, ALPHA), _mod(n, U), _mod(n, V))
        power = ModMatrix2.identity(n)
        for k in range(1, n):
            power = power * alpha
            assert power == ModMatrix2.make(n, 1, -k, 0, 1)
            assert not power.is_identity
        assert (power * alpha).is_identity
        assert not u.is_identity and not (u * u).is_identity and (u ** 3).is_identity
        assert not v.is_identity and (v ** 2).is_identity


def test_psi_rejects_even():
    with pytest.raises(ValueError):
        psi_generators(8)


def test_rotation_presentation_sweep():
    # alpha^n, u^3, v^2 and the product relation, for odd n in 5..31
    for n in range(5, 32, 2):
        alpha, u, v = psi_generators(n)
        assert (alpha ** n).is_identity
        assert (u ** 3).is_identity
        assert (v ** 2).is_identity
        assert (alpha * u * v).is_identity


def test_ab_images():
    for n in range(5, 102, 2):
        a, b = ab_images(n)
        assert a == ModMatrix2.make(n, 1, -2, 0, 1)
        assert b == ModMatrix2.make(n, 1, 0, 2, 1)
        _, u, _ = psi_generators(n)
        assert b == u * u * a * u


def test_eval_ab_words():
    one, a7, bracket = modular._eval_ab_words(
        [parse_word(AB, text) for text in ("1", "a^7", "a b a^-1 b^-1")], 7)
    assert one.is_identity and a7.is_identity
    assert not bracket.is_identity


def test_st_kernel_membership():
    for n in (7, 9, 11):
        assert verify_st_kernel(n).passed
    with pytest.raises(ValueError):
        verify_st_kernel(8)


def test_st_suite_builds_the_images_once_per_claim(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return psi_generators(n)

    monkeypatch.setattr(modular, "psi_generators", counting)
    claims = SUITES["st"].run(7, 31)
    assert calls == [c.params["n"] for c in claims] == list(range(7, 32, 2))
    assert all(c.passed for c in claims)


def test_presentation_relators():
    for n in (7, 13):
        rep = verify_presentation(n)
        assert rep.passed
        labels = [w["word"] for w in rep.witnesses]
        assert "g v g v" in labels and "g alpha g^-1 alpha^-4" in labels


def test_sweep_7_to_31():
    for n in range(7, 32, 2):
        assert verify_st_kernel(n).passed
        assert verify_presentation(n).passed


def _count_det_one_quadruples(n):
    # every (a, b, c, d) mod n by four nested loops, halved for +-1
    count = 0
    for a in range(n):
        for d in range(n):
            for b in range(n):
                for c in range(n):
                    if (a * d - b * c) % n == 1:
                        count += 1
    return count // 2


def test_brute_force_orders():
    assert psl_order_bruteforce(5) == 60
    assert psl_order_bruteforce(7) == 168
    assert psl_order_bruteforce(9) == 324
    for n in range(3, 14):
        assert psl_order(n) == psl_order_bruteforce(n) == _count_det_one_quadruples(n)
    with pytest.raises(ValueError):
        psl_order_bruteforce(14)


def test_sign_quotient_equality():
    n = 11
    m = ModMatrix2.make(n, 2, 3, 5, 8)
    neg = ModMatrix2.make(n, -2, -3, -5, -8)
    assert m == neg
    assert (m * m.inverse()).is_identity
