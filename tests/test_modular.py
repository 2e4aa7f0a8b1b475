import pytest

from burauforge import modular
from burauforge.cli import SUITES
from burauforge.modular import (ModMatrix2, ab_images, eval_ab_word,
                                psi_generators, psl_order,
                                psl_order_bruteforce, verify_presentation,
                                verify_st_kernel)
from burauforge.words import free_group, parse_word

AB = free_group(("a", "b"))


def test_generator_orders():
    alpha, u, v = psi_generators(7)
    assert alpha.order() == 7 and u.order() == 3 and v.order() == 2
    alpha, u, v = psi_generators(11)
    assert (u ** 3).is_identity and (v ** 2).is_identity and (alpha ** 11).is_identity
    # the product relation of the rotation presentation
    assert (alpha * u * v).is_identity


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
    a, b = ab_images(7)
    assert a == ModMatrix2.make(7, 1, -2, 0, 1)
    assert a.order() == 7
    for n in (7, 9, 11, 13, 25):
        ab_images(n)  # the two expressions for b must agree internally


def test_eval_ab_word():
    n = 7
    assert eval_ab_word(parse_word(AB, "1"), n).is_identity
    a, _ = ab_images(n)
    assert eval_ab_word(parse_word(AB, "a^7"), n).is_identity
    w = parse_word(AB, "a b a^-1 b^-1")
    assert not eval_ab_word(w, n).is_identity


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


def test_brute_force_orders():
    assert psl_order_bruteforce(5) == 60
    assert psl_order_bruteforce(7) == 168
    assert psl_order_bruteforce(9) == 324
    for n in range(3, 14):
        assert psl_order(n) == psl_order_bruteforce(n)
    with pytest.raises(ValueError):
        psl_order_bruteforce(14)


def test_sign_quotient_equality():
    n = 11
    m = ModMatrix2.make(n, 2, 3, 5, 8)
    neg = ModMatrix2.make(n, -2, -3, -5, -8)
    assert m == neg
    assert (m * m.inverse()).is_identity
