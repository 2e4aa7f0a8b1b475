from fractions import Fraction

import pytest

from burauforge.burau import CycloMatrix, squared_images
from burauforge.cyclotomic import CyclotomicNumber as C, root_of_unity
from burauforge.triangle import (_proj_equal, classify, euler_characteristics,
                                 primitive_roots, surface_free_bound,
                                 verify_commutator_relator, verify_even,
                                 verify_kernel_words, verify_odd,
                                 verify_odd_embedding)


def test_classify_excluded_orders():
    # substituted parameter of order 10 <=> caller parameter of order 5
    cls = classify(root_of_unity(5, 1))
    assert cls.case == "finite-image" and cls.substituted_order == 10
    for n in (1, 2, 3, 4, 6):
        assert classify(root_of_unity(n, 1)).case == "finite-image"


def test_classify_even_and_odd():
    cls = classify(root_of_unity(14, 1))
    assert cls.case == "even" and cls.triangle == (7, 7, 7) and cls.geometry == "hyperbolic"
    cls = classify(root_of_unity(7, 1))
    assert cls.case == "odd" and cls.triangle == (2, 3, 7) and cls.geometry == "hyperbolic"
    cls = classify(root_of_unity(10, 1))
    assert cls.case == "even" and cls.triangle == (5, 5, 5)


def test_classify_constant_on_galois_orbit():
    for n in (7, 9, 14, 16):
        results = {classify(q).case for q in primitive_roots(n)}
        assert len(results) == 1


def test_classify_rejects_non_roots():
    from burauforge.cyclotomic import CyclotomicNumber
    with pytest.raises(ValueError):
        classify(CyclotomicNumber.from_rational(2))


def test_verify_even_examples():
    assert verify_even(4, root_of_unity(8, 1)).passed
    for q in primitive_roots(10):
        assert verify_even(5, q).passed
    rep = verify_even(7, root_of_unity(14, 3))
    assert rep.passed
    assert all(w["value"] == "1" for w in rep.witnesses if w["word"] == "A^7")


def test_verify_even_wrong_order():
    with pytest.raises(ValueError):
        verify_even(4, root_of_unity(10, 1))


def test_verify_odd_examples():
    assert verify_odd(3, root_of_unity(7, 1)).passed
    assert verify_odd(5, root_of_unity(11, 3)).passed
    # k = 2: the identities hold even though the group is finite
    assert verify_odd(2, root_of_unity(5, 1)).passed


def test_verify_odd_embedding_examples():
    assert verify_odd_embedding(3, root_of_unity(7, 1)).passed
    assert verify_odd_embedding(5, root_of_unity(11, 1)).passed
    # k = 2 sits below the infiniteness threshold but the identities hold
    assert verify_odd_embedding(2, root_of_unity(5, 1)).passed


def test_kernel_words():
    assert verify_kernel_words(8, root_of_unity(8, 1)).passed
    assert verify_kernel_words(7, root_of_unity(7, 1)).passed
    rep = verify_kernel_words(2, root_of_unity(2, 1))
    assert rep.flagged and rep.passed
    for bad in (1, 6):
        with pytest.raises(ValueError):
            verify_kernel_words(bad, root_of_unity(bad, 1))


def test_kernel_sweep_galois():
    for n in (5, 9, 12):
        for q in primitive_roots(n):
            assert verify_kernel_words(n, q).passed


def test_kernel_sweep_31_to_40():
    # the acceptance range stops at 30; the module invariant runs to 40
    for n in range(31, 41):
        for q in primitive_roots(n):
            assert verify_kernel_words(n, q).passed, n


def test_euler_characteristics():
    orbifold, kernel = euler_characteristics(7)
    assert orbifold == Fraction(-1, 42)
    assert kernel == -4
    assert euler_characteristics(13)[0] == Fraction(-7, 78)
    with pytest.raises(ValueError):
        euler_characteristics(6)


def test_surface_free_bound():
    assert surface_free_bound(7) == 4
    assert surface_free_bound(11) == 50
    assert surface_free_bound(9) == 18
    with pytest.raises(ValueError):
        surface_free_bound(8)
    with pytest.raises(ValueError):
        surface_free_bound(5)


def test_bound_equals_negative_kernel_characteristic():
    for n in (7, 9, 11, 13, 15):
        _, kernel = euler_characteristics(n)
        assert surface_free_bound(n) == -kernel


def test_commutator_relator():
    assert verify_commutator_relator(2).passed
    assert verify_commutator_relator(3).passed
    assert verify_commutator_relator(50).passed
    with pytest.raises(ValueError):
        verify_commutator_relator(1)


# ---------------------------------------------------------------------------
# projective equality from cross products, against the inverse it replaced

def reference_proj_equal(m1, m2):
    return (m1 * m2.inverse()).is_scalar()


def _scaled(m, c):
    return CycloMatrix([[c * v for v in row] for row in m.rows])


@pytest.mark.parametrize("order", [5, 7, 9, 12, 14, 20, 23])
def test_proj_equal_matches_the_inverse_reference(order):
    q = root_of_unity(order, 1)
    a, b, c = squared_images(q)
    words = [a, b, c, a * b, b * a, a ** 3, a.inverse() * b ** 2, (a * b) ** order]
    pairs = [(x, y) for x in words for y in words]
    # scalar multiples by roots of unity, rationals and field elements
    for k, x in enumerate(words):
        for scale in (root_of_unity(order, k + 1), -root_of_unity(2 * order, 1),
                      C.from_rational(Fraction(-3, 7)), 1 + q):
            pairs += [(_scaled(x, scale), x), (x, _scaled(x, scale))]
        # a multiple of x with one entry moved off the line through x
        for p in range(4):
            rows = [list(r) for r in _scaled(x, q).rows]
            rows[p // 2][p % 2] += 1
            pairs.append((CycloMatrix(rows), x))
    seen = set()
    for x, y in pairs:
        got = _proj_equal(x, y)
        assert got == reference_proj_equal(x, y)
        seen.add(got)
    assert seen == {True, False}


def test_proj_equal_odd_embedding_relations():
    # the three projective witnesses of the median-triangle embedding hold
    # at every primitive root of order 2k + 1, and fail when shifted by A
    for k in (2, 3, 5):
        for q in primitive_roots(2 * k + 1):
            a, b, _ = squared_images(q)
            alpha = a ** (k + 1)
            v = a ** k * b ** k * a ** k
            alpha2 = alpha * alpha
            assert _proj_equal(alpha2, a) and _proj_equal(v * alpha2 * v, b)
            assert not _proj_equal(alpha2 * a, a) and not _proj_equal(v * alpha2 * v, b * a)
