from fractions import Fraction

import pytest

from burauforge import modular, triangle
from burauforge.burau import CycloMatrix, squared_images
from burauforge.cli import SUITES
from burauforge.cyclotomic import CyclotomicNumber as C, prime_factors, root_of_unity
from burauforge.reports import ClaimReport
from burauforge.triangle import (_conjugate_claim, _proj_equal, classify,
                                 euler_characteristics, primitive_roots,
                                 surface_free_bound,
                                 verify_commutator_relator, verify_even,
                                 verify_kernel_words, verify_odd,
                                 verify_odd_embedding)
from burauforge.words import commutator, free_product, generator, word


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
# the one-relator spellings, against the group-operation construction

def reference_commutator_relator(r):
    """The two reduced spellings and the verdict, built from powers,
    commutators and products of reduced words."""
    ctx = free_product(("a", "b"), r)
    a = generator(ctx, "a")
    b = generator(ctx, "b")
    lhs = (a * b) ** r * a ** (-r) * b ** (-r)

    product = word(ctx, [])
    for i in range(1, r + 1):
        if i >= 2:
            product = product * commutator(b ** (i - 1), a ** i)
        product = product * commutator(a ** i, b ** i)
    return [str(lhs), str(product)], lhs == product


@pytest.mark.parametrize("r", [*range(2, 61), 240])
def test_commutator_relator_matches_the_group_operation_reference(r):
    claim = verify_commutator_relator(r)
    reduced, passed = reference_commutator_relator(r)
    assert [w["reduced"] for w in claim.witnesses] == reduced
    assert claim.passed == passed


# ---------------------------------------------------------------------------
# projective equality by the adjugate, against the inverse as its oracle

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


# ---------------------------------------------------------------------------
# claims derived by the Galois action against the direct per-root reports

# family -> (direct routine, the order of q at parameter x, the parameters
# whose order is at most 40; n = 6 has no kernel claims)
_FAMILIES = {
    "even": (verify_even, lambda k: 2 * k, range(2, 21)),
    "odd": (verify_odd, lambda k: 2 * k + 1, range(2, 20)),
    "oddlem": (verify_odd_embedding, lambda k: 2 * k + 1, range(2, 20)),
    "kernel": (verify_kernel_words, lambda n: n, [n for n in range(2, 41) if n != 6]),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_derived_claims_equal_direct_reports(family):
    verify, order, params = _FAMILIES[family]
    for x in params:
        derived = [c.as_dict() for c in SUITES[family].run(x, x)]
        direct = [verify(x, q).as_dict() for q in primitive_roots(order(x))]
        assert derived == direct, (family, x)
    # the degenerate order-2 kernel claim is flagged, not failed
    if family == "kernel":
        (claim,) = SUITES["kernel"].run(2, 2)
        assert claim.flagged and claim.passed


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_suites_build_the_images_once_per_order(family, monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return squared_images(q)

    monkeypatch.setattr(triangle, "squared_images", counting)
    _, order, params = _FAMILIES[family]
    lo, hi = params[0], params[-1]
    claims = SUITES[family].run(lo, hi)
    assert calls == [root_of_unity(order(x), 1) for x in params]
    assert len(claims) == sum(len(primitive_roots(order(x))) for x in params)


def test_conjugation_refuses_a_witness_outside_the_order_field():
    # z7 is no value of a word at an order-5 parameter, so sigma_2 of
    # Q(zeta_5) says nothing about it
    z7 = root_of_unity(7, 1)
    claim = ClaimReport(claim="c", params={"q": "z5"},
                        witnesses=[{"word": "w", "scalar": True, "value": str(z7)}],
                        passed=True, scalars=(z7,))
    with pytest.raises(ValueError, match="does not divide 5"):
        _conjugate_claim(claim, 5, 2)
    bare = ClaimReport(claim="c", params={"q": "z5"},
                       witnesses=[{"word": "w", "scalar": True, "value": "1"}], passed=True)
    with pytest.raises(ValueError, match="no exact witnesses"):
        _conjugate_claim(bare, 5, 2)


@pytest.mark.parametrize("n", [7, 9, 15, 49, 1001, 999999999989])
def test_surface_free_bound_factors_n_once(n, monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return prime_factors(m)

    monkeypatch.setattr(triangle, "prime_factors", counting)
    monkeypatch.setattr(modular, "prime_factors", counting)
    value = surface_free_bound(n)
    assert calls == [n]
    assert value == Fraction(modular.psl_order(n) * (n - 6), 6 * n)
