import math
from fractions import Fraction

import pytest

from burauforge.cyclotomic import root_of_unity
from burauforge.quantum import build_params, gamma_at_p, twist_projective_order


def test_rejected_levels():
    for p in (2, 6, 10, 1):
        with pytest.raises(ValueError):
            build_params(p)


def test_level_5():
    params = build_params(5)
    assert params.colors == (0, 2)
    assert params.half_order == 5
    assert params.a_root.multiplicative_order() == 10
    assert params.burau_parameter == -(params.a_root ** (-4))
    assert params.burau_parameter.multiplicative_order() == 10


def test_level_12():
    params = build_params(12)
    assert params.half_order == 3
    assert params.burau_parameter.multiplicative_order() == 6
    assert params.colors == (0, 1, 2, 3, 4)


def test_level_24():
    params = build_params(24)
    assert params.half_order == Fraction(3, 2)
    assert params.burau_parameter.multiplicative_order() == 3


def test_defining_root_orders():
    for p in range(3, 65):
        if p % 4 == 2:
            continue
        params = build_params(p)
        expected = p if p % 2 == 0 else 2 * p
        assert params.a_root.multiplicative_order() == expected
        assert params.burau_parameter.multiplicative_order() == 2 * params.half_order


def test_twist_orders():
    for p, colors in ((5, (0, 2)), (8, (0, 1, 2)), (12, (0, 1, 2, 3, 4))):
        value, rep = twist_projective_order(p)
        assert value == p and rep.passed, p
    # the full range asserted by the colour convention
    for p in range(5, 65):
        if p % 4 == 2:
            continue
        value, rep = twist_projective_order(p)
        assert value == p and rep.passed and not rep.flagged, p


def _twist_orders_by_field_arithmetic(params):
    # ord(mu_l / mu_0) of the twist eigenvalues as field elements
    mu0_inv = params.twists[0].inverse()
    return [(mu * mu0_inv).multiplicative_order() for mu in params.twists]


def test_twist_orders_match_the_field_arithmetic():
    for p in range(3, 129):
        if p % 4 == 2:
            continue
        params = build_params(p)
        orders = _twist_orders_by_field_arithmetic(params)
        for level in (p, params):
            value, rep = twist_projective_order(level)
            assert [w["eigenvalue_order"] for w in rep.witnesses] == orders, p
            assert [w["color"] for w in rep.witnesses] == list(params.colors), p
            assert value == math.lcm(*orders), p


def test_claims_take_the_level_or_its_record():
    for p in (3, 5, 8, 12, 33):
        params = build_params(p)
        for claim in (twist_projective_order, gamma_at_p):
            assert claim(p)[1] == claim(params)[1], p
    for p in (2, 6):
        with pytest.raises(ValueError):
            twist_projective_order(p)


def test_twist_mismatch_is_flagged_not_raised():
    value, rep = twist_projective_order(3)
    assert value == 1 and not rep.passed and rep.flagged


def test_gamma_at_p():
    cls, rep = gamma_at_p(20)
    assert cls.triangle == (5, 5, 5) and cls.case == "even"
    cls, rep = gamma_at_p(56)
    assert cls.triangle == (2, 3, 7) and cls.case == "odd"
    cls, rep = gamma_at_p(32)
    assert cls.triangle == (4, 4, 4)
    cls, rep = gamma_at_p(8)
    assert cls.case == "finite-image" and rep.note == "finite-image level"


def test_params_json_shape():
    data = build_params(12).to_json()
    assert data["p"] == 12
    assert data["burau_parameter_order"] == 6
    assert data["half_order"] == "3"
    assert set(data["twists"]) == {"0", "1", "2", "3", "4"}


def reference_params(p):
    # the powering construction that build_params replaced: (a_root, q, twists)
    if p % 4 == 0:
        a = -root_of_unity(p, 1)
        q = -(a ** (-4))
    else:
        a = -root_of_unity(2 * p, p + 1)
        q = -(a ** (-4)) if p == 5 else -(a ** (-8))
    colors = range(0, p // 2 - 1) if p % 2 == 0 else range(0, p - 2, 2)
    return a, q, tuple((-a) ** (l * (l + 2)) for l in colors)


def _canonical(x):
    c = x.canonical()
    return c.conductor, c.num, c.den


@pytest.mark.parametrize("p", [p for p in range(3, 129) if p % 4 != 2])
def test_exponent_arithmetic_matches_the_powering_reference(p):
    # root_of_unity stores a power at its minimal conductor, where the
    # powering kept the conductor of a; the canonical forms must agree
    params = build_params(p)
    a, q, twists = reference_params(p)
    assert len(params.twists) == len(twists)
    for got, want in zip((params.a_root, params.burau_parameter, *params.twists),
                         (a, q, *twists)):
        assert got == want
        assert _canonical(got) == _canonical(want)
