import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burauforge.reports import ClaimReport, claim_status, dumps, overall_status


def make(passed, flagged=False):
    return ClaimReport(claim="c", params={}, witnesses=[], passed=passed, flagged=flagged)


def test_claim_status():
    assert claim_status(make(True)) == "pass"
    assert claim_status(make(False)) == "fail"
    assert claim_status(make(False, flagged=True)) == "flagged"
    assert claim_status(make(True, flagged=True)) == "flagged"


def test_overall_status_flag_semantics():
    claims = [make(True), make(False, flagged=True)]
    assert overall_status(claims) == "pass"
    assert overall_status(claims, strict=True) == "fail"
    assert overall_status([make(True), make(False)]) == "fail"
    assert overall_status([]) == "pass"


# ---------------------------------------------------------------------------
# the report writer against its oracle, json.dumps(obj, indent=2, default=str)

def _oracle(obj):
    return json.dumps(obj, indent=2, default=str)


def _outcome(encode, obj):
    # the text, or the type of the exception raised
    try:
        return encode(obj)
    except Exception as exc:
        return type(exc)


class _Int(int):
    # int subclasses print by int.__repr__, not by their own
    def __repr__(self):
        return "not JSON"

    __str__ = __repr__


class _Str(str):
    pass


_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f\n\t\r", "é \U0001d11e", ""])
_INTS = (st.integers() | st.sampled_from([10 ** 40, -(10 ** 40), -1, 0])
         | st.builds(_Int, st.integers()))
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_SCALARS = (_TEXT | st.builds(_Str, _TEXT) | _INTS | _FLOATS | st.booleans() | st.none()
            | st.fractions())
# int, float, bool and None keys become strings; a tuple key is an error
_KEYS = _TEXT | _INTS | _FLOATS | st.booleans() | st.none() | st.tuples(st.integers())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(_TEXT, max_size=4)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@given(_VALUES)
@settings(max_examples=400, deadline=None)
def test_dumps_matches_the_stdlib(obj):
    assert _outcome(dumps, obj) == _outcome(_oracle, obj)


@pytest.mark.parametrize("obj", [
    ["1", "-1/2", "0", "é"],                              # all strings: one join
    ["1", 2, None, True, [], {}, ["a"], {"k": "v"}, Fraction(1, 3), 2.5],
    {},                                                   # an empty report
    {"claims": [], "overall": "pass"},
    {"q": {"conductor": 7, "coeffs": ["0", "1", "0", "0", "0", "0"]}, 1: [()], None: {}},
])
def test_dumps_fixed_cases(obj):
    assert dumps(obj) == _oracle(obj)


def test_dumps_rejects_a_tuple_key_as_the_stdlib_does():
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        dumps({"a": 1, (1, 2): 2})
    with pytest.raises(TypeError):
        _oracle({"a": 1, (1, 2): 2})
