"""Parameter calculus of the projective quantum representations.

For each admissible level p (p >= 3, p != 2 mod 4) this module builds the
defining root, the admissible colour set, the twist eigenvalues, the
parameter fed to the 2-dimensional sub-representation, and its
tabulated half-order; everything is exact and symbolic.  Every root in
the record is a power of zeta_n with -a = zeta_n^t, so each twist order
is n / gcd(n, t l(l+2)), taken from the exponents alone.  The claims
accept the level or its record, so a caller that holds the record (the
``params`` command) builds it once.

Colour convention: colour sets are indexed by the level p itself
({0,...,p/2-2} for even p, {0,2,...,p-3} for odd p).  That is the unique
reading under which the twist image has projective order exactly p
(e.g. p = 12 gives lcm(1,4,3,4,1) = 12); it is recorded in every report.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CyclotomicNumber, root_of_unity
from .reports import ClaimReport
from .triangle import TriangleClassification, classify

__all__ = ["QuantumParams", "build_params", "twist_projective_order", "gamma_at_p"]

COLOR_CONVENTION = "colours indexed by the level p, not by the halved TQFT index"


class QuantumParams:
    __slots__ = ("p", "a_root", "colors", "twists", "burau_parameter", "half_order")

    def __init__(self, p: int, a_root: CyclotomicNumber, colors: tuple[int, ...],
                 twists: tuple[CyclotomicNumber, ...], burau_parameter: CyclotomicNumber,
                 half_order: Fraction):
        self.p = p
        self.a_root = a_root                    # order p (even p) or 2p (odd p)
        self.colors = colors
        self.twists = twists                    # eigenvalue (-a)^(l(l+2)) per colour
        self.burau_parameter = burau_parameter  # of the 2-dim sub-representation
        self.half_order = half_order            # half the parameter's order, by the table

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a_root": self.a_root.to_json(),
            "a_root_order": self.a_root.multiplicative_order(),
            "colors": list(self.colors),
            "twists": {str(l): t.to_json() for l, t in zip(self.colors, self.twists)},
            "burau_parameter": self.burau_parameter.to_json(),
            "burau_parameter_order": self.burau_parameter.multiplicative_order(),
            "half_order": str(self.half_order),
            "color_convention": COLOR_CONVENTION,
        }


def _validate_p(p: int):
    if p < 3:
        raise ValueError("level must be at least 3")
    if p % 4 == 2:
        raise ValueError("levels congruent to 2 mod 4 are not admissible")


def _root_exponents(p: int) -> tuple[int, int]:
    # (n, t) with -a = zeta_n^t, so that a, the parameter and every twist
    # are powers of zeta_n
    return (p, 1) if p % 4 == 0 else (2 * p, p + 1)


def _colors(p: int) -> tuple[int, ...]:
    return tuple(range(0, p // 2 - 1)) if p % 2 == 0 else tuple(range(0, p - 2, 2))


def build_params(p: int) -> QuantumParams:
    """Exact parameter record for level p.

    a_root = -zeta_p for p = 0 mod 4 and -zeta_2p^(p+1) for odd p;
    the sub-representation parameter is -a^-4 (p = 0 mod 4 and p = 5)
    or -a^-8 (odd p >= 7, also applied at p = 3); the half-order follows
    the four-branch table.  The defining order and the order relation
    ord(parameter) = 2 * half_order are asserted on construction.
    """
    _validate_p(p)
    n, t = _root_exponents(p)
    s = t + n // 2  # a = zeta_n^s
    a = root_of_unity(n, s)
    k = 4 if p % 4 == 0 or p == 5 else 8
    q = root_of_unity(n, n // 2 - k * s)  # -a^-k

    if p % 2 == 1:
        half = Fraction(p)
    elif p % 8 == 4:
        half = Fraction(p, 4)
    elif p % 16 == 0:
        half = Fraction(p, 8)
    else:  # p = 8 mod 16
        half = Fraction(p, 16)

    if a.multiplicative_order() != n:
        raise AssertionError("defining root has the wrong order")
    if q.multiplicative_order() != 2 * half:
        raise AssertionError("parameter order disagrees with the half-order table")

    colors = _colors(p)
    twists = tuple(root_of_unity(n, t * l * (l + 2)) for l in colors)
    return QuantumParams(p=p, a_root=a, colors=colors, twists=twists,
                         burau_parameter=q, half_order=half)


def twist_projective_order(level: int | QuantumParams) -> tuple[int, ClaimReport]:
    """lcm over colours of ord(mu_l / mu_0); expected to equal p for p >= 5.

    ``level`` is p or its record from ``build_params``.  With
    -a = zeta_n^t as in ``build_params``, mu_l = zeta_n^(t l(l+2)) and
    mu_0 = 1, so ord(mu_l / mu_0) = n / gcd(n, t l(l+2)): no field
    element is formed.
    """
    if isinstance(level, QuantumParams):
        p, colors = level.p, level.colors
    else:
        _validate_p(level)
        p, colors = level, _colors(level)
    n, t = _root_exponents(p)
    witnesses = []
    value = 1
    for l in colors:
        o = n // math.gcd(n, t * l * (l + 2))
        witnesses.append({"color": l, "eigenvalue_order": o})
        value = math.lcm(value, o)
    ok = value == p
    report = ClaimReport(
        claim="projective order of the twist image equals the level",
        params={"p": p, "computed_order": value, "color_convention": COLOR_CONVENTION},
        witnesses=witnesses,
        passed=ok,
        flagged=not ok,
        note="" if ok else "order mismatch surfaced rather than hidden; see colour convention",
    )
    return value, report


def gamma_at_p(level: int | QuantumParams) -> tuple[TriangleClassification, ClaimReport]:
    """Classify the image at the level's parameter and cross-check the table.

    ``level`` is p or its record from ``build_params``.  An integral
    half-order o must give the even case with k = o; a half-integral one
    the odd case with triangle (2, 3, 2o).  Finite-image levels (the
    excluded TQFT sizes) are reported as such.
    """
    params = level if isinstance(level, QuantumParams) else build_params(level)
    p = params.p
    cls = classify(params.burau_parameter)
    o = params.half_order
    expected_order = 2 * o
    ok = Fraction(cls.order) == expected_order
    if cls.case == "even":
        ok = ok and o.denominator == 1 and cls.k == o
    elif cls.case == "odd":
        ok = ok and o.denominator == 2 and cls.triangle == (2, 3, int(2 * o))
    if not ok:
        raise AssertionError("classification inconsistent with the half-order table")
    report = ClaimReport(
        claim="image classification matches the half-order table",
        params={"p": p, "half_order": str(o)},
        witnesses=[cls.as_dict()],
        passed=True,
        note="finite-image level" if cls.case == "finite-image" else "",
    )
    return cls, report
