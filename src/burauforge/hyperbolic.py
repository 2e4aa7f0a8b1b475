"""Invariant Hermitian forms, an exact short-relation oracle, and
interval-certified ping-pong freeness certificates.

The form J with M* J M = J for both generator images is given in closed
form over the cyclotomic field and checked exactly (conjugation is
zeta -> zeta^-1, which is complex conjugation under every embedding);
only its signature depends on the chosen embedding.  For an indefinite
form the null circle { v* J v = 0 } is a genuine round circle preserved
by the whole group, so ping-pong runs directly on that circle: arcs are
given by rational fractions of a turn, endpoint images are enclosed in
balls on one binary grid, and each inclusion is certified by two exact
integer orientation determinants whose signs are bounded away from zero.

The short-relation oracle and the torsion guard of the certificate
search are one scalar search, ``burau.first_scalar_word``, on residues
modulo a prime, over the letters x, x^-1, y, y^-1 (meeting in the
middle on half-words) and over each generator alone (meeting in the
middle on powers, by baby and giant steps).

At q = zeta_n the Squier form is indefinite at an embedding sigma exactly
when |sigma(q) - 1| < 1; embedding 1 sends zeta_n to e^(2 pi i / n), the
primitive n-th root nearest 1, so it is indefinite whenever any embedding
is (the fixed forms at q = 1 and -1 are indefinite); the CLI tries only it.

Floating point appears only inside the certificate *search*, whose floats
are read off the centres of ``balls.embed`` enclosures; every accepted
certificate is re-derived from exact data through ball arithmetic, and
``verify_certificate`` re-derives every inclusion at doubled precision.

The exact data of a pair, the images A and B of q, its invariant form
(with an indefinite form's circle) and the word powers x^k, each one
product from powers held, is memoised on q's stored representation
(conductor, num, den), never on value equality: equal values may be
stored at different conductors, and ``embed`` reads an embedding's
exponent at the stored conductor.  Each entry is computed and checked on
its first use exactly as without the memo, so the oracle, the search and
the verification of one pair share each word and each of its powers.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from functools import lru_cache

from .balls import ComplexBall, PrecisionExhausted, embed, unit_turn
from .burau import CycloMatrix, first_scalar_word, pair_word_eval, projective_order, squared_images
from .cyclotomic import CyclotomicNumber, euler_phi, root_of_unity, root_power_sums
from .reports import ClaimReport, dumps
from .words import GroupWord, free_group, parse_word, word

__all__ = [
    "HermitianForm2", "invariant_form", "short_relation_oracle",
    "PingPongConfig", "PingPongCertificate", "ping_pong_certify",
    "verify_certificate", "PrecisionExhausted",
]

PAIR_CONTEXT = free_group(("A", "B"))
_ORACLE_CONTEXT = free_group(("x", "y"))
# memo entries: a certify-free and the verify-cert runs of its certificates
# in the same process use one q, and x, y and a few of their powers
_EXACT_MEMO_SIZE = 8
_WORD_MEMO_SIZE = 32


def _exact_key(q: CyclotomicNumber) -> tuple:
    # q as stored, not as a value: see the module docstring
    return q.conductor, q.num, q.den


@lru_cache(maxsize=_EXACT_MEMO_SIZE)
def _images_memo(key: tuple) -> tuple[CycloMatrix, CycloMatrix]:
    a, b, _ = squared_images(CyclotomicNumber(*key))
    return a, b


def _word_matrix(q: CyclotomicNumber, w: GroupWord, k: int) -> CycloMatrix:
    """w^k at the images A, B of q, k >= 1, memoised on (q as stored, w, k)."""
    return _word_memo(_exact_key(q), w, k)


@lru_cache(maxsize=_WORD_MEMO_SIZE)
def _word_memo(key: tuple, w: GroupWord, k: int) -> CycloMatrix:
    # an even power is the square of its half, an odd one the power below
    # times the word: w^2, w^3 and w^4 take one product each
    if k == 1:
        return pair_word_eval(w, *_images_memo(key))
    if k % 2 == 0:
        half = _word_memo(key, w, k // 2)
        return half * half
    return _word_memo(key, w, k - 1) * _word_memo(key, w, 1)


# ---------------------------------------------------------------------------
# invariant Hermitian forms

class HermitianForm2:
    __slots__ = ("matrix", "signature", "embedding", "circle")

    def __init__(self, matrix: CycloMatrix, signature: str, embedding: int,
                 circle: _Circle | None = None):
        self.matrix = matrix
        self.signature = signature      # "indefinite" | "definite"
        self.embedding = embedding
        # the chart of the null circle of an indefinite form; None for a
        # definite form or when J11 = 0
        self.circle = circle


def invariant_form(q: CyclotomicNumber, embedding: int) -> HermitianForm2 | None:
    """Hermitian J with A* J A = J and B* J B = J, or None if only degenerate.

    For q q-bar = 1 the form is Squier's, J = [[1, c], [c-bar, 1]] with
    c = 1/(q - 1) (Squier, "The Burau representation is unitary", Proc.
    AMS 90, 1984); a nondegenerate invariant form is unique up to a real
    factor, and this one is degenerate exactly when q has order 6.  At
    q = 1 the images are a parabolic pair in SL2(Z) and J is i times the
    symplectic form [[0, 1], [-1, 0]]; at q = -1, A = B = I and J is
    [[0, 1], [1, 0]].  Any other q (with q q-bar != 1) preserves only
    degenerate forms.  Invariance is checked exactly; the signature tag
    is certified at the requested embedding by excluding zero from an
    enclosure of det J (an exactly-real field element).

    Memoised on q's stored representation and the embedding: both checks
    run on the first call for a key, and a later call returns that result;
    an indefinite form's circle chart is made once with it.
    """
    return _form_memo(_exact_key(q), embedding)


@lru_cache(maxsize=_EXACT_MEMO_SIZE)
def _form_memo(key: tuple, embedding: int) -> HermitianForm2 | None:
    q = CyclotomicNumber(*key)
    a, b = _images_memo(key)
    one = CyclotomicNumber.from_rational(1)
    zero = CyclotomicNumber.from_rational(0)
    if (q - 1).is_zero:
        i = root_of_unity(4, 1)
        j_mat = CycloMatrix([[zero, i], [-i, zero]])
    elif (q + 1).is_zero:
        j_mat = CycloMatrix([[zero, one], [one, zero]])
    else:
        c = _inverse_of_q_minus_one(q)
        if c is None:
            return None
        j_mat = CycloMatrix([[one, c], [c.conjugate(), one]])
    det = j_mat.det2()
    if det.is_zero:
        return None
    _check_invariance(j_mat, (a, b))
    if _real_sign_certified(det, embedding) < 0:
        return HermitianForm2(j_mat, "indefinite", embedding, _invariant_circle(j_mat))
    return HermitianForm2(j_mat, "definite", embedding)


def _inverse_of_q_minus_one(q: CyclotomicNumber) -> CyclotomicNumber | None:
    """c = 1/(q - 1) for q != 1 with q q-bar = 1; None when q q-bar != 1.

    For a root of unity of order n > 1, (q - 1) * sum_{k<n} k q^k = n,
    since the powers q^0, ..., q^(n-1) sum to zero; so c is that sum over
    n, one integer vector where the field inverse multiplies phi(m) - 1
    Galois conjugates.  Any other q of norm one, such as (3+4i)/5, has
    infinite order and takes the field inverse.
    """
    n = q.multiplicative_order()
    if n is not None:
        (weighted,) = root_power_sums(q, [enumerate(range(n))])
        return weighted * Fraction(1, n)
    if q * q.conjugate() == 1:
        return (q - 1).inverse()
    return None


def _check_invariance(j_mat: CycloMatrix, mats) -> None:
    for m in mats:
        lhs = m.transpose_conjugate() * j_mat * m
        if lhs != j_mat:
            raise AssertionError("form is not invariant; implementation bug")


def _interval_sign(centre: int, rad: int) -> int:
    """1 or -1 when the integer interval centre +- rad excludes zero, else 0."""
    if centre - rad > 0:
        return 1
    if centre + rad < 0:
        return -1
    return 0


def _real_sign_certified(x: CyclotomicNumber, embedding: int) -> int:
    if x.conjugate() != x:
        raise AssertionError("expected an exactly-real field element")
    bits = 32
    for _ in range(10):
        ball = embed(x, embedding, bits)
        sign = _interval_sign(ball.re, ball.rad)
        if sign:
            return sign
        bits *= 2
    raise PrecisionExhausted("sign of the form determinant undecided")


# ---------------------------------------------------------------------------
# exact short-relation oracle

def short_relation_oracle(x_word: GroupWord, y_word: GroupWord,
                          q: CyclotomicNumber, max_len: int) -> GroupWord | None:
    """First projectively trivial reduced word in x, y of length <= max_len.

    The witness is the first in breadth-first order, letters ordered x,
    x^-1, y, y^-1, so it is deterministic; returns None if no relation
    exists at this length.  The four letter matrices are evaluated
    exactly once and searched by ``burau.first_scalar_word``, which
    matches half-words by their projective classes modulo a prime and
    confirms each candidate by its exact product.
    """
    x_mat, y_mat = _word_matrix(q, x_word, 1), _word_matrix(q, y_word, 1)
    sylls = first_scalar_word({(0, 1): x_mat, (0, -1): x_mat.inverse(),
                               (1, 1): y_mat, (1, -1): y_mat.inverse()}, max_len)
    return None if sylls is None else word(_ORACLE_CONTEXT, sylls)


# ---------------------------------------------------------------------------
# ping-pong on the invariant circle

class PingPongConfig:
    __slots__ = ("max_power", "precision")

    def __init__(self, max_power: int = 4, precision: int = 96):
        self.max_power = max_power
        self.precision = precision


# (repelling-arc, padding) half-widths as fractions of the least gap
# between the four fixed points; tried in order
_SHRINK_LADDER = (
    (Fraction(1, 3), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1, 6)),
    (Fraction(1, 8), Fraction(1, 12)),
)
# a generator whose projective order is at most this is rejected as torsion
_ORDER_BOUND = 120
# float search data is scaled to entries below 2^_FLOAT_BITS and read
# off ball centres on the grid 2^-_FLOAT_PRECISION
_FLOAT_BITS = 256
_FLOAT_PRECISION = 64


# Bounds on certificate input, checked before any arithmetic: verification
# works at twice the stored precision and doubles it on retries, and the
# conductor and the letters of each word's power set the size of the exact
# matrices and the precision their embeddings escalate to.
MAX_CERT_PRECISION = 1024
MAX_CERT_CONDUCTOR = 1024
MAX_CERT_POWER = 64
MAX_CERT_LETTERS = 4096
# "A^-1 " spells a letter in five characters; longer text is not parsed
_MAX_WORD_TEXT = 8 * MAX_CERT_LETTERS
# arc endpoints and the margin lie on the grid 1/65536 and the coefficients
# of q are small; a longer rational string is not parsed
_MAX_RATIONAL_TEXT = 256
# a longer certificate file is not parsed: twice the text that dumps prints
# for the largest certificate the field bounds admit, two words and at most
# MAX_CERT_CONDUCTOR coefficients and nine other rationals, each with 16
# characters of quotes, indentation and separators, and 1024 for the rest
MAX_CERT_TEXT = 2 * (2 * _MAX_WORD_TEXT + 1024
                     + (MAX_CERT_CONDUCTOR + 9) * (_MAX_RATIONAL_TEXT + 16))
_CERT_KEYS = ("q", "embedding", "x_word", "y_word", "power_x", "power_y",
              "arcs", "margin", "precision")
_ARC_NAMES = ("x_att", "x_rep", "y_att", "y_rep")
_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_JSON_KINDS = {dict: "object", list: "list", int: "integer", str: "string"}


def _json_typed(value, kind: type, what: str):
    # JSON true and false load as bool, a subclass of int
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"certificate {what} must be a JSON {_JSON_KINDS[kind]}")
    return value


def _json_int(value, what: str, lo: int, hi: int) -> int:
    if not lo <= _json_typed(value, int, what) <= hi:
        raise ValueError(f"certificate {what} must lie in {lo}..{hi}")
    return value


def check_cert_letters(w: GroupWord, power: int, what: str) -> None:
    """Raise ValueError when w^power has more than MAX_CERT_LETTERS letters."""
    if w.length() * power > MAX_CERT_LETTERS:
        raise ValueError(f"{what} has {w.length()} letters; to the power {power} "
                         f"that exceeds {MAX_CERT_LETTERS}")


def _json_word(value, what: str, power: int) -> str:
    text = _json_typed(value, str, what)
    if len(text) > _MAX_WORD_TEXT:
        raise ValueError(f"certificate {what} is longer than {_MAX_WORD_TEXT} characters")
    check_cert_letters(parse_word(PAIR_CONTEXT, text), power, f"certificate {what}")
    return text


def _json_rational(value, what: str) -> Fraction:
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise ValueError(f"certificate {what} must be a rational string such as '3/8'")
    if len(value) > _MAX_RATIONAL_TEXT:
        raise ValueError(f"certificate {what} is longer than {_MAX_RATIONAL_TEXT} characters")
    return Fraction(value)


class PingPongCertificate:
    """Freeness witness for <x^a, y^b> acting on the invariant circle.

    Arcs are closed and given by rational fractions of a turn
    (counterclockwise from the first endpoint to the second); the margin
    is the least rational gap between consecutive arcs.  Verification
    re-derives every inclusion from the exact data in this record.
    """

    __slots__ = ("q", "embedding", "x_word", "y_word", "power_x", "power_y", "arcs",
                 "margin", "precision")

    def __init__(self, q: CyclotomicNumber, embedding: int, x_word: str, y_word: str,
                 power_x: int, power_y: int, arcs: dict, margin: Fraction, precision: int):
        self.q = q
        self.embedding = embedding
        self.x_word = x_word
        self.y_word = y_word
        self.power_x = power_x
        self.power_y = power_y
        self.arcs = arcs            # keys x_att, x_rep, y_att, y_rep -> [turn, turn]
        self.margin = margin
        self.precision = precision

    def __eq__(self, other):
        return (isinstance(other, PingPongCertificate)
                and all(getattr(self, k) == getattr(other, k) for k in self.__slots__))

    def to_json(self) -> dict:
        return {
            "q": self.q.to_json(),
            "embedding": self.embedding,
            "x_word": self.x_word,
            "y_word": self.y_word,
            "power_x": self.power_x,
            "power_y": self.power_y,
            "arcs": {k: [str(v[0]), str(v[1])] for k, v in self.arcs.items()},
            "margin": str(self.margin),
            "precision": self.precision,
        }

    @staticmethod
    def from_json(data) -> "PingPongCertificate":
        """Read a certificate from untrusted JSON data.  Raises ValueError on
        a malformed or out-of-bounds field, before any arithmetic runs."""
        if not isinstance(data, dict):
            raise ValueError("certificate must be a JSON object")
        missing = [k for k in _CERT_KEYS if k not in data]
        if missing:
            raise ValueError(f"certificate lacks {', '.join(missing)}")
        q = _json_typed(data["q"], dict, "q")
        if sorted(q) != ["coeffs", "conductor"]:
            raise ValueError("certificate q must have exactly the keys conductor, coeffs")
        conductor = _json_int(q["conductor"], "q conductor", 1, MAX_CERT_CONDUCTOR)
        coeffs = _json_typed(q["coeffs"], list, "q coeffs")
        if len(coeffs) != euler_phi(conductor):
            raise ValueError(f"certificate q at conductor {conductor} must have "
                             f"phi({conductor}) = {euler_phi(conductor)} coefficients")
        coeffs = [_json_rational(c, "q coefficient") for c in coeffs]
        arcs = _json_typed(data["arcs"], dict, "arcs")
        if sorted(arcs) != list(_ARC_NAMES):
            raise ValueError(f"certificate arcs must be exactly {', '.join(_ARC_NAMES)}")
        turns = {}
        for name in arcs:
            ends = _json_typed(arcs[name], list, f"arc {name}")
            if len(ends) != 2:
                raise ValueError(f"certificate arc {name} must have two endpoints")
            turns[name] = tuple(_json_rational(t, f"arc {name} endpoint") for t in ends)
            if not all(0 <= t < 1 for t in turns[name]):
                raise ValueError(f"certificate arc {name} endpoints must lie in [0, 1)")
        precision = _json_int(data["precision"], "precision", 1, MAX_CERT_PRECISION)
        power_x = _json_int(data["power_x"], "power_x", 1, MAX_CERT_POWER)
        power_y = _json_int(data["power_y"], "power_y", 1, MAX_CERT_POWER)
        x_word = _json_word(data["x_word"], "x_word", power_x)
        y_word = _json_word(data["y_word"], "y_word", power_y)
        margin = _json_rational(data["margin"], "margin")
        embedding = _json_typed(data["embedding"], int, "embedding")
        q_value = CyclotomicNumber.from_coefficients(conductor, coeffs)
        if math.gcd(embedding, q_value.conductor) != 1:
            raise ValueError("certificate embedding must be coprime to the conductor of q")
        return PingPongCertificate(
            q=q_value, embedding=embedding, x_word=x_word, y_word=y_word,
            power_x=power_x, power_y=power_y, arcs=turns, margin=margin,
            precision=precision,
        )

    def dump(self, path: str):
        with open(path, "w") as fh:
            fh.write(dumps(self.to_json()))

    @staticmethod
    def load(path: str) -> "PingPongCertificate":
        with open(path) as fh:
            text = fh.read(MAX_CERT_TEXT + 1)
        if len(text) > MAX_CERT_TEXT:
            raise ValueError(f"certificate file is longer than {MAX_CERT_TEXT} characters")
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        return PingPongCertificate.from_json(data)


class _Circle:
    __slots__ = ("centre", "radius_sq")

    def __init__(self, centre: CyclotomicNumber, radius_sq: CyclotomicNumber):
        self.centre = centre            # -J12 / J11, an exact field element
        self.radius_sq = radius_sq      # -det J / J11^2, exactly real and positive


def _invariant_circle(j: CycloMatrix) -> _Circle | None:
    # the null circle of the form J in the chart v = (z, 1); None when
    # J11 = 0, where that chart is degenerate
    alpha = j[0, 0]
    if alpha.is_zero:
        return None
    return _Circle(-(j[0, 1]) / alpha, -(j.det2()) / (alpha * alpha))


class _CircleBalls:
    """Centre and radius enclosures of the invariant circle at one precision."""

    def __init__(self, circle: _Circle, embedding: int, bits: int):
        self.bits = bits
        self.centre = embed(circle.centre, embedding, bits)
        rsq = embed(circle.radius_sq, embedding, bits)
        lo, hi = rsq.re - rsq.rad, rsq.re + rsq.rad
        if lo <= 0:
            raise PrecisionExhausted("radius enclosure touches zero")
        # sqrt(v 2^-bits) has the mantissa sqrt(v 2^bits) on the same grid
        r_lo, r_hi = math.isqrt(lo << bits), math.isqrt(hi << bits) + 1
        self.radius = ComplexBall((r_lo + r_hi) >> 1, 0, (r_hi - r_lo + 1) >> 1, bits)

    def point(self, t: Fraction) -> ComplexBall:
        return self.centre + self.radius * unit_turn(t, self.bits)


def _mobius(mat_balls, p: ComplexBall) -> ComplexBall:
    # every ball operation rounds onto its operands' grid and widens the
    # radius to match, so the image needs no rounding here
    (a, b), (c, d) = mat_balls
    return (a * p + b) / (c * p + d)


def _embed_matrix(m: CycloMatrix, embedding: int, bits: int):
    return tuple(tuple(embed(v, embedding, bits) for v in row) for row in m.rows)


def _orientation(p: ComplexBall, q_: ComplexBall, r: ComplexBall) -> int:
    # sign of the cross product (q - p) x (r - p); 0 when undecided
    u = q_ - p
    v = r - p
    # real ball of u.re * v.im - u.im * v.re, exact on the grid 2^-2bits
    centre = u.re * v.im - u.im * v.re
    bound_u = math.isqrt(u.re * u.re + u.im * u.im) + 1
    bound_v = math.isqrt(v.re * v.re + v.im * v.im) + 1
    return _interval_sign(centre, bound_u * v.rad + bound_v * u.rad + u.rad * v.rad)


def _arcs_disjoint_margin(arcs: dict) -> Fraction | None:
    """Least counterclockwise gap between the four closed arcs, or None
    when they are not pairwise disjoint.

    Walking the arcs in start order, lengths plus gaps must tile the full
    circle exactly; anything else means two arcs overlap or nest.
    """
    items = sorted(arcs.values(), key=lambda se: se[0] % 1)
    margin = None
    covered = Fraction(0)
    for (s1, e1), (s2, _) in zip(items, items[1:] + items[:1]):
        length = (e1 - s1) % 1
        gap = (s2 - e1) % 1
        if gap == 0:
            return None
        covered += length + gap
        margin = gap if margin is None else min(margin, gap)
    if covered != 1:
        return None
    return margin


def _exact_pair(cert: PingPongCertificate) -> tuple[CycloMatrix, CycloMatrix, _Circle] | None:
    """The certificate's x^power_x, y^power_y and invariant circle, exactly;
    None when the form at its embedding is not indefinite or has J11 = 0.
    A search that found the certificate left the powers in the word memo."""
    form = invariant_form(cert.q, cert.embedding)
    if form is None or form.signature != "indefinite" or form.circle is None:
        return None
    x_word, y_word = (parse_word(PAIR_CONTEXT, w) for w in (cert.x_word, cert.y_word))
    return (_word_matrix(cert.q, x_word, cert.power_x),
            _word_matrix(cert.q, y_word, cert.power_y), form.circle)


def _check_inclusions(cert: PingPongCertificate, bits: int) -> bool:
    """Re-derive the two mapping-table inclusions from the certificate
    alone, at one precision; False when the form is not indefinite."""
    pair = _exact_pair(cert)
    return pair is not None and _ball_inclusions(cert, *pair, bits)


def _ball_inclusions(cert: PingPongCertificate, x_mat: CycloMatrix, y_mat: CycloMatrix,
                     circle: _Circle, bits: int) -> bool:
    """Certify x(C - x_rep) in x_att and y(C - y_rep) in y_att with balls,
    for the exact data of ``_exact_pair``: the whole mapping table.

    A bijection g of the circle C maps C - R onto C - g(R), so g(C - R)
    lies in A exactly when g^-1(C - A) lies in R (Tits, J. Algebra 1972;
    de la Harpe, *Topics in Geometric Group Theory*, II.B).  x and y are
    such bijections, preserving the disk and so the circle's orientation,
    since ``invariant_form`` proves the circle's form J exactly invariant
    under both generators; the inverse inclusions need no check.
    """
    balls = _CircleBalls(circle, cert.embedding, bits)
    for mat, name in ((x_mat, "x"), (y_mat, "y")):
        (rep_s, rep_e), (att_s, att_e) = cert.arcs[f"{name}_rep"], cert.arcs[f"{name}_att"]
        mb = _embed_matrix(mat, cert.embedding, bits)
        # the complement of the repelling arc is the ccw arc (rep_e, rep_s);
        # its image is the ccw arc between the images of its endpoints
        w1 = _mobius(mb, balls.point(rep_e))
        w2 = _mobius(mb, balls.point(rep_s))
        a1 = balls.point(att_s)
        signs = (_orientation(a1, w1, w2), _orientation(a1, w2, balls.point(att_e)))
        if 0 in signs:
            raise PrecisionExhausted("inclusion sign undecided")
        if signs != (1, 1):
            return False
    return True


def _numeric_value(v: CyclotomicNumber, embedding: int, shift: int = 0) -> complex:
    # v / 2^shift at the embedding, read off the centre of its ball; int / int
    # rounds correctly, as float() does, and does not overflow on the way
    ball = embed(v, embedding, _FLOAT_PRECISION)
    scale = 1 << (ball.bits + shift)
    return complex(ball.re / scale, ball.im / scale)


def _fixed_turns(m: CycloMatrix, embedding: int, centre: complex,
                 radius: float) -> tuple[float, float, complex] | None:
    """Attracting and repelling fixed turns of m on the circle and its
    multiplier k = det / lambda_1^2; None when m is not hyperbolic there.
    The one place where a search matrix's floats are made.  The entries
    are scaled by 2^-shift, and the exact determinant (a*d - b*c of large
    entries cancels in floats) by 2^-2shift, which moves neither the fixed
    points nor k and keeps deep words from overflowing; shift is 0 for
    entries below 2^_FLOAT_BITS."""
    top = max(abs(c).bit_length() - v.den.bit_length() for r in m.rows for v in r for c in v.num)
    shift = max(0, top - _FLOAT_BITS)
    (a, b), (c, d) = ([_numeric_value(v, embedding, shift) for v in row] for row in m.rows)
    det = _numeric_value(m.det2(), embedding, 2 * shift)
    tr = a + d
    disc = cmath.sqrt(tr * tr - 4 * det)
    lams = sorted(((tr + disc) / 2, (tr - disc) / 2), key=abs, reverse=True)
    if abs(abs(lams[0]) - abs(lams[1])) < 1e-9:
        return None  # not hyperbolic at this embedding
    pts = []
    for lam in lams:
        v = (b, lam - a) if abs(b) > 1e-12 else (lam - d, c)
        if abs(v[1]) < 1e-13:
            return None
        z = v[0] / v[1]
        if abs(abs(z - centre) - radius) > 1e-6 * max(1.0, radius):
            return None
        pts.append(cmath.phase(z - centre) / (2 * math.pi) % 1.0)
    return pts[0], pts[1], det / (lams[0] * lams[0])  # attracting first


def ping_pong_certify(x_word: GroupWord, y_word: GroupWord, q: CyclotomicNumber,
                      embedding: int, config: PingPongConfig = PingPongConfig()
                      ) -> PingPongCertificate | None:
    """Search for a certified ping-pong configuration for powers of the pair.

    Returns the first certificate found over powers (a, b) up to
    config.max_power and the aperture ladder, or None when the
    search space is exhausted.  Raises ValueError with the first reason
    the pair is ineligible (no indefinite form; x trivial or of finite
    order; the same for y; a degenerate circle chart, J11 = 0, as at
    q = 1 and q = -1; a nonpositive radius), and PrecisionExhausted on an
    inclusion undecided at any tried precision.
    """
    form = invariant_form(q, embedding)
    if form is None or form.signature != "indefinite":
        raise ValueError("no indefinite invariant form at this embedding")
    # a certificate stores the words as text in the pair's alphabet: search
    # on the words that text denotes
    x_word, y_word = (parse_word(PAIR_CONTEXT, str(w)) for w in (x_word, y_word))
    x_mat, y_mat = _word_matrix(q, x_word, 1), _word_matrix(q, y_word, 1)
    # eligibility, checked in this order before any search: the torsion
    # test is the one-letter scalar search, on residues
    for name, mat in (("x", x_mat), ("y", y_mat)):
        if mat.is_scalar():
            raise ValueError(f"generator {name} is projectively trivial")
        if projective_order(mat, _ORDER_BOUND) is not None:
            raise ValueError(f"generator {name} has finite projective order")
    circle = form.circle
    if circle is None:
        raise ValueError("circle chart degenerate: J11 = 0")
    centre_n = _numeric_value(circle.centre, embedding)
    rsq_n = _numeric_value(circle.radius_sq, embedding).real
    if rsq_n <= 0:
        raise ValueError("invariant circle has nonpositive radius at this embedding")
    radius_n = math.sqrt(rsq_n)

    # x^k has the fixed points of x and the k-th power of its multiplier,
    # so the float data of every power comes from the pair's
    fx, fy = (_fixed_turns(m, embedding, centre_n, radius_n) for m in (x_mat, y_mat))
    if fx is None or fy is None:
        return None
    (x_att, x_rep, k_x), (y_att, y_rep, k_y) = fx, fy
    undecided = False
    # the pairs (a, b) by max(a, b), then a, then b
    powers = range(1, config.max_power + 1)
    for ax, by in sorted(((a, b) for a in powers for b in powers), key=max):
        fxa, fyb = (x_att, x_rep, k_x ** ax), (y_att, y_rep, k_y ** by)
        for shrink, pad in _SHRINK_LADDER:
            arcs = _adaptive_arcs(fxa, fyb, centre_n, radius_n, shrink, pad)
            if arcs is None:
                continue
            margin = _arcs_disjoint_margin(arcs)
            if margin is None or margin <= 0:
                continue
            # the exact powers, made on the first candidate that needs them
            x_pow, y_pow = _word_matrix(q, x_word, ax), _word_matrix(q, y_word, by)
            for bits in (config.precision, 2 * config.precision):
                cert = PingPongCertificate(q=q, embedding=embedding, x_word=str(x_word),
                                           y_word=str(y_word), power_x=ax, power_y=by,
                                           arcs=arcs, margin=margin, precision=bits)
                try:
                    if _ball_inclusions(cert, x_pow, y_pow, circle, bits):
                        return cert
                    break  # decided negative: try the next shrink level
                except PrecisionExhausted:
                    undecided = True
    if undecided:
        raise PrecisionExhausted("inclusions undecided at the configured precision")
    return None


_ARC_DENOM = 1 << 16


def _image_offset(fixed, centre_n: complex, radius_n: float, t: float) -> float:
    """The signed turn from g's attracting point to the image of the circle
    point at turn t, from ``fixed = _fixed_turns(g, ...)`` alone.  With
    attracting point a, repelling point r and multiplier k, g satisfies
    (g z - a) / (g z - r) = k (z - a) / (z - r) (Beardon, *The Geometry of
    Discrete Groups*, ch. 4), so g z - a = w (a - r) / (1 - w) with
    w = k (z - a) / (z - r): an image however close to a keeps its sign."""
    att, rep, k = fixed
    a, r, z = (centre_n + radius_n * cmath.exp(2j * math.pi * s) for s in (att, rep, t))
    w = k * (z - a) / (z - r)
    return cmath.phase(1 + w * (a - r) / ((1 - w) * (a - centre_n))) / (2 * math.pi)


def _adaptive_arcs(fx, fy, centre_n: complex, radius_n: float,
                   shrink: Fraction, pad: Fraction) -> dict | None:
    """Propose arcs from the fixed points and multipliers of ``_fixed_turns``:
    repelling arcs around the repelling points, attracting arcs around the
    images of their complements, endpoints rounded outward onto a dyadic
    grid.  Soundness comes from the ball checks afterwards, not from this
    construction."""
    spts = sorted([fx[0] % 1, fx[1] % 1, fy[0] % 1, fy[1] % 1])
    gap = min((b - a) % 1.0 for a, b in zip(spts, spts[1:] + [spts[0] + 1.0]))
    if gap < 1e-5:
        return None
    dr = float(shrink) * gap
    padf = float(pad) * gap

    def outward(lo: float, hi: float) -> tuple[Fraction, Fraction]:
        start = Fraction(math.floor(lo * _ARC_DENOM), _ARC_DENOM) % 1
        end = Fraction(math.ceil(hi * _ARC_DENOM), _ARC_DENOM) % 1
        return start, end

    arcs = {}
    for name, fixed in (("x", fx), ("y", fy)):
        att, rep, _ = fixed
        rep_lo, rep_hi = rep - dr, rep + dr
        # the complement of the repelling arc maps onto the ccw arc lo -> hi;
        # a negative width is an image wider than half the circle, wrapped
        lo, hi = (_image_offset(fixed, centre_n, radius_n, t) for t in (rep_hi, rep_lo))
        if not 0 <= hi - lo <= 0.45:
            return None
        arcs[f"{name}_rep"] = outward(rep_lo, rep_hi)
        arcs[f"{name}_att"] = outward(att + lo - padf, att + hi + padf)
    return arcs


def verify_certificate(cert: PingPongCertificate) -> bool:
    """Independent re-check: exact arc bookkeeping plus ball inclusions at
    doubled precision.  Returns False on any failure.

    Every inclusion is re-derived on each call.  The exact powers come
    from the certificate's own q, re-parsed words and powers, through the
    word memo, where a search that found the certificate left them."""
    margin = _arcs_disjoint_margin(cert.arcs)
    if margin is None or margin <= 0 or margin != cert.margin:
        return False
    try:
        pair = _exact_pair(cert)
    except PrecisionExhausted:
        return False
    if pair is None:
        return False
    bits = cert.precision * 2
    for _ in range(3):
        try:
            return _ball_inclusions(cert, *pair, bits)
        except PrecisionExhausted:
            bits *= 2
    return False


def oracle_report(x_word: GroupWord, y_word: GroupWord, q: CyclotomicNumber,
                  max_len: int) -> tuple[GroupWord | None, ClaimReport]:
    witness = short_relation_oracle(x_word, y_word, q, max_len)
    found = witness is not None
    return witness, ClaimReport(
        claim="no projectively trivial reduced word up to the length bound",
        params={"x": str(x_word), "y": str(y_word), "q": str(q), "max_len": max_len},
        witnesses=[] if witness is None else [{"relation": str(witness)}],
        passed=not found,
    )
