import cmath
import functools
import itertools
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from burauforge import burau, hyperbolic
from burauforge.burau import CycloMatrix, pair_word_eval, projective_order, squared_images
from burauforge.cli import main
from burauforge.cyclotomic import (CyclotomicNumber, cyclotomic_polynomial, euler_phi,
                                   root_of_unity)
from burauforge.hyperbolic import (PAIR_CONTEXT, HermitianForm2, PingPongCertificate,
                                   PingPongConfig, PrecisionExhausted, invariant_form,
                                   ping_pong_certify, short_relation_oracle, verify_certificate)
from burauforge.words import free_group, generator, iterated_bracket, parse_word, word
from test_cyclotomic import row_reduce

Q14 = root_of_unity(14, 1)
X_WORD = parse_word(PAIR_CONTEXT, "A B A^-1 B^-1")
Y_WORD = parse_word(PAIR_CONTEXT, "A^2 B A^-2 B^-1")


def clear_exact_memos():
    hyperbolic._pair_memo.cache_clear()
    hyperbolic._form_memo.cache_clear()


def dagger(m):
    return m.transpose_conjugate()


def test_form_exists_and_is_exactly_invariant():
    form = invariant_form(Q14, 1)
    assert form is not None
    a, b, c = squared_images(Q14)
    assert dagger(a) * form.matrix * a == form.matrix
    assert dagger(b) * form.matrix * b == form.matrix
    # the centre is scalar of norm one, so it preserves every form exactly
    assert (c[0, 0] * c[0, 0].conjugate()) == 1
    assert dagger(c) * form.matrix * c == form.matrix


def test_form_invariance_on_random_words():
    import random
    rng = random.Random(71)
    form = invariant_form(Q14, 1)
    a, b, _ = squared_images(Q14)
    for _ in range(50):
        w = word(PAIR_CONTEXT, [(rng.randint(0, 1), rng.choice([-2, -1, 1, 2]))
                                for _ in range(4)])
        m = pair_word_eval(w, a, b)
        assert dagger(m) * form.matrix * m == form.matrix


def test_order14_has_indefinite_conjugate():
    signatures = {j: invariant_form(Q14, j).signature for j in range(1, 7)}
    assert "indefinite" in signatures.values()
    assert "definite" in signatures.values()


def test_order4_definite_everywhere():
    q = root_of_unity(4, 1)
    for j in (1, 3):
        form = invariant_form(q, j)
        assert form is not None and form.signature == "definite"


def _indefinite(q, embedding):
    form = invariant_form(q, embedding)
    return form is not None and form.signature == "indefinite"


def test_first_embedding_is_indefinite_exactly_from_order_seven():
    # certify-free tries embedding 1 only
    for n in range(2, 201):
        assert _indefinite(root_of_unity(n, 1), 1) == (n == 2 or n >= 7), n


def test_indefinite_embeddings_are_those_near_one():
    # |sigma_j(q) - 1| = 2 sin(pi j / n) is below 1 exactly when j / n
    # lies within a sixth of a turn of 0, and it is least at j = 1
    for n in range(3, 41):
        q = root_of_unity(n, 1)
        for j in range(1, n):
            if math.gcd(j, n) == 1:
                assert _indefinite(q, j) == (6 * min(j, n - j) < n), (n, j)


def test_parabolic_parameter_gets_scaled_symplectic_form():
    # at q = 1 the image is a parabolic pair of determinant one; it
    # preserves i times the symplectic form, which is indefinite
    from burauforge.cyclotomic import CyclotomicNumber
    form = invariant_form(CyclotomicNumber.from_rational(1), 1)
    assert form is not None and form.signature == "indefinite"
    a, b, _ = squared_images(CyclotomicNumber.from_rational(1))
    assert dagger(a) * form.matrix * a == form.matrix
    assert dagger(b) * form.matrix * b == form.matrix


def _rebuilt(cert, **changes):
    # a copy of cert with the given fields changed, built by the constructor
    fields = {k: getattr(cert, k) for k in PingPongCertificate.__slots__}
    return PingPongCertificate(**{**fields, **changes})


def test_a_form_without_a_circle_chart_makes_the_pair_ineligible(certificate):
    # J11 = 0 at q = 1 is exact, not a precision failure: the search refuses
    # the pair, and a certificate moved to q = 1 fails verification
    q = CyclotomicNumber.from_rational(1)
    with pytest.raises(ValueError, match="circle chart degenerate"):
        ping_pong_certify(X_WORD, Y_WORD, q, 1)
    moved = _rebuilt(certificate, q=q)
    assert hyperbolic._exact_pair(moved) is None
    assert not verify_certificate(moved)


def reference_invariant_form(q, embedding):
    """The invariant form solved as a linear system: the kernel of the 8x4
    system M* J M - J = 0 over the field, whose basis vectors and their
    zeta-scaled copies give Hermitian parts; the first nondegenerate one
    is the form."""
    zero = CyclotomicNumber.from_rational(0)
    one = CyclotomicNumber.from_rational(1)
    a, b, _ = squared_images(q)
    rows = []
    for mat in (a, b):
        md = dagger(mat)
        for r in range(2):
            for s in range(2):
                # coefficient of J_ij in (M* J M - J)_rs
                rows.append([md[r, i] * mat[j, s] - (1 if (i, j) == (r, s) else 0)
                             for i in range(2) for j in range(2)])
    rref, pivots = row_reduce(rows)
    basis = []
    for fc in (c for c in range(4) if c not in pivots):
        vec = [zero] * 4
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -rref[i][fc]
        basis.append(vec)

    def hermitian_part(m):
        summed = CycloMatrix([[m[i, j] + m[j, i].conjugate() for j in range(2)]
                              for i in range(2)])
        return None if all(v.is_zero for row in summed.rows for v in row) else summed

    zeta = root_of_unity(q.conductor if q.conductor >= 3 else 4, 1)
    candidates = []
    for vec in basis:
        j_mat = CycloMatrix([vec[:2], vec[2:]])
        scaled = CycloMatrix([[zeta * v for v in row] for row in j_mat.rows])
        candidates += [h for h in (hermitian_part(j_mat), hermitian_part(scaled))
                       if h is not None]
    for j_mat in candidates:
        det = j_mat.det2()
        if not det.is_zero:
            sign = hyperbolic._real_sign_certified(det, embedding)
            return HermitianForm2(j_mat, "indefinite" if sign < 0 else "definite",
                                  embedding)
    return None


def _agreement_parameters():
    for n in range(1, 31):
        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                yield root_of_unity(n, k)
    i = root_of_unity(4, 1)
    yield CyclotomicNumber.from_rational(Fraction(3, 5)) + i * Fraction(4, 5)
    yield CyclotomicNumber.from_rational(2)
    yield 1 + root_of_unity(5, 1)


def test_closed_form_agrees_with_the_linear_solve():
    # the closed form is a real multiple of the solved form, or both are
    # None; then det J differs by a positive factor at every embedding
    seen = 0
    for q in _agreement_parameters():
        m = q.conductor
        embeddings = [j for j in range(1, max(m, 2)) if math.gcd(j, m) == 1]
        form = invariant_form(q, embeddings[0])
        ref = reference_invariant_form(q, embeddings[0])
        assert (form is None) == (ref is None), q
        if form is None:
            continue
        assert form.signature == ref.signature, q
        seen += 1
        i, j = next((i, j) for i in range(2) for j in range(2)
                    if not form.matrix[i, j].is_zero)
        ratio = ref.matrix[i, j] / form.matrix[i, j]
        assert ratio.conjugate() == ratio, q
        assert ref.matrix == CycloMatrix([[ratio * v for v in row]
                                          for row in form.matrix.rows]), q
        # float values stand in for the certified signs, which take a few
        # ms each; both determinants stay well away from zero here
        det, ref_det = form.matrix.det2(), ref.matrix.det2()
        for e in embeddings:
            d = hyperbolic._numeric_value(det, e).real
            ref_d = hyperbolic._numeric_value(ref_det, e).real
            assert min(abs(d), abs(ref_d)) > 1e-6 and (d < 0) == (ref_d < 0), (q, e)
    # every root of unity but those of order 6, and (3+4i)/5
    assert seen == sum(1 for n in range(1, 31) for k in range(1, n + 1)
                       if math.gcd(k, n) == 1) - 2 + 1


def test_oracle_dependent_pair():
    a = parse_word(PAIR_CONTEXT, "A")
    a2 = parse_word(PAIR_CONTEXT, "A^2")
    witness = short_relation_oracle(a, a2, Q14, 3)
    assert witness is not None and witness.length() <= 3


def test_oracle_order14_clear_at_length_6():
    assert short_relation_oracle(X_WORD, Y_WORD, Q14, 6) is None


def test_oracle_finite_image_finds_witness():
    q5 = root_of_unity(5, 1)
    witness = short_relation_oracle(X_WORD, Y_WORD, q5, 20)
    assert witness is not None and witness.length() <= 20
    # the reported witness really is a relation
    a, b, _ = squared_images(q5)
    x = pair_word_eval(X_WORD, a, b)
    y = pair_word_eval(Y_WORD, a, b)
    from burauforge.words import evaluate_word
    from burauforge.burau import CycloMatrix
    m = evaluate_word(witness, {"x": x, "y": y}, CycloMatrix.identity(2))
    assert m.is_scalar()


def test_oracle_finite_image_other_orders():
    for n in (3, 4, 6):
        q = root_of_unity(n, 1)
        assert short_relation_oracle(X_WORD, Y_WORD, q, 20) is not None


def reference_oracle(x_word, y_word, q, max_len):
    """The relation oracle with the full product built at every node."""
    a, b, _ = squared_images(q)
    x_mat = pair_word_eval(x_word, a, b)
    y_mat = pair_word_eval(y_word, a, b)
    letters = [((0, 1), x_mat), ((0, -1), x_mat.inverse()),
               ((1, 1), y_mat), ((1, -1), y_mat.inverse())]
    frontier = [((), CycloMatrix.identity(2))]
    for _ in range(max_len):
        new_frontier = []
        for sylls, mat in frontier:
            last = sylls[-1] if sylls else None
            for (gen, sign), letter_mat in letters:
                if last is not None and last[0] == gen and last[1] == -sign:
                    continue
                nxt = mat * letter_mat
                if nxt.is_scalar():
                    return word(free_group(("x", "y")), sylls + ((gen, sign),))
                new_frontier.append((sylls + ((gen, sign),), nxt))
        frontier = new_frontier
    return None


# witnesses of the commutator pair at finite-image orders, each found on
# the last level when the length bound equals the witness length
LAST_LEVEL_WITNESSES = [(3, "x^2", 2), (4, "x", 1), (5, "y^3", 3),
                        (6, "x y x^-1 y^-1", 4)]


@pytest.mark.parametrize("order,text,length", LAST_LEVEL_WITNESSES)
def test_oracle_witness_on_the_last_level(order, text, length):
    q = root_of_unity(order, 1)
    witness = short_relation_oracle(X_WORD, Y_WORD, q, length)
    assert str(witness) == text and witness.length() == length
    assert str(short_relation_oracle(X_WORD, Y_WORD, q, 20)) == text


# order 4 is left out: its witness has length 1 and the bound must be positive
@pytest.mark.parametrize("order,text,length",
                         [case for case in LAST_LEVEL_WITNESSES if case[2] > 1])
def test_oracle_no_witness_one_level_short(order, text, length):
    q = root_of_unity(order, 1)
    assert short_relation_oracle(X_WORD, Y_WORD, q, length - 1) is None


@pytest.mark.parametrize("order", [3, 5, 7, 8, 14])
def test_oracle_agrees_with_full_product_reference(order):
    # up to length 7: odd and even lengths split into halves differently
    q = root_of_unity(order, 1)
    for max_len in range(1, 8):
        for x, y in [(X_WORD, Y_WORD), (parse_word(PAIR_CONTEXT, "A"),
                                        parse_word(PAIR_CONTEXT, "A^2"))]:
            got = short_relation_oracle(x, y, q, max_len)
            want = reference_oracle(x, y, q, max_len)
            assert str(got) == str(want), (order, max_len)


# nontrivial reduced words of at most six letters in A and B
pair_words = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                      min_size=1, max_size=6).map(
    lambda sylls: word(PAIR_CONTEXT, sylls)).filter(lambda w: not w.is_identity)


@given(st.integers(min_value=2, max_value=40), pair_words, pair_words,
       st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_oracle_agrees_with_reference_on_random_pairs(order, x, y, max_len):
    q = root_of_unity(order, 1)
    assert str(short_relation_oracle(x, y, q, max_len)) == str(
        reference_oracle(x, y, q, max_len))


def test_oracle_agrees_with_reference_at_a_norm_one_parameter_of_infinite_order():
    # (3+4i)/5 puts powers of 5 in the denominators of the letter matrices
    q = CyclotomicNumber.from_rational(Fraction(3, 5)) + root_of_unity(4, 1) * Fraction(4, 5)
    for max_len in range(1, 5):
        for x, y in [(X_WORD, Y_WORD), (parse_word(PAIR_CONTEXT, "A"),
                                        parse_word(PAIR_CONTEXT, "A^2"))]:
            assert str(short_relation_oracle(x, y, q, max_len)) == str(
                reference_oracle(x, y, q, max_len))


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _least_split_root(m, avoid):
    # the least prime p = 1 (mod m) prime to avoid, and the least root of
    # Phi_m modulo p
    p = m + 1
    while not (_is_prime(p) and math.gcd(p, avoid) == 1):
        p += m
    phi = cyclotomic_polynomial(m)
    return p, next(r for r in range(p) if sum(c * r ** k for k, c in enumerate(phi)) % p == 0)


def test_oracle_confirms_candidates_of_a_small_modulus(monkeypatch):
    # modulo the least prime p = 1 (mod m) many products that are not
    # scalar read as scalar; each is confirmed exactly and passed over
    monkeypatch.setattr(burau, "_split_root", _least_split_root)
    confirmations = []
    is_scalar = CycloMatrix.is_scalar

    def recorded(self):
        confirmations.append(is_scalar(self))
        return confirmations[-1]

    pairs = [(X_WORD, Y_WORD), (parse_word(PAIR_CONTEXT, "A"), parse_word(PAIR_CONTEXT, "A^2"))]
    for order in (3, 5, 6, 7, 8, 14):
        q = root_of_unity(order, 1)
        for max_len in range(1, 6):
            for x, y in pairs:
                monkeypatch.setattr(CycloMatrix, "is_scalar", recorded)
                got = short_relation_oracle(x, y, q, max_len)
                monkeypatch.setattr(CycloMatrix, "is_scalar", is_scalar)
                assert str(got) == str(reference_oracle(x, y, q, max_len)), (order, max_len)
    assert False in confirmations


def _scalar_words(x_word, y_word, q, length):
    """Every reduced word of this length whose exact product is scalar, in
    the search order."""
    a, b, _ = squared_images(q)
    x_mat, y_mat = pair_word_eval(x_word, a, b), pair_word_eval(y_word, a, b)
    letters = {(0, 1): x_mat, (0, -1): x_mat.inverse(),
               (1, 1): y_mat, (1, -1): y_mat.inverse()}
    return [word(free_group(("x", "y")), sylls)
            for sylls in itertools.product(letters, repeat=length)
            if all(u != (g, -e) for u, (g, e) in zip(sylls, sylls[1:]))
            and functools.reduce(lambda m, k: m * letters[k], sylls[1:],
                                 letters[sylls[0]]).is_scalar()]


@pytest.mark.parametrize("y_text,length,first", [
    # x y^-1 x, y^-1 x^2, ... tie with x^2 y^-1, whose halves come first
    ("A^2", 3, "x^2 y^-1"),
    # y = x^-1: the half x^-1 shares x's key with y, and comes before it,
    # but cancels at the junction
    ("A^-1", 2, "x y"),
])
def test_oracle_takes_the_first_of_tied_witnesses(y_text, length, first):
    x, y = parse_word(PAIR_CONTEXT, "A"), parse_word(PAIR_CONTEXT, y_text)
    q = root_of_unity(7, 1)
    assert _scalar_words(x, y, q, length - 1) == []
    tied = _scalar_words(x, y, q, length)
    assert len(tied) > 1 and str(tied[0]) == first
    assert str(short_relation_oracle(x, y, q, length)) == first
    assert str(reference_oracle(x, y, q, length)) == first


def test_search_moves_past_a_modulus_where_a_letter_is_singular(monkeypatch):
    # q = 2/3 + zeta_5 maps to 0 under zeta_5 -> 3 modulo 11, the least
    # split root, so B = [[1, 0], [-q - q^2, q^2]] and its adjugate have
    # the singular residues [[1, 0], [0, 0]] and [[0, 0], [0, 1]], the
    # second with no nonzero entry in its first row to scale by; exactly,
    # B adj(B) = q^2 is scalar
    calls = []

    def recorded(m, avoid):
        calls.append(_least_split_root(m, avoid))
        return calls[-1]

    monkeypatch.setattr(burau, "_split_root", recorded)
    q = CyclotomicNumber.from_rational(Fraction(2, 3)) + root_of_unity(5, 1)
    _, b, _ = squared_images(q)
    (b00, b01), (b10, b11) = b.rows
    adj = CycloMatrix([[b11, -b01], [-b10, b00]])
    assert burau.first_scalar_word({(0, 1): b, (1, 1): adj}, 4) == ((0, 1), (1, 1))
    assert calls[0] == (11, 3) and len(calls) == 2 and calls[1][0] != 11
    # the one-letter search moves on as well
    calls.clear()
    assert projective_order(b, 30) is None
    assert calls[0] == (11, 3) and len(calls) == 2


def test_oracle_memory_at_the_longest_length():
    # the whole word tree at length 10 is 4 * 3^9 = 78,732 words; the
    # halves are at most 324 words a length
    q = root_of_unity(7, 1)
    short_relation_oracle(X_WORD, Y_WORD, q, 1)
    tracemalloc.start()
    try:
        assert short_relation_oracle(X_WORD, Y_WORD, q, 10) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_oracle_exact_products_do_not_grow_with_the_length_bound(monkeypatch):
    # order 14 has no relation up to length 8, so past the exact pair
    # evaluation there is no candidate to confirm at any length
    counts = []
    mul = CycloMatrix.__mul__

    def counted(self, other):
        counts[-1] += 1
        return mul(self, other)

    monkeypatch.setattr(CycloMatrix, "__mul__", counted)
    for max_len in (4, 8):
        clear_exact_memos()
        counts.append(0)
        assert short_relation_oracle(X_WORD, Y_WORD, Q14, max_len) is None
    assert counts[0] == counts[1] > 0


def test_closed_form_inverse_equals_the_field_inverse():
    # (zeta - 1)^-1 mapped by the Galois action is (q - 1)^-1 at every
    # primitive root q = zeta^k
    for n in range(2, 121):
        inv = (root_of_unity(n, 1) - 1).inverse()
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                got = hyperbolic._inverse_of_q_minus_one(root_of_unity(n, k))
                want = inv.galois(k)
                assert (got.conductor, got.num, got.den) == (want.conductor, want.num, want.den)
    q = CyclotomicNumber.from_rational(Fraction(3, 5)) + root_of_unity(4, 1) * Fraction(4, 5)
    assert hyperbolic._inverse_of_q_minus_one(q) == (q - 1).inverse()
    assert hyperbolic._inverse_of_q_minus_one(CyclotomicNumber.from_rational(2)) is None


def test_invariant_form_at_a_large_conductor_is_fast():
    start = time.perf_counter()
    form = invariant_form(root_of_unity(1021, 1), 1)
    assert time.perf_counter() - start < 5.0
    assert form is not None and form.signature == "indefinite"


@pytest.fixture(scope="module")
def certificate():
    cert = ping_pong_certify(X_WORD, Y_WORD, Q14, 1)
    assert cert is not None
    return cert


def test_certificate_found_and_verified(certificate):
    assert certificate.power_x <= 4 and certificate.power_y <= 4
    assert certificate.margin > 0
    assert verify_certificate(certificate)


def test_certificate_roundtrip(certificate):
    data = json.loads(json.dumps(certificate.to_json()))
    again = PingPongCertificate.from_json(data)
    assert verify_certificate(again)


def test_tampered_certificate_rejected(certificate):
    arcs = dict(certificate.arcs)
    s, e = arcs["x_att"]
    arcs["x_att"] = ((s + Fraction(1, 5)) % 1, (e + Fraction(1, 5)) % 1)
    bad = PingPongCertificate(
        q=certificate.q, embedding=certificate.embedding,
        x_word=certificate.x_word, y_word=certificate.y_word,
        power_x=certificate.power_x, power_y=certificate.power_y,
        arcs=arcs, margin=certificate.margin, precision=certificate.precision)
    assert not verify_certificate(bad)


def test_zero_margin_certificate_rejected(certificate):
    arcs = dict(certificate.arcs)
    s, _ = arcs["x_att"]
    _, e_rep = arcs["x_rep"]
    arcs["x_att"] = (e_rep, arcs["x_att"][1])  # glue the arcs together
    bad = PingPongCertificate(
        q=certificate.q, embedding=certificate.embedding,
        x_word=certificate.x_word, y_word=certificate.y_word,
        power_x=certificate.power_x, power_y=certificate.power_y,
        arcs=arcs, margin=certificate.margin, precision=certificate.precision)
    assert not verify_certificate(bad)


@pytest.mark.parametrize("order,embedding", [(16, 1), (18, 1), (10, 1)])
def test_certificates_at_other_orders(order, embedding):
    q = root_of_unity(order, 1)
    cert = ping_pong_certify(X_WORD, Y_WORD, q, embedding)
    assert cert is not None and cert.margin > 0
    assert verify_certificate(cert)


def test_interval_sign_excludes_zero_strictly():
    cases = [(5, 4), (5, 5), (-5, 4), (-5, 5), (0, 0), (0, 1)]
    assert [hyperbolic._interval_sign(c, r) for c, r in cases] == [1, 0, -1, 0, 0, 0]


# (k, order) for the pairs x_k, y_k of weight-k brackets, whose fixed
# points lie 0.0035-0.053 turn apart and whose multipliers reach 10^-68.
# At order 14 a float pre-check of the inverse inclusions rejected every
# candidate for k = 5; at the others, attracting arcs measured from float
# matrix entries were narrower than a float turn at every shrink level.
DEEP_JOHNSON_CASES = [(5, n) for n in (11, 12, 14, 20, 21, 23, 26)] + [
    (6, n) for n in (9, 10, 11, 13, 14, 16, 19, 20, 22, 27, 29, 30)]


@pytest.mark.parametrize("k,order", DEEP_JOHNSON_CASES)
def test_deep_johnson_pair_certifies(k, order):
    a, b = generator(PAIR_CONTEXT, "A"), generator(PAIR_CONTEXT, "B")
    cert = ping_pong_certify(iterated_bracket(a, b, k), iterated_bracket(b, a, k),
                             root_of_unity(order, 1), 1,
                             PingPongConfig(max_power=2, precision=96))
    assert cert is not None
    assert verify_certificate(cert)


def test_scaled_float_data_proposes_a_certificate_for_a_long_word():
    # x has coefficients of 637 bits, so tr^2 overflowed a float and the
    # search's float data became NaN; scaled by 2^-381 it proposes arcs that
    # the balls certify once the precision covers the entries
    x = parse_word(PAIR_CONTEXT, " ".join(["A B A^-1 B^-1"] * 300))
    cert = ping_pong_certify(x, Y_WORD, root_of_unity(7, 1), 1,
                             PingPongConfig(max_power=1, precision=2048))
    assert cert is not None
    assert verify_certificate(cert)


def reference_image(mat, embedding, centre_n, radius_n, t):
    """The turn of the image of the circle point at turn t, through m's
    float entries: the search's construction before it used fixed points
    and multipliers only."""
    (a, b), (c, d) = ([hyperbolic._numeric_value(v, embedding) for v in row]
                      for row in mat.rows)
    z = centre_n + radius_n * cmath.exp(2j * math.pi * t)
    return cmath.phase((a * z + b) / (c * z + d) - centre_n) / (2 * math.pi) % 1.0


def _float_circle(q, embedding):
    circle = hyperbolic._invariant_circle(invariant_form(q, embedding))
    return (hyperbolic._numeric_value(circle.centre, embedding),
            math.sqrt(hyperbolic._numeric_value(circle.radius_sq, embedding).real))


def reference_numeric_value(v, embedding, shift=0):
    """v / 2^shift at the embedding by Horner in floats: the search's
    evaluation before its floats were read off ball centres."""
    root = cmath.exp(2j * cmath.pi * embedding / v.conductor)
    den = v.den << shift
    acc = 0j
    for c in reversed(v.num):
        acc = acc * root + c / den
    return acc


@given(st.integers(1, 1024), st.integers(1, 60), st.integers(0, 1 << 32),
       st.integers(1, 1 << 20), st.integers(1, 1024), st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_numeric_value_agrees_with_float_horner(m, size, seed, den, j, shift):
    rng = random.Random(seed)
    v = CyclotomicNumber.from_coefficients(
        m, [Fraction(rng.randint(-(1 << size), 1 << size), den) for _ in range(euler_phi(m))])
    while math.gcd(j, v.conductor) != 1:
        j += 1
    got = hyperbolic._numeric_value(v, j, shift)
    assert abs(got - reference_numeric_value(v, j, shift)) <= (
        1e-12 * sum(map(abs, v.num)) / (v.den << shift))


@given(pair_words, st.integers(7, 40), st.floats(0, 1, exclude_max=True),
       st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_normal_form_image_agrees_with_the_matrix_entry_reference(w, order, t, power):
    q = root_of_unity(order, 1)
    a, b, _ = squared_images(q)
    mat = pair_word_eval(w, a, b) ** power
    centre_n, radius_n = _float_circle(q, 1)
    fixed = hyperbolic._fixed_turns(mat, 1, centre_n, radius_n)
    # near the repelling point the image moves faster than floats resolve
    assume(fixed is not None and abs((t - fixed[1] + 0.5) % 1 - 0.5) > 0.01)
    got = fixed[0] + hyperbolic._image_offset(fixed, centre_n, radius_n, t)
    want = reference_image(mat, 1, centre_n, radius_n, t)
    assert abs((got - want + 0.5) % 1 - 0.5) < 1e-9


def reference_ball_inclusions(cert, x_mat, y_mat, circle, bits):
    """The mapping table checked both ways: each generator's inclusion and
    its inverse's, the inverse taken exactly.  The library checks only the
    first of each pair, which is equivalent for a bijection of the circle."""
    balls = hyperbolic._CircleBalls(circle, cert.embedding, bits)
    checks = [
        (x_mat, cert.arcs["x_rep"], cert.arcs["x_att"]),
        (x_mat.inverse(), cert.arcs["x_att"], cert.arcs["x_rep"]),
        (y_mat, cert.arcs["y_rep"], cert.arcs["y_att"]),
        (y_mat.inverse(), cert.arcs["y_att"], cert.arcs["y_rep"]),
    ]
    for mat, (rep_s, rep_e), (att_s, att_e) in checks:
        mb = hyperbolic._embed_matrix(mat, cert.embedding, bits)
        w1 = hyperbolic._mobius(mb, balls.point(rep_e))
        w2 = hyperbolic._mobius(mb, balls.point(rep_s))
        a1 = balls.point(att_s)
        first = hyperbolic._orientation(a1, w1, w2)
        second = hyperbolic._orientation(a1, w2, balls.point(att_e))
        if not (first and second):
            raise PrecisionExhausted("inclusion sign undecided")
        if first < 0 or second < 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _pair_certificate(order):
    cert = ping_pong_certify(X_WORD, Y_WORD, root_of_unity(order, 1), 1)
    assert cert is not None
    return cert, hyperbolic._exact_pair(cert)


def _decided(check, cert, pair, bits):
    try:
        return check(cert, *pair, bits)
    except PrecisionExhausted:
        return None


def _tampered(cert, swap, name, shift, grow_start, grow_end):
    # steps on the grid that the search rounds arc endpoints onto
    step = Fraction(1, hyperbolic._ARC_DENOM)
    arcs = dict(cert.arcs)
    if swap:
        arcs["x_att"], arcs["y_att"] = arcs["y_att"], arcs["x_att"]
    s, e = arcs[name]
    arcs[name] = ((s + (shift - grow_start) * step) % 1, (e + (shift + grow_end) * step) % 1)
    return _rebuilt(cert, arcs=arcs)


def test_found_certificates_pass_both_ways_and_swapped_copies_fail():
    for order in range(7, 41):
        cert, pair = _pair_certificate(order)
        bits = 2 * cert.precision
        assert reference_ball_inclusions(cert, *pair, bits)
        assert hyperbolic._ball_inclusions(cert, *pair, bits)
        bad = _tampered(cert, True, "x_att", 0, 0, 0)
        assert not reference_ball_inclusions(bad, *pair, bits)
        assert not hyperbolic._ball_inclusions(bad, *pair, bits)


@given(st.integers(7, 40), st.booleans(), st.sampled_from(hyperbolic._ARC_NAMES),
       st.one_of(st.integers(-64, 64), st.integers(-1 << 16, 1 << 16)),
       st.integers(-256, 256), st.integers(-256, 256), st.sampled_from((16, 32, 96, 192)))
@settings(max_examples=300, deadline=None)
def test_two_inclusions_agree_with_the_four_inclusion_reference(
        order, swap, name, shift, grow_start, grow_end, bits):
    cert, pair = _pair_certificate(order)
    cert = _tampered(cert, swap, name, shift, grow_start, grow_end)
    want = _decided(reference_ball_inclusions, cert, pair, bits)
    got = _decided(hyperbolic._ball_inclusions, cert, pair, bits)
    if want is not None:
        # the library's checks are the reference's first and third, which
        # imply the other two; only where the reference refuses may the
        # library stop undecided at a check the reference never reached
        assert got is want or (want is False and got is None)
    if got:
        # a certified inclusion holds, so no precision refutes it
        assert _decided(reference_ball_inclusions, cert, pair, 4 * bits) is not False


# the reasons for which ping_pong_certify refuses a pair
SEARCH_REFUSALS = re.compile(
    r"generator [xy] (is projectively trivial|has finite projective order)"
    r"|no indefinite invariant form at this embedding"
    r"|invariant circle has nonpositive radius at this embedding")


# reduced words of up to 80 letters in A and B, the identity included
long_pair_words = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                           max_size=80).map(lambda sylls: word(PAIR_CONTEXT, sylls))


@given(long_pair_words, long_pair_words, st.integers(1, 8), st.integers(7, 40),
       st.sampled_from((32, 96)))
@settings(max_examples=40, deadline=None)
def test_search_returns_a_verified_certificate_or_a_documented_refusal(
        x, y, max_power, order, precision):
    config = PingPongConfig(max_power=max_power, precision=precision)
    try:
        cert = ping_pong_certify(x, y, root_of_unity(order, 1), 1, config)
    except PrecisionExhausted:
        return
    except ValueError as exc:
        assert SEARCH_REFUSALS.fullmatch(str(exc)), exc
        return
    assert cert is None or verify_certificate(cert)


def test_certify_rejects_trivial_generator():
    ident = parse_word(PAIR_CONTEXT, "1")
    with pytest.raises(ValueError):
        ping_pong_certify(ident, Y_WORD, Q14, 1)


def test_certify_rejects_definite_embedding():
    with pytest.raises(ValueError):
        ping_pong_certify(X_WORD, Y_WORD, Q14, 2)


def test_certify_rejects_finite_order_generator():
    a = parse_word(PAIR_CONTEXT, "A")  # projective order 7
    with pytest.raises(ValueError):
        ping_pong_certify(a, Y_WORD, Q14, 1)


# (x, y, reason): a pair that fails several checks reports the first of
# x trivial, x torsion, y trivial, y torsion
GUARD_CASES = [
    ("A", "A^2 B A^-2 B^-1", "generator x has finite projective order"),
    ("A B A^-1 B^-1", "B", "generator y has finite projective order"),
    ("A", "B", "generator x has finite projective order"),
    ("A", "1", "generator x has finite projective order"),
    ("A B A^-1 B^-1", "1", "generator y is projectively trivial"),
    ("1", "B", "generator x is projectively trivial"),
]


@pytest.mark.parametrize("x,y,reason", GUARD_CASES)
def test_certify_free_reports_why_a_pair_is_ineligible(capsys, x, y, reason):
    code = main(["certify-free", "--order", "14", "--x", x, "--y", y,
                 "--max-len", "2", "--pingpong"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["claims"][1]["witnesses"] == [{"reason": reason}]


def _counting_orders(monkeypatch):
    calls = []

    def counted(mat, bound):
        calls.append(bound)
        return projective_order(mat, bound)
    monkeypatch.setattr(hyperbolic, "projective_order", counted)
    return calls


def test_torsion_guard_makes_no_exact_product(monkeypatch, certificate):
    # the guard is the one-letter scalar search on residues: for the
    # dichotomy pair it finds no candidate, so no exact product is made
    a, b, _ = squared_images(Q14)
    mats = [pair_word_eval(w, a, b) for w in (X_WORD, Y_WORD)]
    products = []
    mul = CycloMatrix.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)
    monkeypatch.setattr(CycloMatrix, "__mul__", counted)
    assert [projective_order(m, hyperbolic._ORDER_BOUND) for m in mats] == [None, None]
    assert products == []
    monkeypatch.setattr(CycloMatrix, "__mul__", mul)
    calls = _counting_orders(monkeypatch)
    assert ping_pong_certify(X_WORD, Y_WORD, Q14, 1) == certificate
    assert calls == [hyperbolic._ORDER_BOUND] * 2


def test_torsion_test_runs_when_the_search_fails(monkeypatch):
    calls = _counting_orders(monkeypatch)
    with pytest.raises(ValueError, match="generator y has finite projective order"):
        ping_pong_certify(X_WORD, parse_word(PAIR_CONTEXT, "B"), Q14, 1)
    assert len(calls) == 2


def test_torsion_reason_precedes_a_degenerate_circle_chart(monkeypatch):
    def degenerate(form):
        raise ValueError("circle chart degenerate: J11 = 0")
    monkeypatch.setattr(hyperbolic, "_invariant_circle", degenerate)
    with pytest.raises(ValueError, match="generator x has finite projective order"):
        ping_pong_certify(parse_word(PAIR_CONTEXT, "A"), Y_WORD, Q14, 1)
    with pytest.raises(ValueError, match="circle chart degenerate"):
        ping_pong_certify(X_WORD, Y_WORD, Q14, 1)


def test_certify_rejects_foreign_words():
    other = free_group(("x", "y"))
    with pytest.raises(ValueError, match="unknown generator"):
        ping_pong_certify(parse_word(other, "x y x^-1 y^-1"), Y_WORD, Q14, 1)


def _counting_forms(monkeypatch):
    calls = []

    def counted(q, embedding):
        calls.append((q, embedding))
        return invariant_form(q, embedding)
    monkeypatch.setattr(hyperbolic, "invariant_form", counted)
    return calls


def test_form_solved_once_per_search_and_per_verification(monkeypatch, certificate):
    calls = _counting_forms(monkeypatch)
    assert ping_pong_certify(X_WORD, Y_WORD, Q14, 1) == certificate
    assert len(calls) == 1
    calls.clear()
    assert verify_certificate(certificate)
    assert len(calls) == 1


def test_undecided_exact_data_fails_verification(monkeypatch, certificate):
    def undecided(q, embedding):
        raise PrecisionExhausted("sign of the form determinant undecided")
    monkeypatch.setattr(hyperbolic, "invariant_form", undecided)
    assert not verify_certificate(certificate)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(hyperbolic, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(hyperbolic, name, counted)
    return calls


def test_one_exact_pair_per_certify_free_command(monkeypatch, capsys):
    # the oracle, the form check, the search and the closing verification
    # share one evaluation of the pair and one solve of the form
    clear_exact_memos()
    images, evals, solves = (_counting(monkeypatch, name) for name in
                             ("squared_images", "pair_word_eval", "_inverse_of_q_minus_one"))
    assert main(["certify-free", "--order", "14", "--x", str(X_WORD), "--y", str(Y_WORD),
                 "--max-len", "2", "--pingpong"]) == 0
    capsys.readouterr()
    assert len(images) <= 2
    assert len(evals) == 2
    assert len(solves) == 1


def test_verifying_a_certificate_seen_before_evaluates_nothing(monkeypatch, certificate):
    assert verify_certificate(certificate)
    calls = [_counting(monkeypatch, name) for name in
             ("squared_images", "pair_word_eval", "_inverse_of_q_minus_one")]
    assert verify_certificate(certificate)
    assert calls == [[], [], []]


def _zeta_stored_at(order: int, conductor: int) -> CyclotomicNumber:
    # zeta_order written as zeta_conductor^k: the same value, stored at a
    # larger conductor
    k = conductor // order
    return CyclotomicNumber.from_coefficients(
        conductor, [int(i == k) for i in range(euler_phi(conductor))])


# (order, embedding of the search, certificates as (conductor of q,
# embedding, verdict)): every q has the value zeta_order.  At 28 and 52,
# embedding 1 and 15 send zeta_order where embedding 1 and 2 do at the
# order itself; embedding 2 at order 7 and 3 at 28 are definite
@pytest.mark.parametrize("order, embedding, stored", [
    (7, 1, [(7, 1, True), (28, 1, True), (7, 2, False), (28, 3, False)]),
    (13, 2, [(13, 2, True), (52, 15, True)]),
])
def test_memo_keys_are_stored_representations(order, embedding, stored):
    # embed reads an embedding's exponent at the stored conductor: a memo
    # keyed by value would embed zeta_52^4's matrices at 2, which raises
    base = ping_pong_certify(X_WORD, Y_WORD, root_of_unity(order, 1), embedding,
                             PingPongConfig(precision=32))
    certs = [_rebuilt(base, q=_zeta_stored_at(order, m), embedding=e)
             for m, e, _ in stored]
    assert [c.q.conductor for c in certs] == [m for m, _, _ in stored]
    assert all(c.q == root_of_unity(order, 1) for c in certs)
    for cert, (_, _, verdict) in zip(certs, stored):
        clear_exact_memos()
        assert verify_certificate(cert) is verdict
    for i, j in itertools.permutations(range(len(certs)), 2):
        clear_exact_memos()
        assert ([verify_certificate(certs[i]), verify_certificate(certs[j])]
                == [stored[i][2], stored[j][2]])


def test_search_makes_each_power_once(monkeypatch):
    # an exhausted search at max power 4 builds x^2..x^4 and y^2..y^4 from
    # the powers below, after the pair evaluation and nothing else
    config = PingPongConfig(max_power=4)
    hyperbolic._pair_matrices(Q14, X_WORD, Y_WORD)
    invariant_form(Q14, 1)
    monkeypatch.setattr(hyperbolic, "_adaptive_arcs", lambda *args: None)
    products = []
    mul = CycloMatrix.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)
    monkeypatch.setattr(CycloMatrix, "__mul__", counted)
    assert ping_pong_certify(X_WORD, Y_WORD, Q14, 1, config) is None
    assert 0 < len(products) <= 2 * (config.max_power - 1)


# bytes the exact-data memos hold after certify plus verify at three of
# the largest conductors a certificate may have, measured at 0.49 MB
MEMO_BYTES_BOUND = 1 << 20


def test_exact_memos_stay_small():
    # certify plus verify leaves one pair and one form per order in the
    # memos; traced, the search takes ten times as long, so the bytes are
    # measured by making those same entries again under tracemalloc
    orders = (1009, 1018, 1021)
    clear_exact_memos()
    for order in orders:
        cert = ping_pong_certify(X_WORD, Y_WORD, root_of_unity(order, 1), 1,
                                 PingPongConfig(precision=32))
        assert cert is not None and verify_certificate(cert)
    memos = (hyperbolic._pair_memo, hyperbolic._form_memo)
    assert [memo.cache_info().currsize for memo in memos] == [len(orders)] * 2
    clear_exact_memos()
    tracemalloc.start()
    try:
        for order in orders:
            hyperbolic._pair_matrices(root_of_unity(order, 1), X_WORD, Y_WORD)
            invariant_form(root_of_unity(order, 1), 1)
        assert [memo.cache_info().currsize for memo in memos] == [len(orders)] * 2
        held = tracemalloc.get_traced_memory()[0]
        clear_exact_memos()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < MEMO_BYTES_BOUND
