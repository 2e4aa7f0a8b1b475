import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from burauforge.burau import CycloMatrix, burau_eval, squared_images
from burauforge.cyclotomic import CyclotomicNumber, root_of_unity
from burauforge.modular import ModMatrix2, ab_images
from burauforge import words
from burauforge.words import (FREE_PRODUCT, GroupWord, WordTooLong, _reduce, as_letters,
                              braid_group, commutator, evaluate_word, format_word, free_group,
                              free_product, generator, iterated_bracket, parse_word, power,
                              st_words, word)

FREE = free_group(("a", "b"))
A = generator(FREE, "a")
B = generator(FREE, "b")


def test_reduce_examples():
    w = word(FREE, [(0, 1), (1, 1), (1, -1), (0, -1)])
    assert w.is_identity
    z5 = free_product(("a", "b"), 5)
    assert (generator(z5, "a") ** 2 * generator(z5, "a") ** 3).is_identity
    w = parse_word(FREE, "a^2 b a^3 a^-3 b^2 a")
    assert format_word(w) == "a^2 b^3 a"


def test_reduce_idempotent_and_ranges():
    rng = random.Random(5)
    for r in (2, 3, 5):
        ctx = free_product(("a", "b"), r)
        for _ in range(50):
            w = word(ctx, [(rng.randint(0, 1), rng.randint(-7, 7)) for _ in range(8)])
            assert w.reduce() == w
            assert all(1 <= e <= r - 1 for _, e in w.syllables)


def reference_reduce(kind, torsion, sylls):
    """Free reduction as it was written before the single stack pass: an
    incoming syllable keeps merging with the top until it settles."""
    out = []
    for g, e in sylls:
        cur_g, cur_e = g, e
        while True:
            if kind == FREE_PRODUCT:
                cur_e %= torsion
            if cur_e == 0:
                break
            if out and out[-1][0] == cur_g:
                cur_e += out.pop()[1]
                continue
            out.append((cur_g, cur_e))
            break
    return tuple(out)


_CONTEXTS = [free_group(("a", "b", "c")),
             *[free_product(("a", "b", "c"), r) for r in range(2, 6)]]


# exponents reach past the largest torsion, and each syllable comes as a
# tuple or as a list
@given(st.sampled_from(_CONTEXTS),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                          st.integers(min_value=-12, max_value=12),
                          st.booleans()),
                max_size=12))
@settings(max_examples=300, deadline=None)
def test_reduce_matches_reference(ctx, drawn):
    sylls = [[g, e] if as_list else (g, e) for g, e, as_list in drawn]
    out = _reduce(ctx.kind, ctx.torsion, sylls)
    assert out == reference_reduce(ctx.kind, ctx.torsion, sylls)
    assert all(type(syl) is tuple for syl in out)
    hash(out)


def test_reduce_keeps_untouched_syllables():
    x, y = (0, 1), (1, -2)
    out = _reduce(FREE_PRODUCT, 5, [x, (1, 5), y, (0, 3), (0, -3)])
    assert out == (x, (1, 3)) and out[0] is x
    assert _reduce(FREE.kind, None, [x, y, (2, 1)])[1] is y


def _leading_shared(out, sylls):
    # the leading syllables of ``out`` equal to those of ``sylls`` must be
    # the same tuple objects
    for x, y in zip(out, sylls):
        if x != y:
            break
        assert x is y


def reference_mul(u, v):
    """The product as it was written before the one-pass junction: an
    indexed loop cancelling one syllable pair at a time."""
    ctx = u.context
    if v.context != ctx:
        raise ValueError("words live in different groups")
    a, b = u.syllables, v.syllables
    mod = ctx.torsion if ctx.kind == FREE_PRODUCT else 0
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        g, e = a[i - 1][0], a[i - 1][1] + b[j][1]
        if mod:
            e %= mod
        if e:
            return GroupWord(ctx, a[:i - 1] + ((g, e),) + b[j + 1:])
        i, j = i - 1, j + 1
    return GroupWord(ctx, a[:i] + b[j:])


def _abut(u, v):
    # the reduced word whose syllables are u's then v's, dropping u's last
    # syllable when it has v's first generator: v stays whole
    us, vs = u.syllables, v.syllables
    if us and vs and us[-1][0] == vs[0][0]:
        us = us[:-1]
    return GroupWord(u.context, us + vs)


_SYLLABLES = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                st.integers(min_value=-6, max_value=6)), max_size=40)


# reduced factors in a free group, free products with torsion 2..5 and the
# 3-strand braid group; the junction may cancel several syllables, and
# with "head" b's head cancels all of a, with "tail" a's tail all of b
@given(st.sampled_from([*_CONTEXTS, braid_group(3)]), _SYLLABLES, _SYLLABLES,
       st.sampled_from(["none", "head", "tail"]))
@settings(max_examples=300, deadline=None)
def test_product_and_inverse_match_full_reduction(ctx, drawn_a, drawn_b, cancel):
    n = len(ctx.names)
    a = word(ctx, [(g % n, e) for g, e in drawn_a])
    b = word(ctx, [(g % n, e) for g, e in drawn_b])
    if cancel == "head":
        b = _abut(b.inverse(), a).inverse()
    elif cancel == "tail":
        a = _abut(a, b.inverse())
    inverse = a.inverse()
    assert inverse == word(ctx, [(g, -e) for g, e in reversed(a.syllables)])
    product = a * b
    assert product == word(ctx, a.syllables + b.syllables)
    assert product == reference_mul(a, b)
    assert all(type(syl) is tuple for syl in product.syllables)
    if cancel == "head":
        assert product.syllables == b.syllables[len(a.syllables):]
    elif cancel == "tail":
        assert product.syllables == a.syllables[:len(a.syllables) - len(b.syllables)]
    _leading_shared(product.syllables, a.syllables)
    _leading_shared(product.syllables[::-1], b.syllables[::-1])


def _extend(u, v):
    # the reduced word of u's syllables then v's, keeping u whole: v's first
    # syllable goes when it has u's last generator
    us, vs = u.syllables, v.syllables
    if us and vs and us[-1][0] == vs[0][0]:
        vs = vs[1:]
    return GroupWord(u.context, us + vs)


# x and y reduced in F_3 and in free products with torsion 2..5, drawn so
# that they share a syllable prefix of each kind the cut must handle: the
# product x^-1 y cuts exactly the common prefix of x and y
@given(st.sampled_from(_CONTEXTS), _SYLLABLES, _SYLLABLES, _SYLLABLES,
       st.sampled_from(["any", "equal", "x_prefix", "y_prefix", "partial", "x_empty",
                        "y_empty"]),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=400, deadline=None)
def test_inverse_product_cuts_the_common_prefix(ctx, drawn_p, drawn_x, drawn_y, case, pick):
    n = len(ctx.names)
    p, x, y = (word(ctx, [(g % n, e) for g, e in drawn]) for drawn in (drawn_p, drawn_x, drawn_y))
    if case == "equal":
        y = x
    elif case == "x_prefix":
        x, y = p, _extend(p, y)
    elif case == "y_prefix":
        x, y = _extend(p, x), p
    elif case == "partial":
        # past the prefix both go on with one generator, at two exponents
        if ctx.kind == FREE_PRODUCT:
            assume(ctx.torsion > 2)
            f = 2 + pick % (ctx.torsion - 2)
        else:
            f = (-3, -2, -1, 2, 3, 4)[pick]
        g = (p.syllables[-1][0] + 1) % n if p.syllables else 0
        x = _extend(GroupWord(ctx, p.syllables + ((g, 1),)), x)
        y = _extend(GroupWord(ctx, p.syllables + ((g, f),)), y)
    elif case == "x_empty":
        x = word(ctx, [])
    elif case == "y_empty":
        y = word(ctx, [])
    x_inv = x.inverse()
    quotient = x_inv * y
    assert quotient == word(ctx, x_inv.syllables + y.syllables)
    if case == "equal":
        assert quotient.is_identity
    elif case == "x_prefix":
        assert quotient.syllables == y.syllables[len(x.syllables):]
    elif case == "y_prefix":
        assert quotient.syllables == x_inv.syllables[:len(x.syllables) - len(y.syllables)]
    elif case == "partial":
        k = len(p.syllables)
        assert quotient.syllables[len(x.syllables) - k - 1][0] == x.syllables[k][0]


def test_inverse_product_examples():
    x, y = parse_word(FREE, "a^2 b^-1 a^3 b"), parse_word(FREE, "a^2 b^-1 a^-1 b^2")
    assert format_word(x.inverse() * y) == "b^-1 a^-4 b^2"
    assert format_word(y.inverse() * x) == "b^-2 a^4 b"
    assert (x.inverse() * x).is_identity
    empty = word(FREE, [])
    assert empty.inverse() * y == y
    assert x.inverse() * empty == x.inverse()
    with pytest.raises(ValueError, match="different groups"):
        A.inverse() * generator(free_group(("x", "y")), "x")


def test_products_past_the_syllable_cap_raise(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_SYLLABLES", 10)
    u, v = parse_word(FREE, "a b a b a"), parse_word(FREE, "b a b a b a")
    assert len((u * u).syllables) == 9
    with pytest.raises(WordTooLong, match=r"^a word of up to 11 syllables is past the cap "
                                          r"of 10 \(MAX_WORD_SYLLABLES\)$"):
        u * v
    with pytest.raises(WordTooLong):
        power(u, 3, word(FREE, []))
    # a product is bounded by the word it builds: a quotient by the
    # syllables past the common prefix
    x, y = parse_word(FREE, "a b a b a b"), parse_word(FREE, "a b a b a b a")
    assert format_word(x.inverse() * y) == "a"
    with pytest.raises(WordTooLong, match="up to 12 syllables"):
        x.inverse() * v


# ---------------------------------------------------------------------------
# letter-held words against syllable-held ones

F3 = free_group(("x1", "x2", "x3"))


# long shared parts, so that cuts cross the 8, 16, 32, ... letter windows
_LETTER_SYLLABLES = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                       st.integers(min_value=-9, max_value=9)), max_size=30)


@given(_LETTER_SYLLABLES, _LETTER_SYLLABLES, _LETTER_SYLLABLES,
       st.sampled_from(["any", "cancel_all", "cancel_head", "shared_prefix", "empty"]))
@settings(max_examples=400, deadline=None)
def test_letter_held_words_agree_with_syllable_held(drawn_p, drawn_x, drawn_y, case):
    p, x, y = (word(F3, drawn) for drawn in (drawn_p, drawn_x, drawn_y))
    if case == "cancel_all":
        y = x.inverse()
    elif case == "cancel_head":
        x, y = p * x, x.inverse() * p.inverse() * y
    elif case == "shared_prefix":
        x, y = p * x, p * y
    elif case == "empty":
        x = word(F3, [])
    lx, ly = as_letters(x), as_letters(y)
    # the encoding is faithful: decoding gives the syllables back
    assert lx.syllables == x.syllables and lx == x and hash(lx) == hash(x)
    assert lx.length() == x.length() and lx.is_identity == x.is_identity
    assert [lx.exponent_sum(g) for g in range(3)] == [x.exponent_sum(g) for g in range(3)]
    # product, inverse and quotient stay letter-held and equal the
    # syllable results, letter for letter
    for got, expected in ((lx * ly, x * y), (lx.inverse(), x.inverse()),
                          (lx.inverse() * ly, x.inverse() * y),
                          (lx ** 3, x ** 3), (ly ** -2, y ** -2)):
        assert got.letters == as_letters(expected).letters
        assert got == expected
    if case == "cancel_all":
        assert (lx * ly).letters == b"" and (lx * ly).is_identity
    # a product with a syllable-held word decodes and is syllable-held
    mixed = lx * y
    assert mixed.letters is None and mixed == x * y


def test_letter_strings_decode_runs_to_syllables():
    # one byte per letter: 2g is x_g and 2g + 1 its inverse
    assert as_letters(word(F3, [(0, 2), (1, -1), (2, 1)])).letters == bytes((0, 0, 3, 4))
    assert as_letters(word(F3, [])).letters == b""
    assert GroupWord.from_letters(F3, bytes((0, 0))).syllables == ((0, 2),)
    assert GroupWord.from_letters(F3, bytes((3, 3, 3, 4))).syllables == ((1, -3), (2, 1))
    empty = GroupWord.from_letters(F3, b"")
    assert empty.syllables == () and empty.is_identity and empty == word(F3, [])
    assert format_word(GroupWord.from_letters(F3, bytes((1, 2, 2)))) == "x1^-1 x2^2"
    with pytest.raises(ValueError, match="free groups"):
        GroupWord.from_letters(braid_group(3), b"")
    with pytest.raises(AttributeError):
        A.no_such_attribute


def test_letter_products_count_letters_against_the_cap(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_SYLLABLES", 10)
    u = as_letters(word(F3, [(0, 6)]))
    assert len((u * as_letters(word(F3, [(1, 4)]))).letters) == 10
    with pytest.raises(WordTooLong, match=r"^a word of up to 12 letters is past the cap "
                                          r"of 10 \(MAX_WORD_SYLLABLES\)$"):
        u * u
    # a product is bounded by the word it builds: a quotient by the
    # letters past the common prefix
    x, y = as_letters(word(F3, [(0, 6), (1, 1)])), as_letters(word(F3, [(0, 6), (1, 2)]))
    assert (x.inverse() * y).letters == bytes((2,))
    with pytest.raises(WordTooLong, match="up to 12 letters"):
        x.inverse() * as_letters(word(F3, [(2, 5)]))
    with pytest.raises(WordTooLong, match="up to 11 letters"):
        as_letters(word(F3, [(0, 11)]))


# reduced factors, a shared part cancelling at the junction or not, held
# as syllables or letters; the cap is small, so many products pass it
@given(st.sampled_from(_CONTEXTS), _SYLLABLES, _SYLLABLES, _SYLLABLES,
       st.booleans(), st.sampled_from(["syllables", "letters", "mixed"]),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=400, deadline=None)
def test_product_raises_exactly_past_the_cap(ctx, drawn_p, drawn_x, drawn_y, cancel, held,
                                              cap):
    n = len(ctx.names)
    p, x, y = (word(ctx, [(g % n, e) for g, e in drawn]) for drawn in (drawn_p, drawn_x, drawn_y))
    if cancel:
        x, y = x * p, p.inverse() * y
    if held != "syllables":
        assume(ctx.kind != FREE_PRODUCT)
        x = as_letters(x)
        if held == "letters":
            y = as_letters(y)
    unit = "letters" if held == "letters" else "syllables"
    reduced = word(ctx, x.syllables + y.syllables)
    size = reduced.length() if unit == "letters" else len(reduced.syllables)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "MAX_WORD_SYLLABLES", cap)
        if size > cap:
            with pytest.raises(WordTooLong, match=f"^a word of up to {size} {unit} is past"):
                x * y
            return
        product = x * y
    assert product == reduced
    assert (product.letters is not None) == (unit == "letters")


def test_power_squares_capped_products():
    # one syllable raised to 2^40 is 40 squarings, not a list of 2^40 syllables
    start = time.perf_counter()
    assert (A ** (1 << 40)).syllables == ((0, 1 << 40),)
    assert (A ** -(1 << 40)).syllables == ((0, -(1 << 40)),)
    assert time.perf_counter() - start < 0.05


def test_power_past_the_cap_raises_before_it_allocates(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_SYLLABLES", 1000)
    base = A * B
    assert len((base ** 500).syllables) == 1000
    tracemalloc.start()
    try:
        with pytest.raises(WordTooLong, match="past the cap of 1000"):
            base ** (1 << 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no word past the cap was built: 1000 pointers take 8 kB
    assert peak < 64_000


def test_product_rejects_other_group():
    with pytest.raises(ValueError, match="different groups"):
        A * generator(free_group(("x", "y")), "x")
    # an equal context built separately is the same group
    assert A * generator(free_group(("a", "b")), "b") == parse_word(FREE, "a b")


def test_commutator_examples():
    assert commutator(A, A).is_identity
    assert format_word(commutator(A, B)) == "a b a^-1 b^-1"
    z2 = free_product(("a", "b"), 2)
    a2, b2 = generator(z2, "a"), generator(z2, "b")
    assert format_word(commutator(a2, b2)) == "a b a b"


def test_commutator_context_mismatch():
    other = free_group(("x", "y"))
    with pytest.raises(ValueError):
        commutator(A, generator(other, "x"))


def test_commutator_inverse_pairing():
    rng = random.Random(9)
    for _ in range(50):
        u = word(FREE, [(rng.randint(0, 1), rng.randint(-3, 3)) for _ in range(4)])
        v = word(FREE, [(rng.randint(0, 1), rng.randint(-3, 3)) for _ in range(4)])
        assert (commutator(u, v) * commutator(v, u)).is_identity


def test_iterated_bracket():
    assert iterated_bracket(A, B, 2) == commutator(A, B)
    assert iterated_bracket(A, B, 3) == commutator(A, commutator(A, B))
    with pytest.raises(ValueError):
        iterated_bracket(A, B, 1)


def test_st_words_k1_collapses():
    s, t = st_words(1)
    assert format_word(s) == "a^3"
    assert format_word(t) == "a^3 b a^2 b a^5"


def test_st_words_k3_patterns():
    s, t = st_words(3)
    assert [e for _, e in s.syllables] == [3, 3, -6, -1, 3, -1, -6, 3, 3]
    assert t.syllables[-1] == (0, 15)  # ends in a^(5k)


def test_parser_roundtrip_examples():
    for text in ("a^3 b^-1 a^-6", "1", "a", "b^-2 a^4"):
        w = parse_word(FREE, text)
        assert parse_word(FREE, format_word(w)) == w


def test_parser_rejects_unknown():
    with pytest.raises(ValueError):
        parse_word(FREE, "a c")
    with pytest.raises(ValueError):
        parse_word(FREE, "a ^ 3 !")


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.integers(min_value=-5, max_value=5)), max_size=12))
@settings(max_examples=120, deadline=None)
def test_roundtrip_random(sylls):
    w = word(FREE, sylls)
    assert parse_word(FREE, format_word(w)) == w
    assert w.reduce() == w
    assert (w * w.inverse()).is_identity


def test_reduction_preserves_braid_element():
    # reduced and unreduced braid words give the same Burau matrix
    rng = random.Random(3)
    ctx = braid_group(3)
    q = root_of_unity(7, 1)
    for _ in range(25):
        sylls = tuple((rng.randint(0, 1), rng.randint(-2, 2)) for _ in range(6))
        unreduced = GroupWord(ctx, sylls)
        assert burau_eval(unreduced.reduce(), q) == burau_eval(unreduced, q)


def _repeated(x, e, one):
    # reference: |e| plain products of x (or of x^-1) onto one
    step = x if e >= 0 else x.inverse()
    for _ in range(abs(e)):
        one = one * step
    return one


def _power_cases():
    a, b, _ = squared_images(root_of_unity(7, 1))
    ma, mb = ab_images(11)
    return [
        (root_of_unity(12, 5) + 2, CyclotomicNumber.from_rational(1)),
        (a * b.inverse(), CycloMatrix.identity(2)),
        (ma * mb, ModMatrix2.identity(11)),
    ]


@pytest.mark.parametrize("e", range(-4, 10))
def test_power_is_repeated_multiplication(e):
    for x, one in _power_cases():
        expected = _repeated(x, e, one)
        assert power(x, e, one) == expected
        assert x ** e == expected


def test_power_zero_returns_one_untouched():
    one = CycloMatrix.identity(2)
    a, _, _ = squared_images(root_of_unity(5, 1))
    assert power(a, 0, one) is one


def test_evaluate_word_inverts_each_generator_once(monkeypatch):
    a, b, _ = squared_images(root_of_unity(7, 1))
    one = CycloMatrix.identity(2)
    w = parse_word(FREE, "a^-2 b^-1 a^3 b^-3 a^-1 b^2 a^-4 b^-1")
    expected = one
    for g, e in w.syllables:
        expected = expected * _repeated((a, b)[g], e, one)
    inverted = []
    original = CycloMatrix.inverse

    def counted(self):
        inverted.append(self)
        return original(self)
    monkeypatch.setattr(CycloMatrix, "inverse", counted)
    assert evaluate_word(w, {"a": a, "b": b}, one) == expected
    assert sorted(map(id, inverted)) == sorted((id(a), id(b)))
