import contextlib
import importlib.util
import io
import json
import math
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burauforge import artin, cli, words
from burauforge.artin import (B3, F3, artin_action, eta_embed, longitude,
                              longitude_magnus, magnus_depth, magnus_expansion,
                              substitute)
from burauforge.words import (MAX_WORD_SYLLABLES, GroupWord, WordTooLong, commutator,
                              format_word, free_group, generator, iterated_bracket,
                              parse_word, word)

G1 = generator(B3, "g1")
G2 = generator(B3, "g2")
X1 = generator(F3, "x1")
X2 = generator(F3, "x2")
X3 = generator(F3, "x3")
BOUNDARY = X1 * X2 * X3


def rand_braid(rng, n, exps=(-2, -1, 1, 2)):
    return word(B3, [(rng.randint(0, 1), rng.choice(exps)) for _ in range(n)])


def test_generator_action():
    act = artin_action(G1)
    assert format_word(act.images[0]) == "x1 x2 x1^-1"
    assert format_word(act.images[1]) == "x1"
    assert format_word(act.images[2]) == "x3"
    act2 = artin_action(G1 ** 2)
    assert format_word(act2.images[0]) == "x1 x2 x1 x2^-1 x1^-1"


def test_action_is_homomorphism():
    rng = random.Random(41)
    for _ in range(50):
        u, v = rand_braid(rng, 4), rand_braid(rng, 4)
        assert artin_action(u * v) == artin_action(u) * artin_action(v)


def test_braid_relation_as_automorphisms():
    assert artin_action(parse_word(B3, "g1 g2 g1")) == artin_action(parse_word(B3, "g2 g1 g2"))


def test_boundary_word_is_fixed():
    rng = random.Random(43)
    for _ in range(100):
        act = artin_action(rand_braid(rng, 5))
        assert substitute(BOUNDARY, act.images) == BOUNDARY


def test_inverse_witness():
    rng = random.Random(47)
    for _ in range(20):
        act = artin_action(rand_braid(rng, 4))
        assert (act * act.inverse()).images == (X1, X2, X3)
        assert (act.inverse() * act).images == (X1, X2, X3)


def test_longitude_of_squared_generator():
    ell = longitude(G1 ** 2, 1)
    # raw conjugator x2^-1 x1^-1, normalised to zero x1-exponent
    assert format_word(ell) == "x1 x2^-1 x1^-1"
    act = artin_action(G1 ** 2)
    assert act.images[0] == ell.inverse() * X1 * ell


def test_longitude_of_identity():
    assert longitude(word(B3, []), 2).is_identity


def test_longitude_rejects_impure():
    with pytest.raises(ValueError):
        longitude(G1, 1)


def test_longitude_zero_exponent_normalisation():
    rng = random.Random(53)
    a, b = G1 ** 2, G2 ** 2
    for _ in range(20):
        w = commutator(rand_braid(rng, 2, exps=(-2, 2)), rand_braid(rng, 2, exps=(-2, 2)))
        for strand in (1, 2, 3):
            ell = longitude(w, strand)
            assert ell.exponent_sum(strand - 1) == 0


def test_magnus_examples():
    assert magnus_expansion(word(F3, []), 3).terms == {(): 1}
    s = magnus_expansion(X1, 2)
    assert s.terms == {(): 1, (0,): 1}
    s = magnus_expansion(commutator(X1, X2), 2)
    assert s.coefficient((0, 1)) == 1 and s.coefficient((1, 0)) == -1
    assert s.coefficient(()) == 1 and s.coefficient((0,)) == 0


@pytest.mark.parametrize("letters", [(0, 3), (3,), (-1,), (1, -1), (0, 1, 2, 9)])
def test_magnus_coefficient_rejects_letters_outside_the_rank(letters):
    # position arithmetic would read (0, 3) as X_2 X_1, whose coefficient
    # in the expansion of x2 x1 is 1
    s = magnus_expansion(parse_word(F3, "x2 x1"), 3)
    with pytest.raises(ValueError, match=r"letters must lie in 0\.\.2"):
        s.coefficient(letters)


def test_magnus_depth_examples():
    assert magnus_depth(X1, 3) == 1
    assert magnus_depth(commutator(X1, X2), 3) == 2
    assert magnus_depth(commutator(commutator(X1, X2), X1), 4) == 3
    assert magnus_depth(word(F3, []), 4) is None


def test_magnus_multiplicative():
    rng = random.Random(59)
    for _ in range(200):
        u = word(F3, [(rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(4)])
        v = word(F3, [(rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(4)])
        d = rng.randint(1, 4)
        assert magnus_expansion(u * v, d) == magnus_expansion(u, d) * magnus_expansion(v, d)


def test_bracket_longitudes_have_depth():
    rng = random.Random(61)
    a, b = G1 ** 2, G2 ** 2
    for _ in range(30):
        k = rng.choice((2, 2, 3))
        u = rand_braid(rng, rng.randint(1, 2), exps=(-2, 2))
        v = rand_braid(rng, rng.randint(1, 2), exps=(-2, 2))
        w = iterated_bracket(u, v, k)
        strand = rng.randint(1, 3)
        assert magnus_depth(longitude(w, strand), k - 1) is None


def test_eta_examples():
    e = eta_embed(X1)
    assert format_word(e) == "y1 z1 y1^-1 z1^-1"
    assert eta_embed(word(F3, [])).is_identity
    assert magnus_depth(eta_embed(commutator(X1, X2)), 3) is None  # depth >= 4


def test_eta_doubles_depth():
    rng = random.Random(67)
    checked = 0
    while checked < 40:
        w = word(F3, [(rng.randint(0, 2), rng.choice([-1, 1])) for _ in range(rng.randint(1, 4))])
        if w.is_identity:
            continue
        d = magnus_depth(w, 3)
        if d is None:
            continue
        assert magnus_depth(eta_embed(w), 2 * d - 1) is None
        checked += 1


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                          st.integers(min_value=-2, max_value=2)),
                min_size=0, max_size=6),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_magnus_inverse_cancels(sylls, d):
    w = word(F3, sylls)
    prod = magnus_expansion(w, d) * magnus_expansion(w.inverse(), d)
    assert prod.terms == {(): 1}


def test_magnus_product_drops_cancelled_terms_and_keeps_its_factors():
    # (x1 x2)(x2^-1 x1^-1 x3) = x3: every term with X1 or X2 cancels
    u = X1 * X2
    left, right = magnus_expansion(u, 4), magnus_expansion(u.inverse() * X3, 4)
    before = [dict(b) for b in left.blocks], [dict(b) for b in right.blocks]
    prod = left * right
    assert prod == magnus_expansion(X3, 4)
    assert all(c for block in prod.blocks for c in block.values())
    assert ([dict(b) for b in left.blocks], [dict(b) for b in right.blocks]) == before


def test_magnus_product_rejects_different_shapes():
    with pytest.raises(ValueError, match="different shapes"):
        magnus_expansion(X1, 2) * magnus_expansion(X1, 3)
    y1 = word(free_group(("y1", "y2")), [(0, 1)])
    with pytest.raises(ValueError, match="different shapes"):
        magnus_expansion(X1, 2) * magnus_expansion(y1, 2)


# ---------------------------------------------------------------------------
# reference expansion: series as dicts keyed by tuples of 0-based letters,
# each syllable x_g^e multiplied in as the binomial series of (1 + X_g)^e

def reference_magnus_expansion(w, degree):
    terms = {(): 1}
    for g, e in w.syllables:
        coeffs = [math.comb(e, j) if e >= 0 else (-1) ** j * math.comb(-e + j - 1, j)
                  for j in range(degree + 1)]
        out = {}
        for mono, c in terms.items():
            for j in range(degree - len(mono) + 1):
                key = mono + (g,) * j
                out[key] = out.get(key, 0) + c * coeffs[j]
        terms = {k: v for k, v in out.items() if v}
    return terms


def _assert_matches_reference(w, degree):
    series, expected = magnus_expansion(w, degree), reference_magnus_expansion(w, degree)
    assert series.terms == expected
    assert all(series.coefficient(mono) == c for mono, c in expected.items())


_F3_SYLLABLES = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                   st.integers(min_value=-3, max_value=3)),
                         max_size=8)


@given(_F3_SYLLABLES, st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_magnus_expansion_matches_reference_over_f3(sylls, degree):
    _assert_matches_reference(word(F3, sylls), degree)


@given(_F3_SYLLABLES, st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_magnus_expansion_matches_reference_over_f6(sylls, degree):
    _assert_matches_reference(eta_embed(word(F3, sylls)), degree)


# ---------------------------------------------------------------------------
# reference path: the flat engine the syllable engine replaced.  A word is
# a list of signed integers, letter x_g^s (g 0-based, s = +-1) encoded as
# s*(g+1), and each substitution cancels on a stack as it goes.

def _flatten(w):
    out = []
    for g, e in w.syllables:
        token = (g + 1) if e > 0 else -(g + 1)
        out.extend([token] * abs(e))
    return out


def _unflatten(ctx, flat):
    sylls = []
    for token in flat:
        g = abs(token) - 1
        s = 1 if token > 0 else -1
        if sylls and sylls[-1][0] == g:
            sylls[-1][1] += s
        else:
            sylls.append([g, s])
    return word(ctx, [(g, e) for g, e in sylls if e])


def _sub_flat(src, images):
    # images[g] is the flat image of x_g; x_g^-1 maps to its inverse
    out = []
    for token in src:
        image = images[token - 1] if token > 0 else [-t for t in reversed(images[-token - 1])]
        for t in image:
            if out and out[-1] == -t:
                out.pop()
            else:
                out.append(t)
    return out


def _gen_images_flat(i, sign):
    a, b = i + 1, i + 2
    images = [[1], [2], [3]]
    if sign > 0:
        images[a - 1], images[b - 1] = [a, b, -a], [a]
    else:
        images[a - 1], images[b - 1] = [b], [-b, a, b]
    return images


def reference_action(w):
    """Images of x1, x2, x3 under the braid w, folded letter by letter."""
    fwd = [[1], [2], [3]]
    for g, e in reversed(w.syllables):
        images = _gen_images_flat(g, 1 if e > 0 else -1)
        for _ in range(abs(e)):
            fwd = [_sub_flat(v, images) for v in fwd]
    return tuple(_unflatten(F3, v) for v in fwd)


def reference_longitude(w, strand):
    """Read each conjugator letter by letter from both ends of its image,
    then normalise the total x_strand-exponent to zero on a stack."""
    target = None
    for j, image in enumerate(reference_action(w)):
        flat = _flatten(image)
        i, k = 0, len(flat) - 1
        while i < k and flat[i] == -flat[k]:
            i += 1
            k -= 1
        if len(flat) % 2 == 0 or i != k or flat[i] != j + 1:
            raise ValueError("braid is not pure: a strand generator is not conjugated")
        if j == strand - 1:
            target = flat[:i]
    ell = [-t for t in reversed(target)]
    e = ell.count(strand) - ell.count(-strand)
    merged = []
    for t in [-strand if e > 0 else strand] * abs(e) + ell:
        if merged and merged[-1] == -t:
            merged.pop()
        else:
            merged.append(t)
    return _unflatten(F3, merged)


# second reference: the right fold the conjugator fold replaced,
# action(l_1 ... l_n) = action(l_1) o ... o action(l_n), substituting all
# three images through the generator-image triple of each letter

def _generator_images(i, sign):
    # g_i sends x_i -> x_i x_{i+1} x_i^-1 and x_{i+1} -> x_i
    images = [X1, X2, X3]
    if sign > 0:
        images[i] = word(F3, [(i, 1), (i + 1, 1), (i, -1)])
        images[i + 1] = word(F3, [(i, 1)])
    else:
        images[i] = word(F3, [(i + 1, 1)])
        images[i + 1] = word(F3, [(i + 1, -1), (i, 1), (i + 1, 1)])
    return tuple(images)


_GENERATOR_IMAGES = {(i, s): _generator_images(i, s) for i in (0, 1) for s in (1, -1)}


def reference_right_fold(w):
    images = (X1, X2, X3)
    for g, e in reversed(w.syllables):
        table = _GENERATOR_IMAGES[g, 1 if e > 0 else -1]
        for _ in range(abs(e)):
            images = tuple(substitute(v, table) for v in images)
    return images


def _longitude_or_error(fn, w, strand):
    try:
        return fn(w, strand)
    except ValueError as exc:
        return str(exc)


def _assert_agrees_with_reference(w):
    """Returns the longitudes, or the error message for an impure braid."""
    images = artin_action(w).images
    assert images == reference_action(w)
    assert images == reference_right_fold(w)
    outcomes = [_longitude_or_error(longitude, w, strand) for strand in (1, 2, 3)]
    assert outcomes == [_longitude_or_error(reference_longitude, w, strand)
                        for strand in (1, 2, 3)]
    return outcomes


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.sampled_from((-3, -2, -1, 1, 2, 3))),
                max_size=8))
@settings(max_examples=150, deadline=None)
def test_action_and_longitude_match_reference_on_random_braids(sylls):
    # odd exponents make most draws impure: then every strand must raise
    # the same error in both paths
    _assert_agrees_with_reference(word(B3, sylls))


@pytest.mark.parametrize("k", [2, 3])
def test_action_and_longitude_match_reference_on_brackets(k):
    squares = [G1 ** 2, G1 ** -2, G2 ** 2, G2 ** -2]
    for u in squares:
        for v in squares:
            # brackets of pure braids are pure: no strand may fail
            outcomes = _assert_agrees_with_reference(iterated_bracket(u, v, k))
            assert not any(isinstance(ell, str) for ell in outcomes)


def test_impure_braid_raises_in_both_paths():
    for w in (G1, G1 ** 2 * G2, G2 ** -3):
        for fn in (longitude, reference_longitude):
            with pytest.raises(ValueError, match="not pure"):
                fn(w, 2)


# ---------------------------------------------------------------------------
# third reference: the conjugator fold one letter at a time, as it was
# before syllables were folded whole; every step is plain products

_LETTERS = {(g, e): word(F3, [(g, e)]) for g in range(3) for e in (1, -1)}


def per_letter_fold(w, one, letter):
    conj, conj_inv, perm = [one] * 3, [one] * 3, [0, 1, 2]
    for g, e in w.syllables:
        c, t, sign = (g, g + 1, 1) if e > 0 else (g + 1, g, -1)
        for _ in range(abs(e)):
            u, v = conj[c], conj_inv[c]
            conj[c] = u * (letter[perm[c], sign] * (v * conj[t]))
            conj_inv[c] = conj_inv[t] * u * letter[perm[c], -sign] * v
            conj[t], conj_inv[t] = u, v
            perm[c], perm[t] = perm[t], perm[c]
    return conj, conj_inv, perm


def per_letter_images(w):
    conj, conj_inv, perm = per_letter_fold(w, word(F3, []), _LETTERS)
    return tuple(u * _LETTERS[p, 1] * v for u, v, p in zip(conj, conj_inv, perm))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.integers(min_value=1, max_value=12),
                          st.booleans()),
                max_size=6))
@settings(max_examples=150, deadline=None)
def test_action_matches_per_letter_fold_on_random_braids(drawn):
    w = word(B3, [(g, -e if neg else e) for g, e, neg in drawn])
    assert artin_action(w).images == per_letter_images(w)


@pytest.mark.parametrize("text", ["g1^2000", "g2^-2000 g1^3", "g1^-1999 g2^4 g1^-2",
                                  "g2^5 g1^2000 g2^-1"])
def test_action_matches_per_letter_fold_at_exponent_2000(text):
    w = parse_word(B3, text)
    assert artin_action(w).images == per_letter_images(w)


def _cli_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _longitude_length(report):
    return json.loads(report)["claims"][0]["witnesses"][0]["longitude_length"]


def test_report_at_exponent_2000_matches_per_letter_fold(monkeypatch):
    argv = ["artin", "--braid", "g1^2000", "--strand", "1", "--depth", "3"]
    artin._magnus_fold.cache_clear()
    artin.artin_action.cache_clear()
    expected = _cli_output(argv)
    monkeypatch.setattr(artin, "_conjugator_fold", per_letter_fold)
    artin._magnus_fold.cache_clear()
    artin.artin_action.cache_clear()
    try:
        assert _cli_output(argv) == expected
    finally:
        artin._magnus_fold.cache_clear()
        artin.artin_action.cache_clear()
    assert expected[0] == 0 and _longitude_length(expected[1]) == 3000


def test_large_exponent_images_are_pinned():
    images = artin_action(G1 ** 20000).images
    assert [im.length() for im in images] == [40001, 39999, 1]


def test_artin_command_at_exponent_20000_is_fast(capsys):
    # one syllable is one conjugation by a power: about 0.05 s in-process
    artin.artin_action.cache_clear()
    start = time.perf_counter()
    assert cli.main(["artin", "--braid", "g1^20000", "--strand", "1", "--depth", "3"]) == 0
    assert time.perf_counter() - start < 5
    assert _longitude_length(capsys.readouterr().out) == 30000


def test_artin_command_past_the_word_cap_is_a_usage_error(capsys):
    # the images of g1^100000000 would have 2 * 10^8 syllables: the first
    # product past the cap stops the run, in about 0.2 s
    start = time.perf_counter()
    assert cli.main(["artin", "--braid", "g1^100000000", "--strand", "1",
                     "--depth", "3"]) == cli.EXIT_USAGE
    assert time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    assert out == ""
    # the two factors of the capped product are letter strings
    assert err == (f"error: a word of up to 7725310 letters is past the cap of "
                   f"{MAX_WORD_SYLLABLES} (MAX_WORD_SYLLABLES)\n")


def test_impure_braid_is_rejected_before_any_fold(monkeypatch):
    # an odd exponent swaps two strands: the syllables decide purity, so
    # g1^2097151 is not folded into images of 4.2M syllables, and an
    # impure braid past the word cap fails its claim (exit 1), not exit 2
    def no_fold(*args):
        raise AssertionError("an impure braid reached the fold")

    monkeypatch.setattr(artin, "_conjugator_fold", no_fold)
    artin.artin_action.cache_clear()
    artin._magnus_fold.cache_clear()
    for braid in ("g1^2097151", "g1^100000001", "g1^2 g2^-3 g1^4"):
        start = time.perf_counter()
        code, out, _ = _cli_output(["artin", "--braid", braid, "--strand", "1",
                                    "--depth", "3"])
        assert time.perf_counter() - start < 0.1
        assert code == cli.EXIT_FAIL
        assert json.loads(out)["claims"][0]["witnesses"] == [
            {"error": "braid is not pure: a strand generator is not conjugated"}]
        with pytest.raises(ValueError, match="not pure"):
            longitude_magnus(parse_word(B3, braid), 2, 3)


# ---------------------------------------------------------------------------
# fourth reference: the conjugator fold over syllable-held words, as the
# word action ran before its words became letter strings: syllable
# products, the quotients included

def syllable_action(w):
    conj, conj_inv, perm = artin._conjugator_fold(w, word(F3, []), _LETTERS)
    return tuple(u * (_LETTERS[p, 1] * v) for u, v, p in zip(conj, conj_inv, perm))


def syllable_longitude(w, strand):
    artin._require_pure(w)
    sylls = syllable_action(w)[strand - 1].syllables
    ell = GroupWord(F3, sylls[len(sylls) // 2 + 1:])
    return word(F3, [(strand - 1, -ell.exponent_sum(strand - 1))]) * ell


def _fold_outcome(action, longitude_fn, w):
    """The images and each strand's longitude with its length and exponent
    sums, or the type and message of the error the braid raises."""
    try:
        images = action(w)
        ells = [longitude_fn(w, s) for s in (1, 2, 3)]
    except (ValueError, WordTooLong) as exc:
        return type(exc).__name__, str(exc)
    return (images, ells, [ell.length() for ell in ells],
            [[ell.exponent_sum(g) for g in range(3)] for ell in ells])


def _assert_letter_fold_matches_syllable_fold(w):
    artin.artin_action.cache_clear()
    outcome = _fold_outcome(lambda w: artin_action(w).images, longitude, w)
    want = _fold_outcome(syllable_action, syllable_longitude, w)
    if want[0] == "WordTooLong":
        # each fold's cap message names the unit it counts
        want = (want[0], want[1].replace(" syllables ", " letters "))
    assert outcome == want
    if not isinstance(outcome[0], str):
        # the engine's words are letter-held
        assert all(v.letters is not None for v in (*outcome[0], *outcome[1]))
    return outcome


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.sampled_from((-3, -2, -1, 1, 2, 3))),
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_letter_fold_matches_syllable_fold_on_random_braids(sylls):
    # odd exponents make most draws impure: both must raise the same error
    _assert_letter_fold_matches_syllable_fold(word(B3, sylls))


def _workload_brackets():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads._braid_text(w) for pair in workloads.bracket_pairs() for _, w in pair]


def test_letter_fold_matches_syllable_fold_on_workload_brackets():
    braids = _workload_brackets()
    assert len(braids) == 72
    for text in braids:
        outcome = _assert_letter_fold_matches_syllable_fold(parse_word(B3, text))
        assert not isinstance(outcome[0], str)


@pytest.mark.parametrize("text", ["g1^100000000", "g2^-100000000 g1^2"])
def test_letter_fold_stops_at_the_cap_where_the_syllable_fold_does(text):
    # every word of these folds alternates two letters, so letters and
    # syllables count alike and both stop at the same product
    outcome = _assert_letter_fold_matches_syllable_fold(parse_word(B3, text))
    assert outcome[0] == "WordTooLong"
    assert f"letters is past the cap of {MAX_WORD_SYLLABLES}" in outcome[1]


LONG_BRACKET = "g2^-2 g1^2 g2^-2 g1^2 g2^-2 g1^-2 g2^4 g1^-2 g2^-2 g1^2 g2^2 g1^-2 g2^2"


def test_artin_command_decodes_no_long_word(monkeypatch):
    # the longest weight-3 workload bracket: longitudes of up to 66,992
    # letters, whose length and depth need no syllable; only a longitude
    # of at most 200 letters is decoded, to be printed
    decoded = []
    original = words._decode

    def counting(letters):
        decoded.append(len(letters))
        return original(letters)

    monkeypatch.setattr(words, "_decode", counting)
    artin.artin_action.cache_clear()
    artin._magnus_fold.cache_clear()
    reports = [_cli_output(["artin", "--braid", LONG_BRACKET, "--strand", str(s),
                            "--depth", "2"]) for s in (1, 2, 3)]
    assert [code for code, _, _ in reports] == [0, 0, 0]
    assert max(decoded, default=0) <= 200
    # recorded from the program before the engine's words became letter strings
    golden = Path(__file__).parent / "golden" / "artin_bracket3_long.json"
    assert reports[1][1] == golden.read_text()
    assert [_longitude_length(out) for _, out, _ in reports] == [19808, 66992, 47184]


def test_substitution_is_capped_before_it_grows(monkeypatch):
    # eta_embed of x1^(2^21) would list 2^23 syllables, twice the cap
    start = time.perf_counter()
    with pytest.raises(WordTooLong, match=f"past the cap of {MAX_WORD_SYLLABLES}"):
        eta_embed(X1 ** (1 << 21))
    with pytest.raises(WordTooLong):
        artin_action(G1 ** 2).apply(X3 ** (MAX_WORD_SYLLABLES + 1))
    assert time.perf_counter() - start < 0.5
    # the cap bounds the syllables listed so far, checked before each
    # syllable of w adds its image's
    monkeypatch.setattr(words, "MAX_WORD_SYLLABLES", 12)
    assert len(eta_embed(X1 ** 3).syllables) == 12
    with pytest.raises(WordTooLong, match="up to 16 syllables"):
        eta_embed(X1 ** 3 * X2)


# ---------------------------------------------------------------------------
# the folded expansion against the word path

def _word_path(w, strand, degree):
    return magnus_expansion(longitude(w, strand), degree)


def _outcome(fn, w, strand, degree):
    try:
        return fn(w, strand, degree)
    except ValueError as exc:
        return str(exc)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.sampled_from((-2, 2))),
                max_size=6),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_longitude_magnus_matches_word_path_on_pure_braids(sylls, degree):
    w = word(B3, sylls)
    for strand in (1, 2, 3):
        assert longitude_magnus(w, strand, degree) == _word_path(w, strand, degree)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.sampled_from((-2, -1, 1, 2))),
                max_size=6),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_longitude_magnus_matches_word_path_on_any_braid(sylls, degree):
    # an odd exponent makes most draws impure: both paths must then raise
    # the same message
    w = word(B3, sylls)
    for strand in (1, 2, 3):
        assert (_outcome(longitude_magnus, w, strand, degree)
                == _outcome(_word_path, w, strand, degree))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.sampled_from((-6, -4, -2, 2, 4, 6))),
                max_size=4),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_longitude_magnus_matches_word_path_at_exponents_4_and_6(sylls, degree):
    # exponents +-4 and +-6 take the fold's power of S D^-1
    w = word(B3, sylls)
    for strand in (1, 2, 3):
        assert longitude_magnus(w, strand, degree) == _word_path(w, strand, degree)


def test_longitude_magnus_rejects_bad_arguments():
    for args in ((G1 ** 2, 4, 3), (G1 ** 2, 1, 0), (X1, 1, 3)):
        with pytest.raises(ValueError):
            longitude_magnus(*args)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_canonical_bracket_depth_is_sharp(k):
    # the weight-k bracket of the squared generators vanishes below degree
    # k on every strand, and not at degree k
    w = iterated_bracket(G1 ** 2, G2 ** 2, k)
    for strand in (1, 2, 3):
        assert longitude_magnus(w, strand, k).lowest_degree() == k


def test_canonical_depth_4_bracket_is_pinned():
    # images of over a million letters, too long for the reference paths
    # in a test: the lengths are those the right fold gives
    w = iterated_bracket(G1 ** 2, G2 ** 2, 4)
    assert [im.length() for im in artin_action(w).images] == [1341055, 1710209, 369153]
    assert [longitude(w, s).length() for s in (1, 2, 3)] == [670528, 855104, 184576]
    assert [longitude_magnus(w, s, 4).lowest_degree() for s in (1, 2, 3)] == [4, 4, 4]


# ---------------------------------------------------------------------------
# the series fold memo: one fold per (braid, degree), shared by the strands

def test_longitude_magnus_matches_word_path_cold_and_warm():
    w, degree = iterated_bracket(G1 ** 2, G2 ** -2, 3), 4
    expected = [_word_path(w, strand, degree) for strand in (1, 2, 3)]
    artin._magnus_fold.cache_clear()
    for _ in range(2):
        assert [longitude_magnus(w, strand, degree) for strand in (1, 2, 3)] == expected
    info = artin._magnus_fold.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_longitude_magnus_hands_out_no_memo_series():
    for w in (word(B3, []), iterated_bracket(G2 ** 2, G1 ** 2, 2)):
        expected = [_word_path(w, strand, 3) for strand in (1, 2, 3)]
        artin._magnus_fold.cache_clear()
        for strand in (1, 2, 3):
            series = longitude_magnus(w, strand, 3)
            for block in series.blocks:
                block.clear()
                block[0] = 7
        assert [longitude_magnus(w, strand, 3) for strand in (1, 2, 3)] == expected
        assert artin._magnus_fold.cache_info().misses == 1


def test_strand_jobs_of_one_braid_fold_once(monkeypatch, capsys):
    # the three strand jobs of one braid at one depth run the series fold
    # once and the word fold once
    calls = []
    original = artin._conjugator_fold

    def counting(w, one, letter):
        calls.append(type(one).__name__)
        return original(w, one, letter)

    monkeypatch.setattr(artin, "_conjugator_fold", counting)
    artin._magnus_fold.cache_clear()
    artin.artin_action.cache_clear()
    braid = "g1^2 g2^2 g1^-2 g2^-2"
    for strand in ("1", "2", "3"):
        assert cli.main(["artin", "--braid", braid, "--strand", strand, "--depth", "3"]) == 0
    assert sorted(calls) == ["GroupWord", "MagnusSeries"]
    capsys.readouterr()


# bytes the series fold memo holds after eight distinct degree-6 folds of
# weight-3 brackets, measured at 0.36 MB: four entries
FOLD_MEMO_BYTES_BOUND = 1 << 20


def test_series_fold_memo_stays_small():
    ones, twos = (G1 ** 2, G1 ** -2), (G2 ** 2, G2 ** -2)
    braids = [iterated_bracket(u, v, 3) for a, b in ((ones, twos), (twos, ones))
              for u in a for v in b]
    assert len(set(braids)) == 8
    artin._magnus_fold.cache_clear()
    tracemalloc.start()
    try:
        for w in braids:
            longitude_magnus(w, 1, 6)
        assert artin._magnus_fold.cache_info().currsize == 4
        held = tracemalloc.get_traced_memory()[0]
        artin._magnus_fold.cache_clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < FOLD_MEMO_BYTES_BOUND
