"""The Artin action of B_3 on the free group F_3, longitudes of pure
braids, Magnus expansions, lower-central depth certificates, and the
depth-doubling substitution into F_6.

Convention for the action (the braid relations and invariance of the
boundary word x1 x2 x3 are the consistency oracle, exercised in tests):

    g_i : x_i -> x_i x_{i+1} x_i^-1,  x_{i+1} -> x_i,  others fixed.

Longitudes of deep commutators run to hundreds of thousands of letters.
Braid words are reduced tuples of (generator, exponent) syllables.
One conjugator fold, ``_conjugator_fold``, reads the braid syllables left
to right, phi_k = phi_{k-1} o l_k^e, and keeps each image
phi_k(x_i) = U_i x_{pi(i)} U_i^-1 as U_i, U_i^-1 and the strand
permutation pi.  A syllable g_i^e takes one quotient D = U_i^-1 U_{i+1}
and its inverse, each formed as a product; then g_i^(2m) is one
conjugation by phi(P)^m, P = x_i x_{i+1}, raised by ``words.power``, and
an odd exponent adds one letter step.  The fold builds every element by
``*`` and ``words.power`` from the identity and the six letters, so it
serves words and Magnus series alike.  Over words it runs on letter-held
``GroupWord``s, one byte per letter (2g for x_g, 2g + 1 for its
inverse): every step is a product that cancels only where the factors
meet, found at C speed, and then concatenates the strings; for the
quotient U_i^-1 U_{i+1} that cut is the common prefix of U_i and
U_{i+1}.  The images and longitudes are letter-held, so
their lengths are ``len`` and no syllable is decoded unless one is read.
No word may pass ``words.MAX_WORD_SYLLABLES`` letters, nor a substituted
word as many syllables.

A truncated Magnus series has one encoding, ``MagnusSeries``: a list of
degree blocks, each mapping the base-rank position of a monomial to its
nonzero coefficient.  ``magnus_expansion`` multiplies in place by the
cached binomial series (1 + X_g)^e of each syllable, top block first.

The depth of a longitude does not need the longitude word:
``longitude_magnus`` runs the same fold in the truncated Magnus algebra,
on the expansions of U_i and U_i^-1.  A syllable g_i^e costs at most
twelve truncated products, four products by a one-variable series and,
for |e| > 3, two powers of about log2|e| squarings each, so the work
grows with the number of braid syllables and of nonzero coefficients,
not with the longitude, whose length grows exponentially with the
bracket depth.
The fold does not depend on the strand, so ``_magnus_fold`` keeps it per
(braid, degree) in a small memo that the three strand jobs of one braid
share.  ``magnus_expansion(longitude(w, s), d)`` stays the reference it
is tested against.

Depth certificates are one-sided: a word whose expansion vanishes below
degree k is certified to lie at filtration depth >= k; exact membership
is never claimed.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .words import GroupWord, as_letters, braid_group, check_length, free_group, power, word

__all__ = [
    "F3", "F6", "FreeAutomorphism", "artin_action", "longitude",
    "MagnusSeries", "magnus_expansion", "magnus_depth", "longitude_magnus",
    "eta_embed",
]

F3 = free_group(("x1", "x2", "x3"))
F6 = free_group(("y1", "z1", "y2", "z2", "y3", "z3"))
B3 = braid_group(3)

# largest truncation degree the command line accepts: degree block p of
# an expansion over F_3 holds up to 3^p coefficients
MAX_MAGNUS_DEPTH = 10


class FreeAutomorphism:
    """Automorphism of F_3 given by the images of x1, x2, x3.

    ``source`` is the braid word the automorphism was built from, when
    known; ``inverse`` acts by the inverse braid and needs it.
    """

    __slots__ = ("images", "source")

    def __init__(self, images: tuple[GroupWord, ...], source: GroupWord | None = None):
        self.images = images
        self.source = source

    def apply(self, w: GroupWord) -> GroupWord:
        return substitute(w, self.images)

    def inverse(self) -> "FreeAutomorphism":
        if self.source is None:
            raise ValueError("no inverse stored for a bare automorphism")
        return artin_action(self.source.inverse())

    def __mul__(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        # composition: (self * other)(x) = self(other(x)), the action of
        # the braid self.source * other.source
        images = tuple(self.apply(w) for w in other.images)
        if self.source is None or other.source is None:
            return FreeAutomorphism(images)
        return FreeAutomorphism(images, self.source * other.source)

    def __eq__(self, other):
        return isinstance(other, FreeAutomorphism) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


def substitute(w: GroupWord, images: tuple[GroupWord, ...]) -> GroupWord:
    """The word w with each generator g replaced by images[g], reduced."""
    inverses = [im.inverse().syllables for im in images]
    sylls: list[tuple[int, int]] = []
    for g, e in w.syllables:
        image = images[g].syllables if e > 0 else inverses[g]
        # the list is capped like any word, before it grows
        check_length(len(sylls) + len(image) * abs(e), "syllables")
        sylls.extend(image * abs(e))
    return word(images[0].context, sylls)


# the word fold runs on letter-held words
_WORD_ONE = as_letters(word(F3, []))
_WORD_LETTERS = {(g, e): as_letters(word(F3, [(g, e)])) for g in range(3) for e in (1, -1)}


def _conjugator_fold(w: GroupWord, one, letter):
    """Fold the braid w left to right by syllables, phi_k = phi_{k-1} o l_k^e.

    Returns (conj, conj_inv, perm) with phi(x_i) = conj[i] x_perm[i]
    conj[i]^-1 and conj_inv[i] the inverse of conj[i].  ``one`` is the
    identity and ``letter[g, e]`` the element x_g^e (e = +-1), of words
    or of series alike; every other element is built by ``*`` and
    ``words.power``, the quotients D and D^-1 included.

    A syllable moves two generators, x_c and x_t (c = i, t = i + 1 for
    g_i^e with e > 0, swapped with the sign s for e < 0).  Take
    a = pi(c), b = pi(t), D = U_c^-1 U_t and S = x_a^s D x_b^s.  g_i^(2m)
    conjugates x_c and x_t by P^(sm), P = x_i x_{i+1}, and
    phi(P^s) = U_c S D^-1 U_c^-1, so U_t becomes U_c (S D^-1)^(m-1) S and
    U_c becomes that times D^-1, leaving pi and D unchanged.  An odd
    exponent adds one letter step: x_c goes to y x_t y^-1 with
    y = x_c^s, so U_c becomes phi(y) U_t = U_c x_a^s D, and x_t to x_c,
    so U_t becomes U_c.  Conjugators are taken up to right powers of
    x_pi(i), which leave phi unchanged.
    """
    if w.context.strands != 3:
        raise ValueError("the action is implemented for 3-strand braids")
    conj, conj_inv, perm = [one] * 3, [one] * 3, [0, 1, 2]
    for g, e in w.syllables:
        c, t, sign = (g, g + 1, 1) if e > 0 else (g + 1, g, -1)
        a, b = perm[c], perm[t]
        u, v = conj[c], conj_inv[c]
        d, d_inv = v * conj[t], conj_inv[t] * u
        # x_a^s D and its inverse, shared by S and the letter step
        xd, dx = letter[a, sign] * d, d_inv * letter[a, -sign]
        m, odd = divmod(abs(e), 2)
        if m:
            s, s_inv = xd * letter[b, sign], letter[b, -sign] * dx
            if m > 1:
                s = power(s * d_inv, m - 1, one) * s
                s_inv = s_inv * power(d * s_inv, m - 1, one)
            conj[t], conj_inv[t] = u * s, s_inv * v
            u, v = conj[t] * d_inv, d * conj_inv[t]
            conj[c], conj_inv[c] = u, v
        if odd:
            conj[c], conj_inv[c] = u * xd, dx * v
            conj[t], conj_inv[t] = u, v
            perm[c], perm[t] = b, a
    return conj, conj_inv, perm


def _require_pure(w: GroupWord) -> None:
    # an odd exponent of g_i swaps strands i and i + 1, an even one none;
    # a braid of another strand count is left to the fold to reject
    if w.context.strands != 3:
        return
    perm = [0, 1, 2]
    for g, e in w.syllables:
        if e % 2:
            perm[g], perm[g + 1] = perm[g + 1], perm[g]
    if perm != [0, 1, 2]:
        raise ValueError("braid is not pure: a strand generator is not conjugated")


# small cache: deep-commutator images run to megabytes, and the reuse is
# the three strand jobs of one braid, each calling `longitude`
@lru_cache(maxsize=8)
def artin_action(w: GroupWord) -> FreeAutomorphism:
    """Automorphism of F_3 attached to a braid word in B_3.

    Built by the conjugator fold over letter-held words: the image of x_i
    is U_i x_{pi(i)} U_i^-1, every product cancelling only at its
    junction, and the images are letter-held.  Raises
    ``words.WordTooLong`` when a word would pass
    ``words.MAX_WORD_SYLLABLES`` letters.
    """
    conj, conj_inv, perm = _conjugator_fold(w, _WORD_ONE, _WORD_LETTERS)
    images = tuple(u * (_WORD_LETTERS[p, 1] * v) for u, v, p in zip(conj, conj_inv, perm))
    return FreeAutomorphism(images, source=w)


def longitude(w: GroupWord, strand: int) -> GroupWord:
    """The word l with action(w)(x_i) = l^-1 x_i l, for a pure braid w.

    Purity is decided from the braid's syllables, before any image is
    built.  A pure braid sends each x_j to a conjugate of x_j, reduced
    u x_j u^-1 with u not ending in a power of x_j, whose middle letter
    is therefore x_j.  The conjugator is defined up to left powers of
    x_i; the representative returned has total x_i-exponent zero.  The
    longitude is letter-held, read off the image's letters with no
    syllable decoded.
    """
    if strand not in (1, 2, 3):
        raise ValueError("strand index must be 1, 2 or 3")
    _require_pure(w)
    letters = artin_action(w).images[strand - 1].letters
    # the reduced image is u x_s u^-1: its letters past the middle are l = u^-1
    ell = GroupWord.from_letters(F3, letters[len(letters) // 2 + 1:])
    return as_letters(word(F3, [(strand - 1, -ell.exponent_sum(strand - 1))])) * ell


# ---------------------------------------------------------------------------
# Magnus expansion

class MagnusSeries:
    """Truncated noncommutative integer series in letters X_1..X_r.

    ``blocks[p]`` maps the position of a degree-p monomial to its nonzero
    coefficient; the position's p base-``rank`` digits are the monomial's
    letters, first letter most significant.  Concatenating positions i
    (degree p) and j (degree q) gives position i * rank^q + j of degree
    p + q, so products need no monomial table.  The truncation degree is
    ``len(blocks) - 1``.  A series takes over the dicts it is built from
    and drops their zeros in place; a product, whose blocks ``_mul_into``
    keeps free of zeros, hands them over with no scan.
    """

    __slots__ = ("rank", "blocks")

    def __init__(self, rank: int, blocks: list[dict[int, int]]):
        self.rank = rank
        self.blocks = blocks
        for block in blocks:
            for k in [k for k, c in block.items() if not c]:
                del block[k]

    @staticmethod
    def _of_product(rank: int, blocks: list[dict[int, int]]) -> "MagnusSeries":
        # blocks built by _mul_into from zero-free factors hold no zeros
        series = object.__new__(MagnusSeries)
        series.rank = rank
        series.blocks = blocks
        return series

    @staticmethod
    def one(rank: int, degree: int) -> "MagnusSeries":
        return MagnusSeries(rank, [{0: 1}] + [{} for _ in range(degree)])

    @property
    def degree(self) -> int:
        return len(self.blocks) - 1

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The nonzero coefficients keyed by monomial, a tuple of 0-based letters."""
        out = {}
        for p, block in enumerate(self.blocks):
            for i, c in block.items():
                letters = []
                for _ in range(p):
                    i, g = divmod(i, self.rank)
                    letters.append(g)
                out[tuple(reversed(letters))] = c
        return out

    def coefficient(self, letters: tuple[int, ...]) -> int:
        if not all(0 <= g < self.rank for g in letters):
            raise ValueError(f"monomial letters must lie in 0..{self.rank - 1}")
        if len(letters) > self.degree:
            return 0
        i = 0
        for g in letters:
            i = i * self.rank + g
        return self.blocks[len(letters)].get(i, 0)

    def __eq__(self, other):
        return (isinstance(other, MagnusSeries) and self.rank == other.rank
                and self.blocks == other.blocks)

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        """The truncated product.  Both factors must have constant term 1,
        as the expansion of every group element has."""
        if other.rank != self.rank or len(other.blocks) != len(self.blocks):
            raise ValueError("series with different shapes")
        blocks = [dict(block) for block in self.blocks]
        _mul_into(blocks, other.blocks, self.rank)
        return MagnusSeries._of_product(self.rank, blocks)

    def lowest_degree(self) -> int | None:
        """Smallest positive degree carrying a nonzero coefficient."""
        return next((p for p in range(1, len(self.blocks)) if self.blocks[p]), None)

    def __repr__(self):
        return f"<MagnusSeries rank={self.rank} degree={self.degree} {self.terms}>"


def _mul_into(blocks: list[dict], factor: list[dict], rank: int) -> None:
    # blocks <- blocks * factor, both with constant term 1 and no zero
    # coefficient, top block first: block p gains blocks[p - q] * factor[q]
    # for q = 1..p, and those lower blocks are still the left factor's.  A
    # coefficient that sums to 0 is deleted: every term added is nonzero,
    # so its key was there, and blocks stay free of zeros.
    for p in range(len(blocks) - 1, 0, -1):
        acc = blocks[p]
        get = acc.get
        for j, y in factor[p].items():
            c = get(j, 0) + y
            if c:
                acc[j] = c
            else:
                del acc[j]
        for q in range(1, p):
            left, right = blocks[p - q], factor[q]
            if not left or not right:
                continue
            shift = rank ** q
            for j, y in right.items():
                for i, x in left.items():
                    k = i * shift + j
                    c = get(k, 0) + x * y
                    if c:
                        acc[k] = c
                    else:
                        del acc[k]


@lru_cache(maxsize=4096)
def _letter_series(rank: int, g: int, e: int, degree: int) -> MagnusSeries:
    # (1 + X_g)^e, the binomial series: shared by every caller, never mutated
    blocks, position = [], 0
    for j in range(degree + 1):
        c = math.comb(e, j) if e >= 0 else (-1) ** j * math.comb(j - e - 1, j)
        blocks.append({position: c})
        position = position * rank + g
    return MagnusSeries(rank, blocks)


def magnus_expansion(w: GroupWord, degree: int) -> MagnusSeries:
    """Image of a free-group word under x_i -> 1 + X_i, truncated."""
    if degree < 1:
        raise ValueError("truncation degree must be positive")
    rank = len(w.context.names)
    blocks = MagnusSeries.one(rank, degree).blocks
    for g, e in w.syllables:
        _mul_into(blocks, _letter_series(rank, g, e, degree).blocks, rank)
    return MagnusSeries._of_product(rank, blocks)


def magnus_depth(w: GroupWord, dmax: int) -> int | None:
    """Lowest nonvanishing degree of the expansion, or None if it exceeds dmax."""
    if dmax < 1:
        raise ValueError("dmax must be positive")
    return magnus_expansion(w, dmax).lowest_degree()


# ---------------------------------------------------------------------------
# the longitude's expansion, folded over the braid letters

def longitude_magnus(w: GroupWord, strand: int, degree: int) -> MagnusSeries:
    """``magnus_expansion(longitude(w, strand), degree)``, without the word.

    Runs ``_conjugator_fold`` on the expansions of the conjugators U_i
    and their inverses, once per (braid, degree) for all three strands.
    The longitude is x_s^-e U_s^-1, e the x_s-exponent of U_s^-1: U_s
    differs from the conjugator the word path reads off only by a right
    power of x_s.
    """
    if strand not in (1, 2, 3):
        raise ValueError("strand index must be 1, 2 or 3")
    if degree < 1:
        raise ValueError("truncation degree must be positive")
    _require_pure(w)
    s = strand - 1
    ell = _magnus_fold(w, degree)[s]
    # a fresh product: the memo's series are never handed out
    return _letter_series(3, s, -ell.coefficient((s,)), degree) * ell


# the reuse is the three strand jobs of one braid at one depth; an entry
# holds about 1 MB at degree 8 and 10 MB at MAX_MAGNUS_DEPTH
@lru_cache(maxsize=4)
def _magnus_fold(w: GroupWord, degree: int) -> tuple[MagnusSeries, ...]:
    # conj_inv of the conjugator fold over truncated series; the series
    # are shared by every caller and never mutated
    letter = {(g, e): _letter_series(3, g, e, degree) for g in range(3) for e in (1, -1)}
    _, conj_inv, _ = _conjugator_fold(w, MagnusSeries.one(3, degree), letter)
    return tuple(conj_inv)


# ---------------------------------------------------------------------------
# the depth-doubling substitution F_3 -> F_6

_ETA_IMAGES = tuple(
    word(F6, [(2 * i, 1), (2 * i + 1, 1), (2 * i, -1), (2 * i + 1, -1)])
    for i in range(3)
)


def eta_embed(w: GroupWord) -> GroupWord:
    """Substitution x_i -> [y_i, z_i] into F_6, reduced."""
    if w.context != F3:
        raise ValueError("expected a word in the rank-3 free group")
    return substitute(w, _ETA_IMAGES)
