"""The Artin action of B_3 on the free group F_3, longitudes of pure
braids, Magnus expansions, lower-central depth certificates, and the
depth-doubling substitution into F_6.

Convention for the action (the braid relations and invariance of the
boundary word x1 x2 x3 are the consistency oracle, exercised in tests):

    g_i : x_i -> x_i x_{i+1} x_i^-1,  x_{i+1} -> x_i,  others fixed.

Longitudes of deep commutators run to hundreds of thousands of letters.
Every word here is a reduced tuple of (generator, exponent) syllables:
substitution strings together the syllables of the images and reduces
once with the stack pass of ``words.word``, which keeps untouched
syllables as the same tuple objects, so most syllables of a large image
are objects shared with the images it was substituted from.  Magnus
expansions are accumulated syllable by syllable against cached
one-variable series.

The depth of a longitude does not need the longitude word:
``longitude_magnus`` folds the braid letters left to right,
phi_k = phi_{k-1} o l_k, in the truncated Magnus algebra.  It keeps each
image phi_k(x_i) = U_i x_{pi(i)} U_i^-1 as the expansions of U_i and
U_i^-1 and the strand permutation pi; a letter costs four truncated
products and two products by a one-variable series, so the work grows
with the braid length and the number of nonzero coefficients, not with
the longitude, whose length grows exponentially with the bracket depth.
``magnus_expansion(longitude(w, s), d)`` stays the reference it is
tested against.

Depth certificates are one-sided: a word whose expansion vanishes below
degree k is certified to lie at filtration depth >= k; exact membership
is never claimed.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .words import GroupWord, braid_group, free_group, word

__all__ = [
    "F3", "F6", "FreeAutomorphism", "artin_action", "longitude",
    "MagnusSeries", "magnus_expansion", "magnus_depth", "longitude_magnus",
    "eta_embed",
]

F3 = free_group(("x1", "x2", "x3"))
F6 = free_group(("y1", "z1", "y2", "z2", "y3", "z3"))
B3 = braid_group(3)

# largest truncation degree the command line accepts: a truncated
# expansion over F_3 has up to about 1.5 * 3^degree monomials
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

    def is_identity_on_generators(self) -> bool:
        return all(w.syllables == ((i, 1),) for i, w in enumerate(self.images))


def substitute(w: GroupWord, images: tuple[GroupWord, ...]) -> GroupWord:
    """The word w with each generator g replaced by images[g], reduced."""
    inverses = [im.inverse().syllables for im in images]
    sylls: list[tuple[int, int]] = []
    for g, e in w.syllables:
        sylls.extend((images[g].syllables if e > 0 else inverses[g]) * abs(e))
    return word(images[0].context, sylls)


_IDENTITY = tuple(word(F3, [(g, 1)]) for g in range(3))


def _generator_images(i: int, sign: int) -> tuple[GroupWord, ...]:
    # g_i sends x_i -> x_i x_{i+1} x_i^-1 and x_{i+1} -> x_i
    images = list(_IDENTITY)
    if sign > 0:
        images[i] = word(F3, [(i, 1), (i + 1, 1), (i, -1)])
        images[i + 1] = word(F3, [(i, 1)])
    else:
        images[i] = word(F3, [(i + 1, 1)])
        images[i + 1] = word(F3, [(i + 1, -1), (i, 1), (i + 1, 1)])
    return tuple(images)


_GENERATOR_IMAGES = {(i, s): _generator_images(i, s) for i in (0, 1) for s in (1, -1)}


# small cache: deep-commutator images run to megabytes, and reuse is
# only ever the strand loop of `longitude`
@lru_cache(maxsize=8)
def artin_action(w: GroupWord) -> FreeAutomorphism:
    """Automorphism of F_3 attached to a braid word in B_3."""
    if w.context.strands != 3:
        raise ValueError("the action is implemented for 3-strand braids")
    # action(l_1 ... l_n) = action(l_1) o ... o action(l_n): fold from the right
    images = _IDENTITY
    for g, e in reversed(w.syllables):
        table = _GENERATOR_IMAGES[(g, 1 if e > 0 else -1)]
        for _ in range(abs(e)):
            images = tuple(substitute(v, table) for v in images)
    return FreeAutomorphism(images, source=w)


def longitude(w: GroupWord, strand: int) -> GroupWord:
    """The word l with action(w)(x_i) = l^-1 x_i l, for a pure braid w.

    Purity is checked on all three strands: each image must be spelled
    u x_j u^-1 with u its first half.  The conjugator is defined up to
    left powers of x_i; the representative returned has total
    x_i-exponent zero.
    """
    if strand not in (1, 2, 3):
        raise ValueError("strand index must be 1, 2 or 3")
    for j, image in enumerate(artin_action(w).images):
        sylls = image.syllables
        half = len(sylls) // 2
        u_inv = GroupWord(F3, sylls[:half]).inverse()  # a prefix of a reduced word is reduced
        if sylls[half:] != ((j, 1),) + u_inv.syllables:
            raise ValueError("braid is not pure: a strand generator is not conjugated")
        if j == strand - 1:
            ell = u_inv
    return word(F3, [(strand - 1, -ell.exponent_sum(strand - 1))]) * ell


# ---------------------------------------------------------------------------
# Magnus expansion

class MagnusSeries:
    """Truncated noncommutative integer series in letters X_1..X_r."""

    __slots__ = ("rank", "degree", "terms")

    def __init__(self, rank: int, degree: int, terms: dict[tuple[int, ...], int]):
        self.rank = rank
        self.degree = degree
        self.terms = {k: v for k, v in terms.items() if v and len(k) <= degree}

    @staticmethod
    def one(rank: int, degree: int) -> "MagnusSeries":
        return MagnusSeries(rank, degree, {(): 1})

    def coefficient(self, letters: tuple[int, ...]) -> int:
        return self.terms.get(letters, 0)

    def __eq__(self, other):
        return (isinstance(other, MagnusSeries) and self.rank == other.rank
                and self.degree == other.degree and self.terms == other.terms)

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        if other.rank != self.rank or other.degree != self.degree:
            raise ValueError("series with different shapes")
        d = self.degree
        out: dict[tuple[int, ...], int] = {}
        for mono1, c1 in self.terms.items():
            room = d - len(mono1)
            for mono2, c2 in other.terms.items():
                if len(mono2) <= room:
                    key = mono1 + mono2
                    out[key] = out.get(key, 0) + c1 * c2
        return MagnusSeries(self.rank, d, out)

    def lowest_degree(self) -> int | None:
        """Smallest positive degree carrying a nonzero coefficient."""
        best = None
        for mono in self.terms:
            if mono and (best is None or len(mono) < best):
                best = len(mono)
        return best

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": {" ".join(f"X{i + 1}" for i in mono) if mono else "1": c
                      for mono, c in sorted(self.terms.items())},
        }

    def __repr__(self):
        return f"MagnusSeries({self.to_json()['terms']})"


@lru_cache(maxsize=4096)
def _syllable_coeffs(degree: int, exp: int) -> tuple[int, ...]:
    # coefficients of (1 + X)^exp up to the truncation degree
    out = []
    for j in range(degree + 1):
        if exp >= 0:
            out.append(math.comb(exp, j) if j <= exp else 0)
        else:
            out.append((-1) ** j * math.comb(-exp + j - 1, j))
    return tuple(out)


@lru_cache(maxsize=64)
def _mono_tables(rank: int, degree: int):
    # monomials of degree <= degree, indexed; ext[m][g] = index of mono+(g,) or -1
    monos: list[tuple[int, ...]] = [()]
    by_key = {(): 0}
    frontier = [()]
    for _ in range(degree):
        new = []
        for mono in frontier:
            for g in range(rank):
                ext = mono + (g,)
                by_key[ext] = len(monos)
                monos.append(ext)
                new.append(ext)
        frontier = new
    ext_table = [[by_key.get(m + (g,), -1) for g in range(rank)] for m in monos]
    return tuple(monos), ext_table


def magnus_expansion(w: GroupWord, degree: int) -> MagnusSeries:
    """Image of a free-group word under x_i -> 1 + X_i, truncated."""
    if degree < 1:
        raise ValueError("truncation degree must be positive")
    rank = len(w.context.names)
    monos, ext = _mono_tables(rank, degree)
    size = len(monos)
    acc = [0] * size
    acc[0] = 1
    for g, e in w.syllables:
        coeffs = _syllable_coeffs(degree, e)
        nxt = [0] * size
        for m in range(size):
            c = acc[m]
            if not c:
                continue
            idx = m
            nxt[idx] += c  # j = 0 term, coefficient is always 1
            for j in range(1, degree - len(monos[m]) + 1):
                idx = ext[idx][g]
                cj = coeffs[j]
                if cj:
                    nxt[idx] += c * cj
        acc = nxt
    return MagnusSeries(rank, degree, {monos[m]: acc[m] for m in range(size) if acc[m]})


def magnus_depth(w: GroupWord, dmax: int) -> int | None:
    """Lowest nonvanishing degree of the expansion, or None if it exceeds dmax."""
    if dmax < 1:
        raise ValueError("dmax must be positive")
    return magnus_expansion(w, dmax).lowest_degree()


# ---------------------------------------------------------------------------
# the longitude's expansion, folded over the braid letters
#
# A truncated series over F_3 is a list of degree blocks: block p maps the
# position i of a degree-p monomial inside its block to its nonzero
# coefficient, the letters of the monomial being the p base-3 digits of i,
# first letter most significant.  The monomial's index in
# ``_mono_tables(3, degree)`` is (3^p - 1) / 2 + i, and the concatenation
# of positions i (degree p) and j (degree q) is position i * 3^q + j of
# block p + q, so products need no table.

def _series_mul(a: list[dict], b: list[dict]) -> list[dict]:
    # both factors have constant term 1, as every expansion of a group
    # element does: the product is a + b - 1 plus the products of their
    # positive-degree terms
    degree = len(a) - 1
    out = [dict(block) for block in a]
    for q in range(1, degree + 1):
        acc = out[q]
        get = acc.get
        for j, y in b[q].items():
            acc[j] = get(j, 0) + y
    for p in range(1, degree):
        block = a[p]
        if not block:
            continue
        for q in range(1, degree - p + 1):
            other = b[q]
            if not other:
                continue
            acc = out[p + q]
            get = acc.get
            shift = 3 ** q
            for i, x in block.items():
                base = i * shift
                for j, y in other.items():
                    k = base + j
                    acc[k] = get(k, 0) + x * y
    return [{k: c for k, c in acc.items() if c} for acc in out]


def _letter_series(g: int, e: int, degree: int) -> list[dict]:
    # (1 + X_g)^e: X_g^j sits at position g * (3^j - 1) / 2 of block j
    return [{g * (3 ** j - 1) // 2: c} if c else {}
            for j, c in enumerate(_syllable_coeffs(degree, e))]


def _to_magnus(blocks: list[dict]) -> MagnusSeries:
    terms = {}
    for p, block in enumerate(blocks):
        for i, c in block.items():
            mono = []
            for _ in range(p):
                i, r = divmod(i, 3)
                mono.append(r)
            terms[tuple(reversed(mono))] = c
    return MagnusSeries(3, len(blocks) - 1, terms)


def longitude_magnus(w: GroupWord, strand: int, degree: int) -> MagnusSeries:
    """``magnus_expansion(longitude(w, strand), degree)``, without the word.

    Reads the braid letters left to right, phi_k = phi_{k-1} o l_k, and
    keeps phi_k(x_i) = U_i x_{pi(i)} U_i^-1 as the expansions of U_i and
    U_i^-1 and the strand permutation pi.  A letter sends one generator
    x_c to w x_t w^-1 with w = x_c^(+-1), so U_c becomes phi_{k-1}(w) U_t,
    and the other generator x_t to x_c, so U_t becomes U_c.  The longitude
    is x_s^-e U_s^-1, e the x_s-exponent of U_s^-1: U_s differs from the
    conjugator the word path reads off only by a right power of x_s.
    """
    if strand not in (1, 2, 3):
        raise ValueError("strand index must be 1, 2 or 3")
    if w.context.strands != 3:
        raise ValueError("the action is implemented for 3-strand braids")
    if degree < 1:
        raise ValueError("truncation degree must be positive")
    mul = _series_mul
    letter = {(g, e): _letter_series(g, e, degree) for g in range(3) for e in (1, -1)}
    one = [{0: 1}] + [{} for _ in range(degree)]
    conj, conj_inv, perm = [one] * 3, [one] * 3, [0, 1, 2]
    for g, e in w.syllables:
        # g_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i; its inverse:
        # x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}, x_i -> x_{i+1}
        c, t, sign = (g, g + 1, 1) if e > 0 else (g + 1, g, -1)
        for _ in range(abs(e)):
            u, v = conj[c], conj_inv[c]
            conj[c] = mul(u, mul(letter[perm[c], sign], mul(v, conj[t])))
            conj_inv[c] = mul(mul(mul(conj_inv[t], u), letter[perm[c], -sign]), v)
            conj[t], conj_inv[t] = u, v
            perm[c], perm[t] = perm[t], perm[c]
    if perm != [0, 1, 2]:
        raise ValueError("braid is not pure: a strand generator is not conjugated")
    s = strand - 1
    ell = conj_inv[s]
    return _to_magnus(mul(_letter_series(s, -ell[1].get(s, 0), degree), ell))


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
