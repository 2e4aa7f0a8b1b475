"""Reduced words in free groups, free products of cyclic groups, and braid groups.

Free and free-product words carry a genuine normal form (syllable
reduction, exponents mod the torsion order).  Braid words are kept as
written apart from cancellation of inverse pairs; equality of braid
elements is only ever decided downstream through a representation.

A ``GroupWord`` is built reduced by ``word``.  Products and inverses
rely on that: a product reduces only where its factors meet, keeping the
other syllables as the same tuple objects, and an inverse only reverses
and negates.  No product builds more than ``MAX_WORD_SYLLABLES``
syllables, counted in the result before it is built.

A free-group word may instead be held as a reduced letter string
(``as_letters``, ``GroupWord.from_letters``): ``bytes`` with one byte
per letter, 2g for x_g and 2g + 1 for its inverse, so a generator index
is below 128.  A product of two letter-held words cancels only at the
junction, found by comparing growing windows at C speed, and then
concatenates; an inverse is one reversal and one ``bytes.translate``;
``length`` is ``len`` and ``exponent_sum`` two ``bytes.count`` calls.
The product is the one junction operation: x^-1 y is
``x.inverse() * y``, which cuts the common prefix of x and y.  For
letter-held words the cap counts letters.  Their syllables are decoded
once, on first read (``str``, ``==``, ``hash``, a product with a
syllable-held word), and such mixed products are syllable-held.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from itertools import groupby

__all__ = [
    "GroupContext", "GroupWord", "MAX_WORD_SYLLABLES", "WordTooLong",
    "free_group", "free_product", "braid_group",
    "word", "generator", "commutator", "iterated_bracket", "st_words",
    "parse_word", "format_word", "evaluate_word", "power", "check_length", "as_letters",
]

FREE = "free"
FREE_PRODUCT = "free_product"
BRAID = "braid"

# most syllables a product may build (letters, for letter-held words),
# checked against the length of the result, found at the junction before
# the result is built.  A syllable tuple at the cap holds 32 MB
# of pointers, a letter string 4 MB.  The weight-4 bracket of g1^2 and
# g2^2 has images of up to 1.71M letters; `artin --braid "g1^2000000"`
# (images of 4M letters) peaks at 31 MB, and runs of g1^n stopped at the
# cap peaked at 23-31 MB (2-core Xeon, CPython 3.11.7)
MAX_WORD_SYLLABLES = 1 << 22


class WordTooLong(OverflowError):
    """A word would pass ``MAX_WORD_SYLLABLES``: syllables of a
    syllable-held word, letters of a letter-held one."""


def check_length(n: int, unit: str) -> None:
    """Raise ``WordTooLong`` if a word of up to n units, about to be
    built, would pass the cap; ``unit`` names what the caller counts,
    "syllables" or "letters", and the message says it."""
    if n > MAX_WORD_SYLLABLES:
        raise WordTooLong(f"a word of up to {n} {unit} is past the cap of "
                          f"{MAX_WORD_SYLLABLES} (MAX_WORD_SYLLABLES)")


class GroupContext:
    __slots__ = ("kind", "names", "torsion", "strands")

    def __init__(self, kind: str, names: tuple[str, ...], torsion: int | None = None,
                 strands: int | None = None):
        self.kind = kind
        self.names = names
        self.torsion = torsion
        self.strands = strands

    def _key(self) -> tuple:
        return self.kind, self.names, self.torsion, self.strands

    def __eq__(self, other):
        return isinstance(other, GroupContext) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def index(self, name: str) -> int:
        return self.names.index(name)


def free_group(names: Sequence[str]) -> GroupContext:
    return GroupContext(FREE, tuple(names))


def free_product(names: Sequence[str], torsion: int) -> GroupContext:
    if torsion < 2:
        raise ValueError("torsion order must be at least 2")
    return GroupContext(FREE_PRODUCT, tuple(names), torsion=torsion)


def braid_group(n: int) -> GroupContext:
    if n < 2:
        raise ValueError("braid group needs at least 2 strands")
    names = tuple(f"g{i}" for i in range(1, n))
    return GroupContext(BRAID, names, strands=n)


def _reduce(kind: str, torsion, sylls: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    # One stack pass.  Invariant: ``out`` is reduced -- every exponent is
    # nonzero (in 1..torsion-1 in a free product) and neighbours have
    # different generators -- so an incoming syllable can merge only with
    # the top, and a merge that cancels uncovers a top with a different
    # generator.  A syllable that needs no change is pushed as the same
    # tuple object; a list comes out as a tuple.
    mod = torsion if kind == FREE_PRODUCT else 0
    out: list[tuple[int, int]] = []
    push, pop = out.append, out.pop
    for syl in sylls:
        g, e = syl
        if out and out[-1][0] == g:
            e += pop()[1]
            syl = (g, e)
        if mod:
            e %= mod
        if e:
            push(syl if e == syl[1] and type(syl) is tuple else (g, e))
    return tuple(out)


class GroupWord:
    # ``letters`` is None for a syllable-held word; a letter-held word
    # leaves ``syllables`` unset until ``__getattr__`` decodes it
    __slots__ = ("context", "syllables", "letters")

    def __init__(self, context: GroupContext, syllables: tuple[tuple[int, int], ...]):
        self.context = context
        self.syllables = syllables
        self.letters = None

    @classmethod
    def from_letters(cls, context: GroupContext, letters: bytes) -> "GroupWord":
        """The free-group word held as ``letters``, a reduced letter string."""
        if context.kind != FREE or len(context.names) > 128:
            raise ValueError("letter strings hold words of free groups of rank <= 128")
        return _held(context, letters)

    def __getattr__(self, name):
        # only reached for an unset slot: a letter-held word's syllables
        if name != "syllables" or self.letters is None:
            raise AttributeError(name)
        self.syllables = sylls = _decode(self.letters)
        return sylls

    def __eq__(self, other):
        if not isinstance(other, GroupWord):
            return False
        if self.letters is not None and other.letters is not None:
            return self.letters == other.letters and self.context == other.context
        return self.syllables == other.syllables and self.context == other.context

    def __hash__(self):
        return hash((self.context, self.syllables))

    def reduce(self) -> "GroupWord":
        return GroupWord(self.context,
                         _reduce(self.context.kind, self.context.torsion, self.syllables))

    @property
    def is_identity(self) -> bool:
        return not (self.syllables if self.letters is None else self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        # both factors are reduced: only the junction can cancel or merge,
        # so the result's length is known before it is built
        ctx = self.context
        if other.context is not ctx and other.context != ctx:
            raise ValueError("words live in different groups")
        if self.letters is not None and other.letters is not None:
            a, b = self.letters, other.letters
            k = _agreement(a, b)
            check_length(len(a) + len(b) - 2 * k, "letters")
            return _held(ctx, b"".join((memoryview(a)[:len(a) - k], memoryview(b)[k:])))
        a, b = self.syllables, other.syllables
        mod = ctx.torsion if ctx.kind == FREE_PRODUCT else 0
        # one pass over the junction: k syllables cancel from each side,
        # then at most one merges
        k, merged = 0, ()
        for (g, e), (h, f) in zip(reversed(a), b):
            if g != h:
                break
            e += f
            if mod:
                e %= mod
            if e:
                merged = ((g, e),)
                break
            k += 1
        n = len(merged)
        check_length(len(a) + len(b) - 2 * k - n, "syllables")
        return GroupWord(ctx, a[:len(a) - k - n] + merged + b[k + n:])

    def inverse(self) -> "GroupWord":
        # the reversal of a reduced word is reduced
        if self.letters is not None:
            return _held(self.context, self.letters[::-1].translate(_INVERT))
        sylls = reversed(self.syllables)
        if self.context.kind == FREE_PRODUCT:
            mod = self.context.torsion
            return GroupWord(self.context, tuple((g, -e % mod) for g, e in sylls))
        return GroupWord(self.context, tuple((g, -e) for g, e in sylls))

    def __pow__(self, e: int) -> "GroupWord":
        # square-and-multiply over capped products: x1 ** (1 << 40) is 40
        # squarings of one syllable, and a longer base stops at the cap
        return power(self, e, word(self.context, []))

    def exponent_sum(self, gen: int) -> int:
        if self.letters is not None:
            return self.letters.count(2 * gen) - self.letters.count(2 * gen + 1)
        return sum(e for g, e in self.syllables if g == gen)

    def length(self) -> int:
        if self.letters is not None:
            return len(self.letters)
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self):
        return format_word(self)


def as_letters(w: GroupWord) -> GroupWord:
    """w held as a letter string; w must lie in a free group of rank <= 128."""
    if w.letters is not None:
        return w
    check_length(w.length(), "letters")
    return GroupWord.from_letters(w.context, b"".join(
        bytes((2 * g + (e < 0),)) * abs(e) for g, e in w.syllables))


def _held(context: GroupContext, letters: bytes) -> GroupWord:
    w = GroupWord.__new__(GroupWord)
    w.context, w.letters = context, letters
    return w


# letter 2g <-> 2g + 1: x_g <-> x_g^-1
_INVERT = bytes(b ^ 1 for b in range(256))


def _decode(letters: bytes) -> tuple[tuple[int, int], ...]:
    # a reduced letter string's runs of one letter are its syllables
    runs = ((b, len(list(run))) for b, run in groupby(letters))
    return tuple((b >> 1, -n if b & 1 else n) for b, n in runs)


def _agreement(a: bytes, b: bytes) -> int:
    """Length of the common prefix of b and of a's inverse: the letters
    the product a b cancels.

    Windows of 8, 16, 32, ... letters are compared at C speed, and the
    first that differs is placed by one XOR of its integer values, so a
    cut of k letters costs O(k) in C and O(log k) steps.
    """
    n = min(len(a), len(b))
    # most junctions of the Artin fold cancel nothing
    if not n or a[-1] ^ b[0] != 1:
        return 0
    k, step, end = 0, 8, len(a)
    while k < n:
        m = min(step, n - k)
        p = a[end - k - m:end - k][::-1].translate(_INVERT)
        q = b[k:k + m]
        if p != q:
            x = int.from_bytes(p, "big") ^ int.from_bytes(q, "big")
            return k + m - (x.bit_length() + 7) // 8
        k += m
        step <<= 1
    return n


def word(context: GroupContext, syllables: Iterable[tuple[int, int]]) -> GroupWord:
    return GroupWord(context, _reduce(context.kind, context.torsion, syllables))


def generator(context: GroupContext, name: str, e: int = 1) -> GroupWord:
    return word(context, [(context.index(name), e)])


def commutator(u: GroupWord, v: GroupWord) -> GroupWord:
    """[u, v] = u v u^-1 v^-1."""
    if u.context != v.context:
        raise ValueError("commutator of words from different groups")
    return u * v * u.inverse() * v.inverse()


def iterated_bracket(x: GroupWord, y: GroupWord, k: int) -> GroupWord:
    """[x, [x, ..., [x, y]...]] with k-1 nested brackets (weight k)."""
    if k < 2:
        raise ValueError("bracket length must be at least 2")
    out = commutator(x, y)
    for _ in range(k - 2):
        out = commutator(x, out)
    return out


def st_words(k: int) -> tuple[GroupWord, GroupWord]:
    """The two kernel generators, written over a = g1^2, b = g2^2.

    s = a^k b^k a^(k-k^2) b^-1 a^k b^-1 a^(k-k^2) b^k a^k
    t = a^k b^k a^(k-k^2) b^-1 a^(k+1) b a^(k+k^2) b^k a^(5k)
    """
    if k < 1:
        raise ValueError("k must be positive")
    ctx = free_group(("a", "b"))
    a, b = 0, 1
    s = word(ctx, [(a, k), (b, k), (a, k - k * k), (b, -1), (a, k),
                   (b, -1), (a, k - k * k), (b, k), (a, k)])
    t = word(ctx, [(a, k), (b, k), (a, k - k * k), (b, -1), (a, k + 1),
                   (b, 1), (a, k + k * k), (b, k), (a, 5 * k)])
    return s, t


# ---------------------------------------------------------------------------
# text format: generators with caret exponents, e.g. "a^3 b^-1 a^-6"

_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?")


def format_word(w: GroupWord) -> str:
    if not w.syllables:
        return "1"
    parts = []
    for g, e in w.syllables:
        name = w.context.names[g]
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


def parse_word(context: GroupContext, text: str) -> GroupWord:
    text = text.strip()
    if text in ("", "1"):
        return word(context, [])
    sylls = []
    pos = 0
    for m in _TOKEN.finditer(text):
        gap = text[pos:m.start()]
        if gap.strip():
            raise ValueError(f"unexpected token {gap.strip()!r} in word")
        name, exp = m.group(1), m.group(2)
        if name not in context.names:
            raise ValueError(f"unknown generator {name!r}")
        sylls.append((context.index(name), int(exp) if exp else 1))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"unexpected token {text[pos:].strip()!r} in word")
    return word(context, sylls)


# ---------------------------------------------------------------------------

def power(base, e: int, one):
    """base ** e by square-and-multiply; for e < 0, base.inverse() ** -e.

    ``base`` must support ``*``, and ``.inverse()`` when e < 0.  ``one``
    is returned as it is for e == 0 and is never multiplied in.  For
    e >= 1 the cost is bit_length(e) - 1 squarings plus popcount(e) - 1
    other products: there is no squaring after the top bit.
    """
    if e < 0:
        base, e = base.inverse(), -e
    acc = None
    while e:
        if e & 1:
            acc = base if acc is None else acc * base
        e >>= 1
        if e:
            base = base * base
    return one if acc is None else acc


def evaluate_word(w: GroupWord, images: Mapping[str, object], one):
    """Fold a word through generator images.

    Images must support ``*`` and ``.inverse()``; each syllable is raised
    by ``power``, a negative one as its generator's inverse, taken once
    per call.  ``one`` is returned only for the empty word.
    """
    names = w.context.names
    inverses = {g: images[names[g]].inverse() for g in {g for g, e in w.syllables if e < 0}}
    result = None
    for g, e in w.syllables:
        acc = power(inverses[g] if e < 0 else images[names[g]], abs(e), one)
        result = acc if result is None else result * acc
    return one if result is None else result
