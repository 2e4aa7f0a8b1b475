"""PSL(2, Z/nZ): sign-quotient matrices, the reduction of the (2,3,n)
rotation generators, kernel membership of the two distinguished words,
and the finite presentation relators."""

from __future__ import annotations

from .cyclotomic import prime_factors
from .reports import ClaimReport
from .words import evaluate_word, power, st_words

__all__ = [
    "ModMatrix2", "psi_generators", "ab_images",
    "verify_st_kernel", "verify_presentation",
    "psl_order", "psl_order_bruteforce",
]


class ModMatrix2:
    """2x2 matrix over Z/nZ with det = 1, identified with its negation."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: tuple[int, int, int, int]):
        self.n = n
        self.entries = entries

    def __eq__(self, other):
        return (isinstance(other, ModMatrix2) and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, self.entries))

    @staticmethod
    def make(n: int, a: int, b: int, c: int, d: int) -> "ModMatrix2":
        a, b, c, d = a % n, b % n, c % n, d % n
        if (a * d - b * c) % n != 1 % n:
            raise ValueError("determinant must be 1 mod n")
        plus = (a, b, c, d)
        minus = tuple((-v) % n for v in plus)
        return ModMatrix2(n, min(plus, minus))

    @staticmethod
    def identity(n: int) -> "ModMatrix2":
        return ModMatrix2.make(n, 1, 0, 0, 1)

    def __mul__(self, other: "ModMatrix2") -> "ModMatrix2":
        if other.n != self.n:
            raise ValueError("modulus mismatch")
        n = self.n
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return ModMatrix2.make(n, a * e + b * g, a * f + b * h,
                               c * e + d * g, c * f + d * h)

    def inverse(self) -> "ModMatrix2":
        a, b, c, d = self.entries
        return ModMatrix2.make(self.n, d, -b, -c, a)

    def __pow__(self, e: int) -> "ModMatrix2":
        return power(self, e, ModMatrix2.identity(self.n))

    @property
    def is_identity(self) -> bool:
        return self == ModMatrix2.identity(self.n)

    def to_json(self):
        return list(self.entries)


def psi_generators(n: int) -> tuple[ModMatrix2, ModMatrix2, ModMatrix2]:
    """Images of the rotation generators, alpha = [[1, -1], [0, 1]],
    u = [[1, -1], [1, 0]] and v = [[0, -1], [1, 0]], of orders n, 3 and 2
    in PSL(2, Z/nZ).

    These matrices are the definitions, and their orders need no runtime
    check: alpha^k = [[1, -k], [0, 1]], and u^3 = v^2 = -I over Z, which
    the tests prove.
    """
    if n % 2 == 0:
        raise ValueError("n must be odd")
    if n < 5:
        raise ValueError("n must be at least 5")
    return (ModMatrix2.make(n, 1, -1, 0, 1), ModMatrix2.make(n, 1, -1, 1, 0),
            ModMatrix2.make(n, 0, -1, 1, 0))


def ab_images(n: int) -> tuple[ModMatrix2, ModMatrix2]:
    """a = alpha^2 = [[1, -2], [0, 1]] and b = v alpha^2 v = [[1, 0], [2, 1]]
    (Sanov's free pair, up to inverting a).  The tests prove over Z that
    b = +-u^2 alpha^2 u, so the two spellings agree mod every n."""
    alpha, _, v = psi_generators(n)
    a = alpha * alpha
    return a, v * a * v


def _eval_ab_words(words, n: int) -> list[ModMatrix2]:
    """The image of each word, from one build of the images of a and b."""
    a, b = ab_images(n)
    one = ModMatrix2.identity(n)
    return [evaluate_word(w, dict(zip(w.context.names, (a, b))), one) for w in words]


def _identity_claim(claim: str, n: int, checks) -> ClaimReport:
    """A witness per (label, matrix): its entries and whether it is +-identity."""
    witnesses = [{"word": label, "image": m.to_json(), "trivial": m.is_identity}
                 for label, m in checks]
    return ClaimReport(
        claim=claim,
        params={"n": n, "k": (n - 1) // 2},
        witnesses=witnesses,
        passed=all(w["trivial"] for w in witnesses),
    )


def verify_st_kernel(n: int) -> ClaimReport:
    """Both distinguished words map to +-1 mod n (n = 2k+1, k >= 3)."""
    if n % 2 == 0 or n < 7:
        raise ValueError("n must be odd and at least 7")
    s, t = _eval_ab_words(st_words((n - 1) // 2), n)
    return _identity_claim("the two kernel words map to +-identity in PSL(2, Z/nZ)", n,
                           [("s", s), ("t", t)])


def verify_presentation(n: int) -> ClaimReport:
    """The five relators of PSL(2, Z/nZ) over the (2,3,n) generators vanish."""
    if n % 2 == 0 or n < 7:
        raise ValueError("n must be odd and at least 7")
    k = (n - 1) // 2
    alpha, u, v = psi_generators(n)
    g = v * alpha ** k * v * alpha ** (-2) * v * alpha ** k
    return _identity_claim("presentation relators of PSL(2, Z/nZ) evaluate to +-identity", n, [
        ("alpha^n", alpha ** n),
        ("u^3", u ** 3),
        ("v^2", v ** 2),
        ("g v g v", g * v * g * v),
        ("g alpha g^-1 alpha^-4", g * alpha * g.inverse() * alpha ** (-4)),
    ])


def psl_order(n: int, primes: list[int] | None = None) -> int:
    """|PSL(2, Z/nZ)| by the multiplicative closed form; ``primes``, the
    distinct primes dividing n, saves factoring n when the caller has them."""
    if n < 1:
        raise ValueError("modulus must be positive")
    if n == 1:
        return 1
    sl = n ** 3
    for p in prime_factors(n) if primes is None else primes:
        sl = sl // (p * p) * (p * p - 1)
    return sl if n == 2 else sl // 2


def psl_order_bruteforce(n: int) -> int:
    """Count det-1 matrices mod n directly; oracle for the closed form.

    Every quadruple (a, b, c, d) with ad - bc = 1 (mod n) is counted, in
    O(n^2): a table holds how many (b, c) give each residue of bc, and
    each (a, d) looks up the residue ad - 1."""
    if not 2 < n <= 13:
        raise ValueError("brute force supported for 2 < n <= 13 only")
    products = [0] * n
    for b in range(n):
        for c in range(n):
            products[b * c % n] += 1
    count = sum(products[(a * d - 1) % n] for a in range(n) for d in range(n))
    return count // 2
