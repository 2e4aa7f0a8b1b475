"""Classification of the projective Burau image by the order of q, exact
verification of the presentation relations (even and odd cases, the
median-triangle embedding, kernel words), the one-relator commutator
identity, and the Euler-characteristic bookkeeping.

Throughout, q is the caller's parameter and matrices are evaluated at
-q, so an order-2k parameter gives the (k,k,k) rotation group and an
order-(2k+1) parameter gives the (2, 3, 2k+1) one.  The image is finite
exactly when -q has multiplicative order in {1, 2, 3, 4, 6, 10}, i.e.
when ord(q) <= 6.

The relation families (``verify_even``, ``verify_odd``,
``verify_odd_embedding``, ``verify_kernel_words``) must hold at every
primitive n-th root of unity.  Each family is registered once, in
``cli.SUITES``, which names its routine and the order n of its parameter.
Every witness is decided by a matrix product and ``CycloMatrix.is_scalar``:
a word is scalar, or m1 = c * m2 projectively, which is m1 adj(m2) being
scalar.  Every power of A, B and AB (A^k, (AB)^n, A^-1, alpha = A^(k+1),
alpha^2 and alpha^n among them) comes in closed form from the
eigenvalues, q^2, 1 for A and B and -q, -q^3 for AB, by
``burau.root_eigen_powers``; only the squares and cubes of mixed words
are products.

``galois_orbit`` evaluates a family once per order, at zeta_n,
and derives the claim at each other primitive root zeta_n^j by
sigma_j: zeta_n -> zeta_n^j.  A and B have entries in Z[q], so a word at
zeta_n^j is sigma_j applied entrywise to the word at zeta_n; scalarity and
projective equality are Galois-invariant, and each scalar witness is the
sigma_j-image of the one at zeta_n (Washington, *Introduction to
Cyclotomic Fields*, ch. 2).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .burau import CycloMatrix, root_eigen_powers, squared_images
from .cyclotomic import CyclotomicNumber, prime_factors, root_of_unity
from .modular import psl_order
from .reports import ClaimReport
from .words import free_product, word

__all__ = [
    "FINITE_IMAGE_PARAMETER_ORDERS",
    "TriangleClassification", "classify", "primitive_roots",
    "verify_even", "verify_odd", "verify_odd_embedding", "verify_kernel_words",
    "galois_orbit",
    "euler_characteristics", "surface_free_bound", "verify_commutator_relator",
]

# orders of the parameter actually substituted into the representation
# (that is, of -q) at which the image is finite
FINITE_IMAGE_PARAMETER_ORDERS = frozenset({1, 2, 3, 4, 6, 10})


class TriangleClassification:
    __slots__ = ("order", "case", "k", "triangle", "geometry", "substituted_order")

    def __init__(self, order: int, case: str, k: int, triangle: tuple[int, int, int] | None,
                 geometry: str | None, substituted_order: int):
        self.order = order                          # multiplicative order of q
        self.case = case                            # "finite-image" | "even" | "odd"
        self.k = k
        self.triangle = triangle
        self.geometry = geometry
        self.substituted_order = substituted_order  # multiplicative order of -q

    def as_dict(self) -> dict:
        return {
            "parameter_order": self.order,
            "case": self.case,
            "k": self.k,
            "triangle": list(self.triangle) if self.triangle else None,
            "geometry": self.geometry,
            "substituted_parameter_order": self.substituted_order,
        }


def _geometry(triple: tuple[int, int, int]) -> str:
    s = sum(Fraction(1, v) for v in triple)
    if s > 1:
        return "spherical"
    if s == 1:
        return "euclidean"
    return "hyperbolic"


def classify(q: CyclotomicNumber) -> TriangleClassification:
    n = q.multiplicative_order()
    if n is None:
        raise ValueError("parameter must be a root of unity")
    sub = (-q).multiplicative_order()
    if n % 2 == 0:
        k = n // 2
        triple = (k, k, k) if k >= 1 else None
    else:
        k = (n - 1) // 2
        triple = (2, 3, 2 * k + 1) if k >= 1 else None
    finite = sub in FINITE_IMAGE_PARAMETER_ORDERS
    case = "finite-image" if finite else ("even" if n % 2 == 0 else "odd")
    geometry = _geometry(triple) if triple and 0 not in triple else None
    return TriangleClassification(order=n, case=case, k=k, triangle=triple,
                                  geometry=geometry, substituted_order=sub)


def _units(n: int) -> list[int]:
    return [j for j in range(1, n + 1) if math.gcd(j, n) == 1]


def primitive_roots(n: int) -> list[CyclotomicNumber]:
    return [root_of_unity(n, j) for j in _units(n)]


# ---------------------------------------------------------------------------
# relation suites

def _relation_claim(claim: str, params: dict, checks, proj=(), note: str = "") -> ClaimReport:
    """The report of a relation family: a witness per (label, matrix) in
    ``checks``, scalar or not, with its exact value, then one per
    (label, m1, m2) in ``proj``, whether m1 = c * m2.  A ``note`` flags the
    claim, which then never fails."""
    scalars = tuple(m.scalar_value() for _, m in checks)
    witnesses = [{"word": label,
                  "scalar": s is not None,
                  "value": str(s) if s is not None else None}
                 for (label, _), s in zip(checks, scalars)]
    witnesses += [{"word": label, "scalar": _proj_equal(m1, m2)} for label, m1, m2 in proj]
    return ClaimReport(
        claim=claim,
        params=params,
        witnesses=witnesses,
        passed=bool(note) or all(w["scalar"] for w in witnesses),
        flagged=bool(note),
        note=note,
        scalars=scalars + (None,) * len(proj),
    )


def _proj_equal(m1: CycloMatrix, m2: CycloMatrix) -> bool:
    """m1 = c * m2 for some scalar c, for an invertible 2x2 m2: m1 adj(m2)
    is scalar, since adj(m2) = det(m2) m2^-1."""
    (a, b), (c, d) = m2.rows
    return (m1 * CycloMatrix([[d, -b], [-c, a]])).is_scalar()


def _images(q: CyclotomicNumber, n: int) -> tuple[CycloMatrix, CycloMatrix]:
    """A and B at q, which must have order n."""
    o = q.multiplicative_order()
    if o != n:
        raise ValueError(f"parameter must have order {n}, got {o}")
    a, b, _ = squared_images(q)
    return a, b


# eigenvalues as (sign, exponent of q): A and B are triangular with
# diagonal q^2, 1, and tr AB = -q - q^3, det AB = q^4
_SQUARE_EIGENVALUES = ((1, 2), (1, 0))
_PRODUCT_EIGENVALUES = ((-1, 1), (-1, 3))


def _even_words(k: int, q: CyclotomicNumber, a: CycloMatrix, b: CycloMatrix):
    (a_k,) = root_eigen_powers(a, q, *_SQUARE_EIGENVALUES, [k])
    (b_k,) = root_eigen_powers(b, q, *_SQUARE_EIGENVALUES, [k])
    (ab_k,) = root_eigen_powers(a * b, q, *_PRODUCT_EIGENVALUES, [k])
    return [(f"A^{k}", a_k), (f"B^{k}", b_k), (f"(AB)^{k}", ab_k)]


def _odd_words(k: int, q: CyclotomicNumber, a: CycloMatrix, b: CycloMatrix):
    n = 2 * k + 1
    a_n, a_inv, a_k1 = root_eigen_powers(a, q, *_SQUARE_EIGENVALUES, [n, -1, k - 1])
    b_n, b_k = root_eigen_powers(b, q, *_SQUARE_EIGENVALUES, [n, k])
    (ab_n,) = root_eigen_powers(a * b, q, *_PRODUCT_EIGENVALUES, [n])
    return [
        (f"A^{n}", a_n),
        (f"B^{n}", b_n),
        (f"(AB)^{n}", ab_n),
        (f"(A^-1 B^{k})^2", (a_inv * b_k) ** 2),
        (f"(B^{k} A^{k - 1})^3", (b_k * a_k1) ** 3),
    ]


def verify_even(k: int, q: CyclotomicNumber) -> ClaimReport:
    """A^k, B^k and (AB)^k are scalar when q has order 2k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return _relation_claim("even-case presentation relations are projectively trivial",
                           {"k": k, "parameter_order": 2 * k, "q": str(q)},
                           _even_words(k, q, *_images(q, 2 * k)))


def verify_odd(k: int, q: CyclotomicNumber) -> ClaimReport:
    """The five odd-case relations are scalar when q has order 2k+1."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return _relation_claim("odd-case presentation relations are projectively trivial",
                           {"k": k, "parameter_order": 2 * k + 1, "q": str(q)},
                           _odd_words(k, q, *_images(q, 2 * k + 1)))


def verify_odd_embedding(k: int, q: CyclotomicNumber) -> ClaimReport:
    """The (2,3,2k+1) generators built from A, B satisfy their presentation.

    alpha = A^(k+1), u = A^-1 B^k A^k, v = A^k B^k A^k; besides the four
    torsion relations this checks alpha^2 = A and u^2 alpha^2 u = v alpha^2 v = B
    projectively, which is the substance of the median-triangle embedding.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = 2 * k + 1
    a, b = _images(q, n)
    # alpha = A^(k+1), so alpha^2 and alpha^n are powers of A too
    alpha, alpha2, alpha_n, a_inv, a_k = root_eigen_powers(
        a, q, *_SQUARE_EIGENVALUES, [k + 1, 2 * k + 2, (k + 1) * n, -1, k])
    (b_k,) = root_eigen_powers(b, q, *_SQUARE_EIGENVALUES, [k])
    u = a_inv * b_k * a_k
    v = a_k * b_k * a_k
    return _relation_claim(
        "median-triangle generators satisfy the (2,3,2k+1) presentation",
        {"k": k, "parameter_order": n, "q": str(q)},
        [(f"alpha^{n}", alpha_n), ("u^3", u ** 3), ("v^2", v ** 2),
         ("alpha u v", alpha * u * v)],
        proj=[("alpha^2 = A (projective)", alpha2, a),
              ("u^2 alpha^2 u = v alpha^2 v (projective)", u * u * alpha2 * u, v * alpha2 * v),
              ("v alpha^2 v = B (projective)", v * alpha2 * v, b)],
    )


def verify_kernel_words(n: int, q: CyclotomicNumber) -> ClaimReport:
    """The normal generators of the kernel are projectively trivial.

    For n = 2k the words are A^k, B^k, (AB)^k; for n = 2k+1 the five
    odd-case words.  n = 2 is reported as degenerate (flagged, never
    failed): at q = -1 the representation of the squared generators is
    trivial, so the listed words say nothing.
    """
    if n in (1, 6):
        raise ValueError("orders 1 and 6 are outside the kernel description")
    k = n // 2
    words = _odd_words if n % 2 else _even_words
    return _relation_claim(
        "kernel normal generators are projectively trivial",
        {"n": n, "k": k, "q": str(q)},
        words(k, q, *_images(q, n)),
        note="degenerate order-2 parameter: squared generators act trivially" if n == 2 else "",
    )


def galois_orbit(verify, x: int, n: int) -> list[ClaimReport]:
    """The claims of the relation family ``verify`` at parameter x, whose
    parameter has order n, one per primitive n-th root in the order of
    ``primitive_roots(n)``: the same reports as
    ``[verify(x, q) for q in primitive_roots(n)]``.

    The family is evaluated once, at zeta_n; every other claim is derived
    from that one by sigma_j (see the module docstring).
    """
    base = verify(x, root_of_unity(n, 1))
    return [base if j == 1 else _conjugate_claim(base, n, j) for j in _units(n)]


def _conjugate_claim(claim: ClaimReport, n: int, j: int) -> ClaimReport:
    """claim, made at q = zeta_n, carried to q = zeta_n^j by sigma_j."""
    if len(claim.scalars) != len(claim.witnesses):
        raise ValueError("claim carries no exact witnesses to conjugate")
    # in its minimal field, whose conjugates are minimal too
    base = [None if s is None else s.canonical() for s in claim.scalars]
    for s in base:
        # sigma_j acts on Q(zeta_m) as zeta_m -> zeta_m^j only when m | n
        if s is not None and n % s.conductor:
            raise ValueError(f"witness {s} lies in conductor {s.conductor}, "
                             f"which does not divide {n}")
    witnesses = [dict(w) if s is None else {**w, "value": str(s.galois(j))}
                 for w, s in zip(claim.witnesses, base)]
    # the derived claim keeps only the printed values: a long sweep holds
    # every claim until it is reported
    return ClaimReport(claim.claim, {**claim.params, "q": str(root_of_unity(n, j))},
                       witnesses, claim.passed, claim.flagged, claim.note)


# ---------------------------------------------------------------------------
# Euler characteristics and the free-generator bound

def euler_characteristics(n: int) -> tuple[Fraction, Fraction]:
    """(orbifold chi of the (2,3,n) group, chi of the mod-n kernel surface group)."""
    if n < 7:
        raise ValueError("n must be at least 7")
    orbifold = -Fraction(n - 6, 6 * n)
    return orbifold, psl_order(n) * orbifold


def surface_free_bound(n: int) -> Fraction:
    """|PSL(2, Z/nZ)| (n-6)/(6n); equals the prime closed form for prime n."""
    if n < 7 or n % 2 == 0:
        raise ValueError("n must be odd and at least 7")
    primes = prime_factors(n)
    value = Fraction(psl_order(n, primes) * (n - 6), 6 * n)
    if primes == [n]:
        closed = Fraction((n + 1) * (n - 1) * (n - 6), 12)
        if value != closed:
            raise AssertionError("general and prime formulas disagree")
    return value


# ---------------------------------------------------------------------------
# the commutator-subgroup relator identity in Z/r * Z/r

def verify_commutator_relator(r: int) -> ClaimReport:
    """(ab)^r equals the displayed product of commutators in Z/r * Z/r.

    Two spellings are reduced and compared: the left-hand side
    (ab)^r a^-r b^-r and the displayed commutator product.  Each is
    written out as one syllable list and reduced once to the free-product
    normal form.  The product's factor [b^(i-1), a^i] is c_{i,i-1}^-1
    letter for letter, c_ij = [a^i, b^j], so it also spells
    c_11 c_21^-1 c_22 ... c_rr as written.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    ctx = free_product(("a", "b"), r)
    a, b = ctx.index("a"), ctx.index("b")

    def bracket(x, i, y, j):
        # the letters of [x^i, y^j]
        return [(x, i), (y, j), (x, -i), (y, -j)]

    product = []
    for i in range(1, r + 1):
        if i >= 2:
            product += bracket(b, i - 1, a, i)
        product += bracket(a, i, b, i)
    lhs = word(ctx, [(a, 1), (b, 1)] * r + [(a, -r), (b, -r)])
    product = word(ctx, product)

    ok = lhs == product
    return ClaimReport(
        claim="commutator-subgroup relator identity holds in Z/r * Z/r",
        params={"r": r},
        witnesses=[
            {"word": "(ab)^r a^-r b^-r", "reduced": str(lhs)},
            {"word": "displayed commutator product", "reduced": str(product)},
        ],
        passed=ok,
    )
