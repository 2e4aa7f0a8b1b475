"""Seeded job lists for the three benchmark workloads.

A job list is plain data: the parent process builds it without importing
burauforge, and the child process replays it through the public entry
points.  Every job carries a ``check`` naming its entry in
``expected.json``; a job whose answer differs from the generic one for its
check also carries a more specific ``key``.  A job with a ``tamper`` pair
[src, dst] first has the child write a tampered copy of certificate src
to dst, untimed.

Each workload is sized so that one pass takes a few seconds.  The seed
orders the jobs where the order does not change the work, and draws the
inputs of the cheap Magnus checks, so that runs with different seeds run
the same commands: drawing among commands of near-equal cost still moved
the slowest ones by a tenth or more.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "freeness", "artin")

# Layers each workload is designed to leave untouched, and the spans it
# must reach; the traced run treats a violation as a benchmark error.
BYPASSED = {
    "sweep": ("balls", "hyperbolic", "artin"),
    "freeness": ("artin",),
    "artin": ("cyclotomic", "burau", "balls", "hyperbolic"),
}
EXERCISED = {
    "sweep": ("cyclotomic.mul", "burau.matmul", "triangle.claim",
              "modular.claim", "quantum.claim"),
    "freeness": ("cyclotomic.mul", "balls.embed", "balls.unit_turn",
                 "hyperbolic.oracle", "hyperbolic.certify",
                 "hyperbolic.verify_certificate"),
    "artin": ("artin.action", "artin.longitude", "artin.magnus", "artin.eta"),
}


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The job list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return _sweep(rng, tiny)
    if workload == "freeness":
        return _freeness(rng, tiny)
    if workload == "artin":
        return _artin(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _number(jobs: list[dict]) -> list[dict]:
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


# ---------------------------------------------------------------------------
# sweep: per-parameter verification over many small cyclotomic fields

# Inclusive parameter ranges, cut down from the full documented sweeps
# (about 10 s on one core) to about half of that.
SWEEP_RANGES = {
    "even": range(2, 21),
    "odd": range(2, 13),
    "oddlem": range(2, 13),
    "kernel": [n for n in range(2, 33) if n != 6],  # n = 6 has no claims
    "onerel": range(2, 51),
    "psl": range(3, 14),
    "st": range(7, 32, 2),
    "presentation": range(7, 32, 2),
}
# levels p with p % 4 == 2 are not admissible
LEVELS_PARAMS = [p for p in range(5, 49) if p % 4 != 2]
LEVELS_TWIST = [p for p in range(5, 65) if p % 4 != 2]
TINY_SWEEP = {"even": [4], "kernel": [2, 7], "onerel": [5], "st": [9]}


def _sweep(rng: random.Random, tiny: bool) -> list[dict]:
    jobs = []
    ranges = TINY_SWEEP if tiny else SWEEP_RANGES
    for suite, params in ranges.items():
        for x in params:
            span = f"{x}..{x}"
            jobs.append({"kind": "cli", "check": "verify",
                         "key": f"verify {suite} {span}",
                         "argv": ["verify", "--suite", suite, "--range", span]})
    for cmd, levels in (("params", LEVELS_PARAMS), ("twist-order", LEVELS_TWIST)):
        for p in (levels[:1] if tiny else levels):
            jobs.append({"kind": "cli", "check": cmd, "argv": [cmd, "--p", str(p)]})
    rng.shuffle(jobs)
    return _number(jobs)


# ---------------------------------------------------------------------------
# freeness: relation oracle, ping-pong certificates and their re-verification

PAIR_X = "A B A^-1 B^-1"
PAIR_Y = "A^2 B A^-2 B^-1"
# Infinite-image orders whose certificate search succeeds at its first
# indefinite embedding, in blocks that a pass runs whole, in this order
# within a block.  Orders sharing a field (n and 2n for odd n) share a
# block, so the seed cannot change which of them builds the field tables.
ORDER_PAIRS = ((7, 14), (9, 18), (11, 22), (21, 26), (8, 12), (15, 16), (20, 24))
FINITE_ORDER = 5          # finite image: the oracle must find a relation
ORACLE_LEN = 6            # 4 * 3^5 = 972 words when no relation exists
PRECISION = 32            # certification bits; verify-cert doubles them


def _freeness(rng: random.Random, tiny: bool) -> list[dict]:
    """Every pooled order and the finite one, blocks in a seeded order.  A
    seed that drew one order of each pair instead would move job_s_p90,
    the slowest two or three commands of a pass, by up to a fifth."""
    blocks = []
    for pair in ORDER_PAIRS[:1 if tiny else None]:
        blocks.append([])
        for n in pair:
            cert, bad = f"cert-{n}.json", f"cert-{n}-tampered.json"
            blocks[-1] += [
                {"kind": "cli", "check": "certify-free",
                 "argv": ["certify-free", "--order", str(n), "--x", PAIR_X, "--y", PAIR_Y,
                          "--max-len", str(ORACLE_LEN), "--pingpong",
                          "--precision", str(PRECISION), "--cert-out", cert]},
                {"kind": "cli", "check": "verify-cert", "argv": ["verify-cert", "--file", cert]},
                {"kind": "cli", "check": "verify-cert-tampered", "tamper": [cert, bad],
                 "argv": ["verify-cert", "--file", bad]},
            ]
    blocks.append([{"kind": "cli", "check": "oracle-finite",
                    "argv": ["certify-free", "--order", str(FINITE_ORDER), "--x", PAIR_X,
                             "--y", PAIR_Y, "--max-len", str(ORACLE_LEN)]}])
    rng.shuffle(blocks)
    return _number([job for block in blocks for job in block])


# ---------------------------------------------------------------------------
# artin: longitudes and depth certificates of bracket braids, plus the
# Magnus multiplicativity and depth-doubling checks

def _reduce(sylls):
    out = []
    for g, e in sylls:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return tuple(out)


def _inverse(w):
    return tuple((g, -e) for g, e in reversed(w))


def _bracket(u, v, k):
    """[u, [u, ..., [u, v]...]] of weight k, as in words.iterated_bracket."""
    out = v
    for _ in range(k - 1):
        out = _reduce(u + out + _inverse(u) + _inverse(out))
    return out


def _braid_text(w) -> str:
    return " ".join(f"g{g + 1}" if e == 1 else f"g{g + 1}^{e}" for g, e in w)


def _mirror(w):
    return tuple((1 - g, e) for g, e in w)


def bracket_pairs() -> list[tuple[tuple, tuple]]:
    """Every weight-2/3 bracket of a one-syllable and an at most
    two-syllable word in the squared generators, as (weight, word), paired
    with its mirror image under g1 <-> g2.

    Mirroring maps the longitude of strand s to that of strand 4 - s, but
    the Artin action is not symmetric under it: some jobs of one braid cost
    a third more than their mirror's.
    Brackets of two two-syllable words are left out: at weight 3 their
    longitudes reach 10^5 to 10^6 letters and gigabytes of memory.
    """
    one = [((g, e),) for g in (0, 1) for e in (2, -2)]
    two = [((g, a), (1 - g, b)) for g in (0, 1) for a in (2, -2) for b in (2, -2)]
    words = set()
    for u in one:
        for v in one + two:
            words.add((u, v))
            words.add((v, u))
    pairs = {}
    for k in (2, 3):
        for u, v in sorted(words):
            w = _bracket(u, v, k)
            if w:  # empty when u and v commute
                twin = _mirror(w)
                pairs.setdefault((k, min(w, twin)), ((k, w), (k, twin)))
    return [pairs[key] for key in sorted(pairs)]


def _free_word(rng, syllables, exps):
    return [[rng.randint(0, 2), rng.choice(exps)] for _ in range(syllables)]


MAGNUS_BATCHES, MAGNUS_CASES = 4, 50
ETA_BATCHES, ETA_CASES = 4, 25


def _artin(rng: random.Random, tiny: bool) -> list[dict]:
    """Both braids of each mirror pair, each on all three strands in a row,
    pairs in a fixed order and the seed choosing which braid of a pair goes
    first.  Every seed thus runs the same jobs, and the package's cache of
    recent Artin actions finds the same hits; only which large actions are
    held at once can differ, by a few MB of peak_rss_mb.  A seed that chose
    one braid of each pair would move job_s_p90 by over a tenth, and a seed that
    shuffled the pairs would move peak_rss_mb further."""
    pairs = bracket_pairs()[::12] if tiny else bracket_pairs()
    jobs = []
    for pair in pairs:
        first = rng.randrange(2)
        for k, w in (pair[first], pair[1 - first]):
            for strand in (1, 2, 3):
                jobs.append({"kind": "cli", "check": "artin", "depth": k - 1,
                             "argv": ["artin", "--braid", _braid_text(w), "--strand",
                                      str(strand), "--depth", str(k - 1)]})
    checks = []
    for _ in range(1 if tiny else MAGNUS_BATCHES):
        checks.append({"kind": "api", "check": "magnus-multiplicative",
                       "cases": [[_free_word(rng, 4, range(-2, 3)),
                                  _free_word(rng, 4, range(-2, 3)), rng.randint(1, 4)]
                                 for _ in range(MAGNUS_CASES)]})
    for _ in range(1 if tiny else ETA_BATCHES):
        checks.append({"kind": "api", "check": "eta-doubling",
                       "cases": [_free_word(rng, rng.randint(1, 4), (-1, 1))
                                 for _ in range(ETA_CASES)]})
    # the checks use no Artin action, so they go anywhere in between
    for check in checks:
        jobs.insert(rng.randrange(len(jobs) + 1), check)
    return _number(jobs)
