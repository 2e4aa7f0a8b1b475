"""Host-speed reference for the benchmark's timings.

A shared host can run this benchmark's CPU now fast, now up to about
1.8x slower, in spells of one to tens of seconds, so raw times spread
with the host rather than with the program.  Each timed stretch is
therefore paired with ``reference_s()``, the time a fixed pure-Python
loop takes right before it (and, for a job, right after it), and scaled
to a nominal host:

    scaled = raw * REFERENCE_S / reference

The loop mixes the interpreter work the program does (small-integer
arithmetic, tuple and string building, dict stores, a sort, list
comprehensions over a few hundred kilobytes) and never touches
burauforge, so a change to the program cannot move it.  ``REFERENCE_S``
is a fixed constant, about what the loop reads on a 2-core Intel Xeon,
so that scaled times read as seconds on that host.
"""

from time import perf_counter

REFERENCE_S = 0.001
REPEATS = 2


def _loop() -> int:
    table = {}
    total = 0
    for i in range(300):
        table[(i, i % 13)] = str(i * 7)
        total += i * i % 7
    values = sorted(table.values(), reverse=True)
    odd = [v for v in values if v[-1] in "13579"]
    # a working set past the first-level caches, as the program's longer
    # words and coefficient lists have
    pairs = [(x, x ^ 5) for x in range(0, 15000, 3)]
    pairs.reverse()
    return total + len(odd) + pairs[0][1]


def reference_s() -> float:
    """Seconds the reference loop takes now: the fastest of a few runs,
    so that one interrupt does not count."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


def scale(raw_s: float, reference: float) -> float:
    """``raw_s`` as it would read on the nominal host."""
    return raw_s * REFERENCE_S / reference
