#!/usr/bin/env python3
"""Run every verification suite of the command line (``burauforge.cli.SUITES``)
at its full documented range, plus the twist orders of the admissible levels,
and print a one-line summary per sweep.  Exit status is nonzero if anything
failed."""

import sys
import time

from burauforge.cli import SUITES
from burauforge.quantum import twist_projective_order


def sweep(label, make_claims, *args):
    start = time.perf_counter()
    claims = make_claims(*args)
    elapsed = time.perf_counter() - start
    bad = [c for c in claims if not c.passed and not c.flagged]
    flagged = [c for c in claims if c.flagged]
    status = "ok" if not bad else "FAILED"
    print(f"{label:44s} {len(claims):5d} claims  {len(flagged):3d} flagged  "
          f"{status}  ({elapsed:5.1f}s)")
    return not bad


def twist_claims():
    # levels p with p % 4 == 2 are not admissible
    return [twist_projective_order(p)[1] for p in range(5, 65) if p % 4 != 2]


def main() -> int:
    all_ok = True
    for name, suite in SUITES.items():
        lo, hi = suite.full
        all_ok &= sweep(f"verify --suite {name} --range {lo}..{hi}", suite.run, lo, hi)
    all_ok &= sweep("twist orders (p = 5..64)", twist_claims)
    print("all suites passed" if all_ok else "SOME SUITES FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
