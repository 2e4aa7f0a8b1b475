"""Command-line front end.

JSON reports go to stdout, a one-line human summary per claim to stderr.
Exit codes: 0 all claims pass, 1 a claim failed, 2 usage error,
3 precision exhausted.  Output is deterministic unless --timestamps is
given.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable, Sequence
from functools import cache

from . import triangle
from .balls import PrecisionExhausted
from .cyclotomic import root_of_unity
from .hyperbolic import (MAX_CERT_CONDUCTOR, MAX_CERT_POWER, MAX_CERT_PRECISION,
                         PAIR_CONTEXT, PingPongCertificate, PingPongConfig,
                         check_cert_letters, invariant_form, oracle_report,
                         ping_pong_certify, verify_certificate)
from .modular import (psl_order, psl_order_bruteforce, verify_presentation,
                      verify_st_kernel)
from .quantum import build_params, gamma_at_p, twist_projective_order
from .reports import ClaimReport, claim_status, dumps, overall_status
from .triangle import (classify, euler_characteristics, galois_orbit,
                       surface_free_bound, verify_commutator_relator)
from .words import WordTooLong, parse_word
from .artin import B3, MAX_MAGNUS_DEPTH, longitude, longitude_magnus

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


# the relation suites grow about cubically in the order; over 2..240 the
# slowest, oddlem (orders up to 481), takes 25-33 s and 155 MB
MAX_RANGE_END = 240


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like A..B")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("range endpoints must be integers") from exc
    if b > MAX_RANGE_END:
        raise argparse.ArgumentTypeError(f"range end must be at most {MAX_RANGE_END}")
    if a > b:
        raise argparse.ArgumentTypeError("empty range")
    return a, b


# the oracle meets in the middle on half-words of up to ceil(L/2)
# letters, at most 4 * 3^4 = 324 a length at L = 10: at order 7 a CLI run
# takes 0.054 s and 15.1 MB at length 8, 0.058 s and 15.3 MB at 9, and
# 0.058 s and 15.5 MB at 10, all but a few ms of it start-up (2-core
# Xeon, CPython 3.11.7, minimum of 9 runs)
MAX_ORACLE_LEN = 10
# psl_order factors the modulus by trial division up to its square root
MAX_MODULUS = 10 ** 12


def _int_in(lo: int | None, hi: int):
    # lo None leaves the lower bound to the command, with its own message
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if lo is None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}")
        if lo is not None and not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must lie in {lo}..{hi}")
        return value
    return parse


def _emit(report: dict, claims: list[ClaimReport], args) -> int:
    status = overall_status(claims, strict=getattr(args, "strict", False))
    report["claims"] = [c.as_dict() for c in claims]
    report["overall"] = status
    if getattr(args, "timestamps", False):
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    sys.stdout.write(dumps(report) + "\n")
    for c in claims:
        print(f"[{claim_status(c):7s}] {c.claim} {c.params}", file=sys.stderr)
    print(f"overall: {status}", file=sys.stderr)
    return EXIT_PASS if status == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# verification suites

class Suite:
    """A sweep of one claim family over an integer parameter.

    ``claims`` maps a parameter to its claims, ``params`` lists the
    parameters the suite takes, in order, and ``run(lo, hi)`` concatenates
    the claims of those in lo..hi.  ``full`` is the documented full range.
    """

    __slots__ = ("claims", "params", "full")

    def __init__(self, claims: Callable[[int], list[ClaimReport]], params: Sequence[int],
                 full: tuple[int, int]):
        self.claims = claims
        self.params = params
        self.full = full

    def run(self, lo: int, hi: int) -> list[ClaimReport]:
        return [c for n in self.params if lo <= n <= hi for c in self.claims(n)]


def _psl_claim(n: int) -> ClaimReport:
    brute = psl_order_bruteforce(n)
    closed = psl_order(n)
    return ClaimReport(
        claim="closed-form group order matches brute-force enumeration",
        params={"n": n, "closed_form": closed, "enumerated": brute},
        witnesses=[],
        passed=brute == closed,
    )


# A relation family is registered here only, by its routine and the order of
# its parameter.  The claim functions are looked up when a suite runs, not
# when this table is built, so that rebinding a module global (as a tracer
# does) reaches them.
_FROM_2 = range(2, MAX_RANGE_END + 1)
_ODD_FROM_7 = range(7, MAX_RANGE_END + 1, 2)
SUITES = {
    "even": Suite(lambda k: galois_orbit(triangle.verify_even, k, 2 * k), _FROM_2,
                  full=(4, 24)),
    "odd": Suite(lambda k: galois_orbit(triangle.verify_odd, k, 2 * k + 1), _FROM_2,
                 full=(3, 15)),
    "oddlem": Suite(lambda k: galois_orbit(triangle.verify_odd_embedding, k, 2 * k + 1),
                    _FROM_2, full=(3, 15)),
    "kernel": Suite(lambda n: galois_orbit(triangle.verify_kernel_words, n, n),
                    [n for n in _FROM_2 if n != 6], full=(2, 40)),
    "onerel": Suite(lambda r: [verify_commutator_relator(r)], _FROM_2, full=(2, 50)),
    "psl": Suite(lambda n: [_psl_claim(n)], range(3, 14), full=(3, 13)),
    "st": Suite(lambda n: [verify_st_kernel(n)], _ODD_FROM_7, full=(7, 31)),
    "presentation": Suite(lambda n: [verify_presentation(n)], _ODD_FROM_7, full=(7, 31)),
}


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_classify(args) -> int:
    cls = classify(root_of_unity(args.order, 1))
    claim = ClaimReport(
        claim="image type determined by the parameter order",
        params={"order": args.order},
        witnesses=[cls.as_dict()],
        passed=True,
    )
    return _emit({"command": "classify", "parameters": {"order": args.order}},
                 [claim], args)


def _cmd_verify(args) -> int:
    lo, hi = args.range
    claims = SUITES[args.suite].run(lo, hi)
    return _emit({"command": "verify",
                  "parameters": {"suite": args.suite, "range": f"{lo}..{hi}"}},
                 claims, args)


def _cmd_params(args) -> int:
    params = build_params(args.p)
    _, twist_claim = twist_projective_order(params.p)
    _, gamma_claim = gamma_at_p(params)
    report = {"command": "params", "parameters": {"p": args.p},
              "params": params.to_json()}
    return _emit(report, [twist_claim, gamma_claim], args)


def _cmd_twist_order(args) -> int:
    value, claim = twist_projective_order(args.p)
    return _emit({"command": "twist-order", "parameters": {"p": args.p},
                  "twist_order": value}, [claim], args)


def _cmd_certify_free(args) -> int:
    q = root_of_unity(args.order, 1)
    x = parse_word(PAIR_CONTEXT, args.x)
    y = parse_word(PAIR_CONTEXT, args.y)
    # the oracle evaluates each word exactly, and every certificate the
    # search writes must pass verify-cert's bounds
    power = args.max_power if args.pingpong else 1
    check_cert_letters(x, power, "--x")
    check_cert_letters(y, power, "--y")
    witness, claim = oracle_report(x, y, q, args.max_len)
    claims = [claim]
    report = {"command": "certify-free",
              "parameters": {"order": args.order, "x": args.x, "y": args.y,
                             "max_len": args.max_len, "pingpong": args.pingpong}}
    if args.pingpong:
        # embedding 1 is indefinite whenever any embedding is (see hyperbolic)
        form = invariant_form(q, 1)
        if form is None or form.signature != "indefinite":
            claims.append(ClaimReport(
                claim="an indefinite invariant form exists at some embedding",
                params={"order": args.order}, witnesses=[], passed=False))
        else:
            config = PingPongConfig(max_power=args.max_power, precision=args.precision)
            # an ineligible pair (trivial, torsion, no disk action) is a
            # failed claim, not a usage error
            try:
                cert = ping_pong_certify(x, y, q, 1, config)
                witnesses = [] if cert is None else [cert.to_json()]
            except ValueError as exc:
                cert, witnesses = None, [{"reason": str(exc)}]
            claims.append(ClaimReport(
                claim="table-tennis certificate found and independently re-verified",
                params={"embedding": 1, "max_power": args.max_power,
                        "precision": args.precision},
                witnesses=witnesses,
                passed=cert is not None and verify_certificate(cert),
            ))
            if cert is not None:
                report["certificate"] = cert.to_json()
                if args.cert_out:
                    cert.dump(args.cert_out)
    return _emit(report, claims, args)


def _cmd_verify_cert(args) -> int:
    cert = PingPongCertificate.load(args.file)
    ok = verify_certificate(cert)
    claim = ClaimReport(
        claim="stored certificate re-verified at doubled precision",
        params={"file": args.file, "power_x": cert.power_x, "power_y": cert.power_y},
        witnesses=[cert.to_json()],
        passed=ok,
    )
    return _emit({"command": "verify-cert", "parameters": {"file": args.file}},
                 [claim], args)


def _cmd_artin(args) -> int:
    report = {"command": "artin",
              "parameters": {"braid": args.braid, "strand": args.strand, "depth": args.depth}}
    w = parse_word(B3, args.braid)
    try:
        ell = longitude(w, args.strand)
    except ValueError as exc:
        claim = ClaimReport(claim="longitude of a pure braid strand",
                            params={"braid": args.braid, "strand": args.strand},
                            witnesses=[{"error": str(exc)}], passed=False)
        return _emit(report, [claim], args)
    # the depth comes from the braid letters; the longitude word is built
    # only for its length and spelling.  Both are memoised in the artin
    # module: the word action per braid and the depth's series fold per
    # (braid, depth), so the other strands of this braid reuse them
    depth = longitude_magnus(w, args.strand, args.depth).lowest_degree()
    length = ell.length()
    claim = ClaimReport(
        claim="longitude of a pure braid strand",
        params={"braid": args.braid, "strand": args.strand, "depth_bound": args.depth},
        witnesses=[{"longitude_length": length,
                    "longitude": str(ell) if length <= 200 else "(too long to print)",
                    "depth": depth if depth is not None else f">{args.depth}"}],
        passed=True,
    )
    return _emit(report, [claim], args)


def _cmd_euler(args) -> int:
    orbifold, kernel = euler_characteristics(args.n)
    claim = ClaimReport(
        claim="orbifold and kernel Euler characteristics",
        params={"n": args.n},
        witnesses=[{"orbifold": str(orbifold), "kernel_surface": str(kernel)}],
        passed=True,
    )
    return _emit({"command": "euler", "parameters": {"n": args.n},
                  "orbifold": str(orbifold), "kernel_surface": str(kernel)},
                 [claim], args)


def _cmd_f(args) -> int:
    value = surface_free_bound(args.n)
    claim = ClaimReport(
        claim="free-generator count bound for the kernel surface group",
        params={"n": args.n},
        witnesses=[{"f": str(value)}],
        passed=True,
    )
    return _emit({"command": "f", "parameters": {"n": args.n}, "f": str(value)},
                 [claim], args)


# ---------------------------------------------------------------------------

# built once, on first use: parsing leaves the parser unchanged
@cache
def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand parse from clobbering flags given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--strict", action="store_true", default=argparse.SUPPRESS,
                        help="flagged claims fail the run")
    common.add_argument("--timestamps", action="store_true", default=argparse.SUPPRESS,
                        help="include a timestamp in the report")
    parser = argparse.ArgumentParser(
        prog="burau-forge",
        description="exact verification of the 3-strand Burau image at roots of unity",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("classify", help="image type for a parameter of given order")
    # the order is the conductor of the field tables, as for certify-free
    p.add_argument("--order", type=_int_in(1, MAX_CERT_CONDUCTOR), required=True,
                   help=f"multiplicative order of q, 1..{MAX_CERT_CONDUCTOR}; matrices are "
                        "evaluated at -q, and the image is finite exactly for orders 1..6")
    p.set_defaults(func=_cmd_classify)

    p = add_parser("verify", help="run a verification suite over a range")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--range", type=_parse_range, required=True,
                   help="inclusive, e.g. 4..24 (k for even/odd/oddlem, n or r otherwise); "
                        f"the end is at most {MAX_RANGE_END}")
    p.set_defaults(func=_cmd_verify)

    # a level p works in conductors up to 2p, which stays within 1024
    level = _int_in(3, MAX_CERT_CONDUCTOR // 2)
    p = add_parser("params", help="quantum parameter record for a level")
    p.add_argument("--p", type=level, required=True)
    p.set_defaults(func=_cmd_params)

    p = add_parser("twist-order", help="projective order of the twist image")
    p.add_argument("--p", type=level, required=True)
    p.set_defaults(func=_cmd_twist_order)

    p = add_parser("certify-free",
                   help="relation oracle and optional table-tennis certificate")
    # the order sets the conductor of q, which verify-cert bounds
    p.add_argument("--order", type=_int_in(1, MAX_CERT_CONDUCTOR), required=True,
                   help=f"order of the parameter root of unity, 1..{MAX_CERT_CONDUCTOR}")
    p.add_argument("--x", required=True, help="word over A, B, e.g. 'A B A^-1 B^-1'")
    p.add_argument("--y", required=True, help="the second word over A, B")
    p.add_argument("--max-len", type=_int_in(1, MAX_ORACLE_LEN), required=True)
    p.add_argument("--pingpong", action="store_true")
    defaults = PingPongConfig()
    p.add_argument("--max-power", type=_int_in(1, MAX_CERT_POWER), default=defaults.max_power,
                   help=f"largest power of x and y that the search tries, 1..{MAX_CERT_POWER} "
                        "(default %(default)s)")
    # the search may double the precision once, and every certificate it
    # writes must stay within what verify-cert accepts
    p.add_argument("--precision", type=_int_in(1, MAX_CERT_PRECISION // 2),
                   default=defaults.precision,
                   help=f"ball precision of the search in bits, 1..{MAX_CERT_PRECISION // 2} "
                        "(default %(default)s); the search may double it once")
    p.add_argument("--cert-out", help="write the certificate JSON to this path")
    p.set_defaults(func=_cmd_certify_free)

    p = add_parser("verify-cert", help="re-verify a stored certificate")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_verify_cert)

    p = add_parser("artin", help="longitude and depth certificate for a pure braid")
    p.add_argument("--braid", required=True, help="word over g1, g2, e.g. 'g1^2 g2^-2'")
    p.add_argument("--strand", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--depth", type=_int_in(1, MAX_MAGNUS_DEPTH), required=True,
                   help=f"expansion truncation degree, 1..{MAX_MAGNUS_DEPTH}")
    p.set_defaults(func=_cmd_artin)

    p = add_parser("euler", help="Euler characteristics for the (2,3,n) data")
    p.add_argument("--n", type=_int_in(None, MAX_MODULUS), required=True)
    p.set_defaults(func=_cmd_euler)

    p = add_parser("f", help="free-generator count bound")
    p.add_argument("--n", type=_int_in(None, MAX_MODULUS), required=True)
    p.set_defaults(func=_cmd_f)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.13 reads "--order=--" as an empty list,
    # past the option's type; no option here takes a list
    if any(isinstance(v, list) for v in vars(args).values()):
        parser.error("an option value may not be '--'")
    try:
        return args.func(args)
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, WordTooLong, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
