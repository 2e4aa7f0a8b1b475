"""Claim records shared by the verification suites and the CLI, and the
one JSON writer that prints every report and certificate file.

``dumps(obj)`` returns ``json.dumps(obj, indent=2, default=str)`` byte for
byte.  With an indent the stdlib encodes through its pure-Python
generator chain; ``dumps`` appends to one list and joins once, encodes
strings with the C ``encode_basestring_ascii`` and prints a list of
strings, such as the coefficients of a ``CyclotomicNumber``, as one join.
``json.dumps`` stays its test oracle.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode

__all__ = ["ClaimReport", "claim_status", "dumps", "overall_status"]


class ClaimReport:
    __slots__ = ("claim", "params", "witnesses", "passed", "flagged", "note", "scalars")

    def __init__(self, claim: str, params: dict, witnesses: list, passed: bool,
                 flagged: bool = False, note: str = "", scalars: tuple = ()):
        self.claim = claim
        self.params = params
        self.witnesses = witnesses
        self.passed = passed
        self.flagged = flagged
        self.note = note
        # on an evaluated claim, the exact value behind each witness's
        # printed "value" (None where it has none), in witness order, from
        # which the claims at the Galois-conjugate parameters are derived;
        # not part of the report, nor of equality
        self.scalars = scalars

    def __eq__(self, other):
        return (isinstance(other, ClaimReport) and self.claim == other.claim
                and self.params == other.params and self.witnesses == other.witnesses
                and self.passed == other.passed and self.flagged == other.flagged
                and self.note == other.note)

    def as_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "witnesses": self.witnesses,
            "pass": self.passed,
            "status": claim_status(self),
        }
        if self.note:
            out["note"] = self.note
        return out


def claim_status(claim: ClaimReport) -> str:
    if claim.flagged:
        return "flagged"
    return "pass" if claim.passed else "fail"


def overall_status(claims: list[ClaimReport], strict: bool = False) -> str:
    for c in claims:
        if not c.passed and (strict or not c.flagged):
            return "fail"
    return "pass"


# ---------------------------------------------------------------------------
# the report writer

_LITERALS = {None: "null", True: "true", False: "false"}


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, default=str)``, byte for byte."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(o, newline: str, out: list[str]) -> None:
    # append the JSON text of o to out; newline is "\n" and the indent of
    # the line o starts on, so a value can be written at any depth.  The
    # exact types a report holds come first; the rest follow the branch
    # order of json.encoder._make_iterencode.
    t = type(o)
    if t is str:
        out.append(_encode(o))
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                if k is not None and not isinstance(k, (int, float)):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {k.__class__.__name__}")
                k = json.dumps(k)
            out.append(sep + _encode(k) + ": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif t is list:
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        if type(o[0]) is str and all(type(v) is str for v in o):
            out.append("[" + inner + ("," + inner).join(map(_encode, o)) + newline + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif t is int:
        out.append(int.__repr__(o))
    elif t is bool or o is None:
        out.append(_LITERALS[o])
    elif isinstance(o, str):
        out.append(_encode(o))
    elif isinstance(o, (int, float)):
        # floats and int subclasses; json.dumps prints NaN and the infinities
        out.append(json.dumps(o))
    elif isinstance(o, (list, tuple)):
        _write(list(o), newline, out)
    elif isinstance(o, dict):
        _write(dict(o.items()), newline, out)
    else:
        # what default=str does
        out.append(_encode(str(o)))
