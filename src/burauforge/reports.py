"""Claim records shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ClaimReport", "claim_status", "overall_status"]


@dataclass
class ClaimReport:
    claim: str
    params: dict
    witnesses: list
    passed: bool
    flagged: bool = False
    note: str = ""
    # on an evaluated claim, the exact value behind each witness's printed
    # "value" (None where it has none), in witness order, from which the
    # claims at the Galois-conjugate parameters are derived; not part of
    # the report
    scalars: tuple = field(default=(), repr=False, compare=False)

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

