from burauforge.reports import ClaimReport, claim_status, overall_status


def make(passed, flagged=False):
    return ClaimReport(claim="c", params={}, witnesses=[], passed=passed, flagged=flagged)


def test_claim_status():
    assert claim_status(make(True)) == "pass"
    assert claim_status(make(False)) == "fail"
    assert claim_status(make(False, flagged=True)) == "flagged"
    assert claim_status(make(True, flagged=True)) == "flagged"


def test_overall_status_flag_semantics():
    claims = [make(True), make(False, flagged=True)]
    assert overall_status(claims) == "pass"
    assert overall_status(claims, strict=True) == "fail"
    assert overall_status([make(True), make(False)]) == "fail"
    assert overall_status([]) == "pass"

