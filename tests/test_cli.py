import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burauforge.cli import MAX_RANGE_END, SUITES, build_parser, main
from burauforge.cyclotomic import root_of_unity
from burauforge.hyperbolic import (MAX_CERT_TEXT, PAIR_CONTEXT, PingPongCertificate,
                                   PingPongConfig, ping_pong_certify)
from burauforge.words import iterated_bracket, parse_word
from test_hyperbolic import clear_exact_memos


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_classify(capsys):
    code, report, _ = run_cli(capsys, "classify", "--order", "10")
    assert code == 0
    cls = report["claims"][0]["witnesses"][0]
    assert cls["triangle"] == [5, 5, 5]
    code, report, _ = run_cli(capsys, "classify", "--order", "5")
    assert report["claims"][0]["witnesses"][0]["case"] == "finite-image"


def test_f_and_euler(capsys):
    code, report, _ = run_cli(capsys, "f", "--n", "7")
    assert code == 0 and report["f"] == "4"
    code, report, _ = run_cli(capsys, "euler", "--n", "7")
    assert code == 0
    assert report["orbifold"] == "-1/42" and report["kernel_surface"] == "-4"


def test_f_invalid_exit_2(capsys):
    code = main(["f", "--n", "8"])
    capsys.readouterr()
    assert code == 2


def test_verify_onerel(capsys):
    code, report, _ = run_cli(capsys, "verify", "--suite", "onerel", "--range", "2..12")
    assert code == 0 and report["overall"] == "pass"
    assert len(report["claims"]) == 11


def test_verify_even_small(capsys):
    code, report, _ = run_cli(capsys, "verify", "--suite", "even", "--range", "4..6")
    assert code == 0 and all(c["pass"] for c in report["claims"])


def test_verify_onerel_full_range(capsys):
    code, report, _ = run_cli(capsys, "verify", "--suite", "onerel", "--range", "2..50")
    assert code == 0 and report["overall"] == "pass"
    assert len(report["claims"]) == 49


def test_verify_kernel_includes_flagged_n2(capsys):
    code, report, _ = run_cli(capsys, "verify", "--suite", "kernel", "--range", "2..5")
    assert code == 0
    statuses = {c["params"]["n"]: c["status"] for c in report["claims"]}
    assert statuses[2] == "flagged"
    assert statuses[3] == "pass"


@pytest.mark.parametrize("suite, text, key, expected", [
    ("kernel", "1..7", "n", [2, 3, 4, 5, 7]),   # no claims for n = 1 or 6
    ("psl", "10..20", "n", [10, 11, 12, 13]),   # enumeration capped at 13
    ("st", "8..12", "n", [9, 11]),              # odd n >= 7 only
    ("even", "0..3", "k", [2, 3]),              # k starts at 2
])
def test_verify_range_edges(capsys, suite, text, key, expected):
    code, report, _ = run_cli(capsys, "verify", "--suite", suite, "--range", text)
    assert code == 0
    assert list(dict.fromkeys(c["params"][key] for c in report["claims"])) == expected


def test_params(capsys):
    code, report, _ = run_cli(capsys, "params", "--p", "12")
    assert code == 0
    assert report["params"]["half_order"] == "3"
    assert report["params"]["burau_parameter_order"] == 6


def test_twist_order_flagged_vs_strict(capsys):
    code, report, _ = run_cli(capsys, "twist-order", "--p", "4")
    assert code == 0 and report["claims"][0]["status"] == "flagged"
    code, report, _ = run_cli(capsys, "twist-order", "--p", "4", "--strict")
    assert code == 1


def test_certify_free_dependent_pair_fails(capsys):
    code, report, _ = run_cli(capsys, "certify-free", "--order", "14",
                              "--x", "A", "--y", "A^2", "--max-len", "3")
    assert code == 1
    assert report["claims"][0]["witnesses"][0]["relation"] == "x^2 y^-1"


def test_certify_free_clear(capsys):
    code, report, _ = run_cli(capsys, "certify-free", "--order", "14",
                              "--x", "A B A^-1 B^-1", "--y", "A^2 B A^-2 B^-1",
                              "--max-len", "4")
    assert code == 0 and report["overall"] == "pass"


def test_certify_free_pingpong_and_verify_cert(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, report, _ = run_cli(capsys, "certify-free", "--order", "14",
                              "--x", "A B A^-1 B^-1", "--y", "A^2 B A^-2 B^-1",
                              "--max-len", "2", "--pingpong",
                              "--cert-out", str(cert_path))
    assert code == 0
    assert "certificate" in report
    code, report, _ = run_cli(capsys, "verify-cert", "--file", str(cert_path))
    assert code == 0 and report["overall"] == "pass"


@pytest.fixture(scope="module")
def cert_json():
    x = parse_word(PAIR_CONTEXT, "A B A^-1 B^-1")
    y = parse_word(PAIR_CONTEXT, "A^2 B A^-2 B^-1")
    cert = ping_pong_certify(x, y, root_of_unity(14, 1), 1, PingPongConfig(precision=32))
    return json.dumps(cert.to_json())


def _with(**fields):
    return lambda data: {**data, **fields}


def _with_arc(name, ends):
    return lambda data: {**data, "arcs": {**data["arcs"], name: ends}}


def _without(key):
    return lambda data: {k: v for k, v in data.items() if k != key}


def _swap_attracting(data):
    arcs = dict(data["arcs"])
    arcs["x_att"], arcs["y_att"] = arcs["y_att"], arcs["x_att"]
    return {**data, "arcs": arcs}


@pytest.mark.parametrize("edit, expected", [
    (lambda data: "{", 2),
    (lambda data: "[" * 100000 + "]" * 100000, 2),
    (lambda data: [1, 2], 2),
    (lambda data: {"q": {"conductor": 14}, "embedding": 1}, 2),
    (_with(q={"conductor": 14}), 2),
    (_with(q={"conductor": 7, "coeffs": ["1", "2"]}), 2),
    (_with(q={"conductor": 10 ** 15, "coeffs": []}), 2),
    (_without("margin"), 2),
    (_with(embedding="1"), 2),
    (_with(embedding=7), 2),          # not coprime to the conductor 7
    (_with(power_x=True), 2),
    (_with(power_y=0), 2),
    (_with(power_y=65), 2),
    (_with(margin=0.5), 2),
    (_with(margin="1e999999999"), 2),
    (_with(margin="1/" + "3" * 300), 2),   # longer than a rational may be
    (_with_arc("z_att", ["0", "1/2"]), 2),
    (lambda data: {**data, "arcs": {k: v for k, v in data["arcs"].items()
                                    if k != "y_rep"}}, 2),
    (_with_arc("x_att", ["1", "1/2"]), 2),
    (_with_arc("x_att", ["-1/2", "1/2"]), 2),
    (_with_arc("x_att", ["1/0", "1/2"]), 2),
    (_with_arc("x_att", ["0", "1/4", "1/2"]), 2),
    (_with(precision=0), 2),
    (_with(precision=32.0), 2),
    (_with(precision=10 ** 12), 2),   # rejected before any arithmetic
    (_swap_attracting, 1),            # well-formed, fails the ball inclusions
    (_with(margin="1/65536"), 1),     # well-formed, wrong margin
    (lambda data: data, 0),
])
def test_verify_cert_input(capsys, tmp_path, cert_json, edit, expected):
    _check_verify_cert(capsys, tmp_path, cert_json, edit, expected)


def _check_verify_cert(capsys, tmp_path, cert_json, edit, expected):
    path = tmp_path / "cert.json"
    edited = edit(json.loads(cert_json))
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    code, report, err = run_cli(capsys, "verify-cert", "--file", str(path))
    assert code == expected
    if expected == 2:
        assert report is None
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert report["overall"] == ("pass" if expected == 0 else "fail")


_COMMUTATORS_50 = " ".join(["A B A^-1 B^-1"] * 50)


@pytest.mark.parametrize("edit, expected", [
    (_with(x_word="C"), 2),
    (_with(x_word="A^4097"), 2),                     # more than MAX_CERT_LETTERS
    (_with(y_word="B^-1025", power_y=4), 2),
    (_with(x_word=_COMMUTATORS_50, power_x=64), 2),  # 12,800 letters
    (_with(y_word="B" + " " * 40000), 2),            # too long to parse
    (_with(x_word=_COMMUTATORS_50), 1),              # within bounds, fails the inclusions
], ids=["unknown-letter", "letters", "letters-times-power", "long-word-power-64",
        "long-text", "long-word-power-1"])
def test_verify_cert_bounds_word_letters(capsys, tmp_path, cert_json, edit, expected):
    # letters times power is checked before any arithmetic
    _check_verify_cert(capsys, tmp_path, cert_json, edit, expected)


GOLDEN = Path(__file__).parent / "golden"


def test_verify_cert_refuses_a_long_file_before_parsing_it(capsys, tmp_path, cert_json):
    # 3,000,000 coefficients at conductor 7 fill 15 MB: json would build
    # every string, and each would be parsed as a Fraction, before the
    # count is checked
    coeffs = ", ".join(['"0"'] * 3_000_000)
    text = json.dumps({**json.loads(cert_json), "q": {"conductor": 7, "coeffs": []}})
    path = tmp_path / "cert.json"
    path.write_text(text.replace('"coeffs": []', f'"coeffs": [{coeffs}]'))
    assert path.stat().st_size > 15_000_000
    start = time.perf_counter()
    code, report, err = run_cli(capsys, "verify-cert", "--file", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and report is None
    assert err == f"error: certificate file is longer than {MAX_CERT_TEXT} characters\n"


def test_coefficient_count_is_checked_before_any_coefficient(cert_json):
    # none of these is a rational string: the count is what is refused
    data = {**json.loads(cert_json), "q": {"conductor": 7, "coeffs": ["x"] * 3_000_000}}
    with pytest.raises(ValueError, match=r"must have phi\(7\) = 6 coefficients"):
        PingPongCertificate.from_json(data)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("certify_free_*.json")))
def test_stored_certificates_load(tmp_path, name):
    # each golden certificate, written as --cert-out writes it, stays
    # within every bound on certificate input
    cert = json.loads((GOLDEN / name).read_text())["certificate"]
    path = tmp_path / "cert.json"
    PingPongCertificate.from_json(cert).dump(str(path))
    assert len(path.read_text()) < MAX_CERT_TEXT
    assert PingPongCertificate.load(str(path)).to_json() == cert


# the goldens at orders other than 14 were recorded from the program
# before the balls held integer mantissas: a kernel that changed an
# inclusion decision or a precision escalation would change a certificate.
# Each is replayed with the exact-data memos cleared, then warm
@pytest.mark.parametrize("order", [7, 8, 11, 14, 20, 30])
def test_certify_free_and_verify_cert_golden(capsys, tmp_path, monkeypatch, order):
    # stdout of the freeness path, byte for byte; the certificate files are
    # named relative to the working directory, as the reports echo them
    monkeypatch.chdir(tmp_path)

    def check(argv, expected, golden):
        assert main(argv) == expected
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    clear_exact_memos()
    for _ in ("cold", "warm"):
        check(["certify-free", "--order", str(order), "--x", "A B A^-1 B^-1",
               "--y", "A^2 B A^-2 B^-1", "--max-len", "6", "--pingpong",
               "--precision", "32", "--cert-out", "cert.json"], 0, f"certify_free_{order}.json")
        check(["verify-cert", "--file", "cert.json"], 0, f"verify_cert_{order}.json")
        swapped = _swap_attracting(json.loads(Path("cert.json").read_text()))
        Path("swapped.json").write_text(json.dumps(swapped))
        check(["verify-cert", "--file", "swapped.json"], 1,
              f"verify_cert_{order}_swapped.json")


# recorded from the program before a cyclotomic number's embedding was one
# integer dot product; conductors 509 and 1021 have the most terms per entry
@pytest.mark.parametrize("order", [509, 1021])
def test_certify_free_golden_at_large_conductors(capsys, order):
    clear_exact_memos()
    for _ in ("cold", "warm"):
        assert main(["certify-free", "--order", str(order), "--x", "A B A^-1 B^-1",
                     "--y", "A^2 B A^-2 B^-1", "--max-len", "2", "--pingpong",
                     "--precision", "32"]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"certify_free_{order}.json").read_text()


# the second claim at orders where the form search ends early, recorded
# from the program before the invariant form was given in closed form:
# order 6 has no indefinite form at any embedding, and at order 2 (q = -1,
# where A = B = I) the form at embedding 1 is indefinite but x is
# projectively trivial.  At order 1 (q = 1) the form is indefinite too, and
# the pair is ineligible because the form's circle has no chart
_NO_FORM = {"claim": "an indefinite invariant form exists at some embedding",
            "witnesses": [], "pass": False, "status": "fail"}
_NO_TABLE_TENNIS = {"claim": "table-tennis certificate found and independently re-verified",
                    "params": {"embedding": 1, "max_power": 4, "precision": 96},
                    "pass": False, "status": "fail"}


@pytest.mark.parametrize("order, second", [
    (1, {**_NO_TABLE_TENNIS, "witnesses": [{"reason": "circle chart degenerate: J11 = 0"}]}),
    (2, {**_NO_TABLE_TENNIS, "witnesses": [{"reason": "generator x is projectively trivial"}]}),
    (6, {**_NO_FORM, "params": {"order": 6}}),
])
def test_certify_free_degenerate_orders(capsys, order, second):
    code, report, _ = run_cli(capsys, "certify-free", "--order", str(order),
                              "--x", "A B A^-1 B^-1", "--y", "A^2 B A^-2 B^-1",
                              "--max-len", "2", "--pingpong")
    assert code == 1
    assert report["claims"][1] == second


def test_certify_free_deep_pair_has_no_traceback(capsys):
    # x^a and y^b have entries so large that a*d - b*c cancels to zero in
    # floats; the search takes their exact determinants instead
    a, b = (parse_word(PAIR_CONTEXT, g) for g in ("A", "B"))
    code = main(["certify-free", "--order", "11",
                 "--x", str(iterated_bracket(a, b, 6)), "--y", str(iterated_bracket(b, a, 6)),
                 "--max-len", "2", "--pingpong"])
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize("copies", [300, 600])
def test_certify_free_long_word_does_not_overflow_the_float_search(capsys, copies):
    # entries of x past 2^1024 overflowed the float conversion (600 copies)
    # or turned the float data to NaN (300 copies); the search scales them
    code, report, err = run_cli(capsys, "certify-free", "--order", "7",
                                "--x", " ".join(["A B A^-1 B^-1"] * copies),
                                "--y", "A^2 B A^-2 B^-1", "--max-len", "1", "--pingpong",
                                "--max-power", "1", "--precision", "32")
    assert code in (0, 1, 3)
    assert "Traceback" not in err and "NaN" not in err
    assert report is None or "NaN" not in json.dumps(report)


def test_artin_command(capsys):
    code, report, _ = run_cli(capsys, "artin", "--braid", "g1^2 g2^2 g1^-2 g2^-2",
                              "--strand", "1", "--depth", "1")
    assert code == 0
    assert report["claims"][0]["witnesses"][0]["depth"] == ">1"
    code, report, _ = run_cli(capsys, "artin", "--braid", "g1", "--strand", "1",
                              "--depth", "2")
    assert code == 1  # not a pure braid


_CERTIFY = ["certify-free", "--order", "14", "--x", "A", "--y", "B", "--max-len", "2",
            "--pingpong"]


@pytest.mark.parametrize("argv", [
    ["artin", "--braid", "g1^2", "--strand", "4", "--depth", "1"],
    ["artin", "--braid", "g1^2", "--strand", "0", "--depth", "1"],
    [*_CERTIFY, "--precision", "-5"],
    [*_CERTIFY, "--precision", "0"],
    [*_CERTIFY, "--precision", "513"],
    [*_CERTIFY, "--max-power", "0"],
    [*_CERTIFY, "--max-power", "-2"],
    [*_CERTIFY, "--max-power", "65"],
    # the order is the conductor of q, which verify-cert bounds by 1024
    ["certify-free", "--order", "0", "--x", "A", "--y", "B", "--max-len", "2"],
    ["certify-free", "--order", "1025", "--x", "A", "--y", "B", "--max-len", "2"],
    ["artin", "--braid", "g1^2", "--strand", "1", "--depth", "0"],
    ["artin", "--braid", "g1^2", "--strand", "1", "--depth", "-3"],
    ["artin", "--braid", "g1^2", "--strand", "1", "--depth", "11"],
    ["artin", "--braid", "g1^2", "--strand", "1", "--depth", "30"],
    # the order or level sizes the field tables; a level p needs conductor 2p
    ["classify", "--order", "0"],
    ["classify", "--order", "1025"],
    ["params", "--p", "2"],
    ["params", "--p", "513"],
    ["twist-order", "--p", "2"],
    ["twist-order", "--p", "513"],
    # the oracle's last level has 4 * 3^(L-1) words
    ["certify-free", "--order", "7", "--x", "A", "--y", "B", "--max-len", "0"],
    ["certify-free", "--order", "7", "--x", "A", "--y", "B", "--max-len", "11"],
    # psl_order factors n by trial division
    ["euler", "--n", str(10 ** 12 + 1)],
    ["f", "--n", str(10 ** 12 + 1)],
    # the relation suites grow about cubically in the order
    ["verify", "--suite", "oddlem", "--range", "2..241"],
    ["verify", "--suite", "st", "--range", "241..301"],
    ["verify", "--suite", "kernel", "--range", f"2..{10 ** 9}"],
    # argparse before Python 3.13 reads "=--" as an empty list
    ["classify", "--order=--"],
    ["verify", "--suite=--", "--range=2..3"],
    ["certify-free", "--order", "7", "--x", "A", "--y=--", "--max-len", "1"],
])
def test_out_of_range_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("words", [
    ["--x", "A^4097"],
    ["--x", "A^1025"],                        # times the default --max-power 4
    ["--y", "B^65", "--max-power", "64"],
])
def test_certify_free_rejects_words_past_the_letter_bound(capsys, words):
    # letters times --max-power must stay within what verify-cert accepts
    code, report, err = run_cli(capsys, *_CERTIFY, *words)
    assert code == 2 and report is None
    assert err.startswith("error: ") and "4096" in err and err.count("\n") == 1


@pytest.mark.parametrize("words, code", [
    (["--x", "A^4097"], 2),
    (["--y", " ".join(["A B^-1"] * 2049)], 2),
    (["--x", "A^4096"], 0),                  # --max-power applies only with --pingpong
])
def test_certify_free_bounds_word_letters_without_pingpong(capsys, words, code):
    # the relation oracle evaluates each word exactly, so the bound holds
    # at power 1 on that path too
    argv = ["certify-free", "--order", "14", "--x", "A B", "--y", "B A^-1", "--max-len", "1"]
    got, report, err = run_cli(capsys, *argv, *words)
    assert got == code
    if code == 2:
        assert report is None and err.startswith("error: ") and "4096" in err


def test_option_bounds_are_inclusive():
    # --precision may be doubled once by the search and still be accepted
    # by verify-cert, whose bound is 1024
    args = build_parser().parse_args([*_CERTIFY, "--precision", "512", "--max-power", "64"])
    assert (args.precision, args.max_power) == (512, 64)
    for order in ("1", "1024"):
        args = build_parser().parse_args([*_CERTIFY, "--order", order])
        assert args.order == int(order)
    args = build_parser().parse_args([*_CERTIFY, "--precision", "1", "--max-power", "1"])
    assert (args.precision, args.max_power) == (1, 1)
    for strand in ("1", "2", "3"):
        args = build_parser().parse_args(["artin", "--braid", "g1^2", "--strand", strand,
                                          "--depth", "1"])
        assert args.strand == int(strand)
    for depth in ("1", "10"):
        args = build_parser().parse_args(["artin", "--braid", "g1^2", "--strand", "1",
                                          "--depth", depth])
        assert args.depth == int(depth)
    for order in ("1", "1024"):
        assert build_parser().parse_args(["classify", "--order", order]).order == int(order)
    for cmd in ("params", "twist-order"):
        for level in ("3", "512"):
            assert build_parser().parse_args([cmd, "--p", level]).p == int(level)
    for max_len in ("1", "10"):
        args = build_parser().parse_args(["certify-free", "--order", "7", "--x", "A",
                                          "--y", "B", "--max-len", max_len])
        assert args.max_len == int(max_len)
    for cmd in ("euler", "f"):
        for n in ("-3", "0", str(10 ** 12)):
            assert build_parser().parse_args([cmd, "--n", n]).n == int(n)
    for text, bounds in (("240..240", (240, 240)), ("0..240", (0, 240))):
        args = build_parser().parse_args(["verify", "--suite", "st", "--range", text])
        assert args.range == bounds


@pytest.mark.parametrize("argv, message", [
    (["euler", "--n", "6"], "error: n must be at least 7\n"),
    (["f", "--n", "5"], "error: n must be odd and at least 7\n"),
    (["f", "--n", "-8"], "error: n must be odd and at least 7\n"),
])
def test_lower_bounds_of_n_stay_with_the_command(capsys, argv, message):
    code, report, err = run_cli(capsys, *argv)
    assert (code, report, err) == (2, None, message)


# stdout recorded from the program before its powering, row reduction,
# factoring and reduction-row sums were merged into one routine each; every
# range reaches an edge of its suite's parameter domain
@pytest.mark.parametrize("argv, golden", [
    (["verify", "--suite", "even", "--range", "1..5"], "verify_even.json"),
    (["verify", "--suite", "odd", "--range", "1..4"], "verify_odd.json"),
    (["verify", "--suite", "oddlem", "--range", "1..4"], "verify_oddlem.json"),
    (["verify", "--suite", "kernel", "--range", "5..8"], "verify_kernel.json"),
    (["verify", "--suite", "onerel", "--range", "1..4"], "verify_onerel.json"),
    (["verify", "--suite", "psl", "--range", "12..14"], "verify_psl.json"),
    (["verify", "--suite", "st", "--range", "6..10"], "verify_st.json"),
    (["verify", "--suite", "presentation", "--range", "6..10"], "verify_presentation.json"),
    *[([cmd, "--p", str(p)], f"{cmd.replace('-', '_')}_{p}.json")
      for cmd in ("params", "twist-order") for p in (5, 12, 33)],
    # recorded from the program before the Artin engine moved from flat
    # signed-integer words to syllable words
    *[(["artin", "--braid", "g1^2 g2^2 g1^-2 g2^-2", "--strand", str(s), "--depth", "3"],
       f"artin_commutator_{s}.json") for s in (1, 2, 3)],
    (["artin", "--braid", "g1^4 g2^2 g1^-2 g2^-2 g1^-2 g2^2 g1^2 g2^-2 g1^-2",
      "--strand", "2", "--depth", "2"], "artin_bracket3.json"),
    (["artin", "--braid", "g1", "--strand", "1", "--depth", "2"], "artin_impure.json"),
    (["artin", "--braid", "1", "--strand", "2", "--depth", "2"], "artin_empty.json"),
    # recorded from the program before the depth came from the folded
    # expansion instead of the longitude word
    (["artin", "--braid", "g1^2 g2^2 g1^-2 g2^-2", "--strand", "1", "--depth", "10"],
     "artin_commutator_depth10.json"),
    # recorded from the program before twists and the parameter were read
    # from root_of_unity by exponent arithmetic; they reach conductor 1018
    (["params", "--p", "512"], "params_512.json"),
    (["twist-order", "--p", "509"], "twist_order_509.json"),
    # recorded before the relation claims shared one builder: the flagged
    # order-2 note and the k = 1 words at n = 3 and 4
    (["verify", "--suite", "kernel", "--range", "2..5"], "verify_kernel_2_5.json"),
    # recorded before each one-relator spelling was written out as one
    # syllable list and reduced once
    (["verify", "--suite", "onerel", "--range", "48..50"], "verify_onerel_48_50.json"),
])
def test_reports_golden(capsys, argv, golden):
    text = (GOLDEN / golden).read_text()
    # a failed claim, such as an impure braid's, exits 1
    assert main(argv) == (0 if json.loads(text)["overall"] == "pass" else 1)
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_full_ranges_lie_in_their_domains(name):
    # scripts/run_all_suites.py runs each suite over its full range
    suite = SUITES[name]
    lo, hi = suite.full
    assert lo <= hi <= MAX_RANGE_END
    assert lo in suite.params and hi in suite.params


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--bogus"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    code1, report1, _ = run_cli(capsys, "verify", "--suite", "st", "--range", "7..11")
    out1 = json.dumps(report1, sort_keys=True)
    code2, report2, _ = run_cli(capsys, "verify", "--suite", "st", "--range", "7..11")
    out2 = json.dumps(report2, sort_keys=True)
    assert code1 == code2 == 0 and out1 == out2
    assert "timestamp" not in report1


def test_timestamps_flag(capsys):
    code, report, _ = run_cli(capsys, "f", "--n", "7", "--timestamps")
    assert code == 0 and "timestamp" in report


# ---------------------------------------------------------------------------
# fuzzing: argv drawn from each subcommand's grammar, with malformed values
# mixed in; every command is kept cheap (orders <= 60, short words)

_MALFORMED = st.sampled_from(["", "x", "-1", "0", "1.5", "1e3", str(10 ** 13), "..", "3..",
                              "5..3", "-5..3", "A^", "C", "g4", "g1^", "--", "nan", "A B^x"])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _spelled(names, exponents, max_size):
    return st.lists(st.tuples(st.sampled_from(names), st.sampled_from(exponents)),
                    max_size=max_size).map(
        lambda sylls: " ".join(f"{g}^{e}" if e != 1 else g for g, e in sylls) or "1")


_PAIR_WORD = _spelled(["A", "B"], [1, -1], 6)


def _grammar(root):
    # (flag, values) of each subcommand's required options, then the
    # optional ones after a switch that enables them; the files are those
    # of the fuzz_files fixture, and certificates are written apart
    files = st.sampled_from([str(root / name) for name in _FUZZ_FILES] +
                            [str(root / "missing.json"), str(root)])
    outs = st.sampled_from([str(root / "out.json"), str(root / "no" / "out.json"), str(root)])
    return {
        "classify": [("--order", _ints(1, 60))],
        "verify": [("--suite", st.sampled_from(sorted(SUITES))),
                   ("--range", st.tuples(st.integers(2, 20), st.integers(2, 20)).map(
                       lambda ab: f"{min(ab)}..{max(ab)}"))],
        "params": [("--p", _ints(3, 20))],
        "twist-order": [("--p", _ints(3, 20))],
        "certify-free": [("--order", _ints(1, 60)), ("--x", _PAIR_WORD), ("--y", _PAIR_WORD),
                         ("--max-len", _ints(1, 4)), ("--pingpong", None),
                         ("--max-power", _ints(1, 2)), ("--precision", _ints(8, 64)),
                         ("--cert-out", outs)],
        "verify-cert": [("--file", files)],
        "artin": [("--braid", _spelled(["g1", "g2"], [1, -1, 2, -2, 3, -3, 4, -4], 6)),
                  ("--strand", _ints(1, 3)), ("--depth", _ints(1, 4))],
        "euler": [("--n", _ints(-20, 10 ** 6))],
        "f": [("--n", _ints(-20, 10 ** 6))],
    }


@st.composite
def _argvs(draw, root):
    command, grammar = draw(st.sampled_from(sorted(_grammar(root).items())))
    argv = draw(st.sampled_from([[], ["--strict"], ["--timestamps"]])) + [command]
    # now and then one option is dropped or takes a malformed value; values
    # go after "=" so that one starting with "-" is read as a value
    spoilt = draw(st.sampled_from([None, None, None, *range(len(grammar))]))
    dropped = draw(st.booleans())
    optional = False
    for i, (flag, values) in enumerate(grammar):
        if values is None:  # a switch; the options after it are optional
            if not draw(st.booleans()):
                break
            argv.append(flag)
            optional = True
        elif i == spoilt:
            if not dropped:
                argv.append(f"{flag}={draw(_MALFORMED)}")
        elif not optional or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


_CERT_7 = json.loads((GOLDEN / "certify_free_7.json").read_text())["certificate"]
_FUZZ_FILES = {
    "cert.json": json.dumps(_CERT_7),
    "tampered.json": json.dumps({**_CERT_7, "margin": "1/3"}),
    "short.json": json.dumps({k: v for k, v in _CERT_7.items() if k != "arcs"}),
    "list.json": "[1, 2]",
    "text.json": "not json",
    "deep.json": "[" * 100000,
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _FUZZ_FILES.items():
        (root / name).write_text(text)
    return root


def test_fuzzed_argv_exits_with_a_documented_code(fuzz_files):
    @given(_argvs(fuzz_files))
    @settings(max_examples=300, deadline=None)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
    check()


# sha256 of the stdout of `verify` over each documented full range, and of
# the concatenated stdout of `params` and `twist-order` over the levels of
# the benchmark's sweep, as printed when every relation power was taken by
# square-and-multiply and every twist order by field arithmetic
FULL_RANGE_DIGESTS = {
    ("even", "4..24"): "460f700023305dd44684f7616640da3f2836f44be774d868cc9ddedc50eaef3d",
    ("odd", "3..15"): "30d5d92723ef7ee84cb1ee0f3831da7d89a5e48b9efc4a9f0712c631bafca6e9",
    ("oddlem", "3..15"): "fa71649133827e493b6444b8f09c37488147c60bd42ba5ff8da9b03a0f605ab4",
    ("kernel", "2..40"): "5698177c5e78d4764b42b2b51c3976b5f6264b956f3c64b8432dc41e851d122b",
    ("psl", "3..13"): "be526b6979fa14f18e3388fb509e1a5c2d2d00162085b51f33d88dda210f3433",
}
LEVEL_DIGESTS = {
    ("params", 49): "8fb899ee2285244033e0386d95c1c6be7b5ff8f763d0e66e2a5421957f79ee15",
    ("twist-order", 65): "eaaf3f3d5f5c24dcafb4c5f81eb3ba8f2bfbbaf782549d2755eab3d4b2ab2fc8",
}


@pytest.mark.parametrize("suite, span", sorted(FULL_RANGE_DIGESTS))
def test_full_range_reports_are_byte_identical(capsys, suite, span):
    assert main(["verify", "--suite", suite, "--range", span]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_RANGE_DIGESTS[suite, span]


@pytest.mark.parametrize("command, end", sorted(LEVEL_DIGESTS))
def test_level_reports_are_byte_identical(capsys, command, end):
    digest = hashlib.sha256()
    for p in range(5, end):
        if p % 4 != 2:
            assert main([command, "--p", str(p)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == LEVEL_DIGESTS[command, end]
