"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured wall time.  Run with `pytest tests/test_acceptance.py -v -s`.

Everything here is exact arithmetic except the interval-certified
inclusion checks of criterion 11, whose soundness is one-sided by
construction.
"""

import json
import random
import time
from fractions import Fraction

from burauforge.artin import (B3, F3, artin_action, eta_embed, longitude,
                              magnus_depth, magnus_expansion)
from burauforge.burau import CycloMatrix, burau_generator, squared_images
from burauforge.cli import main
from burauforge.cyclotomic import CyclotomicNumber, root_of_unity
from burauforge.hyperbolic import (PAIR_CONTEXT, PingPongCertificate,
                                   invariant_form, ping_pong_certify,
                                   short_relation_oracle, verify_certificate)
from burauforge.modular import (psl_order, psl_order_bruteforce,
                                verify_presentation, verify_st_kernel)
from burauforge.quantum import build_params, twist_projective_order
from burauforge.triangle import (euler_characteristics, primitive_roots,
                                 surface_free_bound, verify_commutator_relator,
                                 verify_even, verify_kernel_words, verify_odd,
                                 verify_odd_embedding)
from burauforge.words import generator, iterated_bracket, parse_word, word
from test_burau import SEVEN_RATIONALS, generator_products


class _Timer:
    def __init__(self, label, budget=None):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        budget = f" (budget {self.budget:g}s)" if self.budget else ""
        print(f"ACCEPTANCE {status} [{elapsed:6.2f}s{budget}] {self.label}")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, f"{self.label}: {elapsed:.2f}s over budget"
        return False


def test_criterion_01_burau_base_case():
    with _Timer("1. generator matrices and closed forms", budget=1.0):
        q = root_of_unity(13, 1)
        one = CyclotomicNumber.from_rational(1)
        zero = CyclotomicNumber.from_rational(0)
        g1 = burau_generator(3, 1, q)
        assert g1.rows == CycloMatrix([[-q, one], [zero, one]]).rows
        g2 = burau_generator(3, 2, q)
        assert g2.rows == CycloMatrix([[one, zero], [q, -q]]).rows
        m = burau_generator(4, 2, q)
        assert m.rows == CycloMatrix([[one, zero, zero],
                                      [q, -q, one],
                                      [zero, zero, one]]).rows
        assert burau_generator(4, 1, q).rows == CycloMatrix(
            [[-q, one, zero], [zero, one, zero], [zero, zero, one]]).rows
        assert burau_generator(4, 3, q).rows == CycloMatrix(
            [[one, zero, zero], [zero, one, zero], [zero, q, -q]]).rows
        rng = random.Random(2024)
        seen = 0
        while seen < 20:
            m_ = rng.randint(3, 40)
            j = rng.randint(1, m_ - 1)
            qq = root_of_unity(m_, j)
            if qq == -1:
                continue
            assert squared_images(qq) == generator_products(qq)
            seen += 1
        for qq in SEVEN_RATIONALS:  # the degree bound: see test_burau
            assert squared_images(qq) == generator_products(qq)


def test_criterion_02_even_presentation():
    with _Timer("2. even case k in 4..24, all primitive roots", budget=30.0):
        for k in range(4, 25):
            for q in primitive_roots(2 * k):
                assert verify_even(k, q).passed, (k, str(q))


def test_criterion_03_odd_presentation():
    with _Timer("3. odd case k in 3..15, all primitive roots", budget=30.0):
        for k in range(3, 16):
            for q in primitive_roots(2 * k + 1):
                assert verify_odd(k, q).passed, (k, str(q))


def test_criterion_04_odd_embedding():
    with _Timer("4. median-triangle generators k in 3..15", budget=30.0):
        for k in range(3, 16):
            for q in primitive_roots(2 * k + 1):
                assert verify_odd_embedding(k, q).passed, (k, str(q))


def test_criterion_05_kernel_words():
    with _Timer("5. kernel normal generators n in 3..30 (+ flagged n=2)"):
        for n in range(3, 31):
            if n == 6:
                continue
            for q in primitive_roots(n):
                assert verify_kernel_words(n, q).passed, (n, str(q))
        rep = verify_kernel_words(2, root_of_unity(2, 1))
        assert rep.flagged and rep.passed


def test_criterion_06_one_relator():
    with _Timer("6. commutator relator identity r in 2..50", budget=5.0):
        for r in range(2, 51):
            assert verify_commutator_relator(r).passed, r


def test_criterion_07_quantum_parameters():
    with _Timer("7. quantum parameter orders and twist orders, p <= 64"):
        for p in range(3, 65):
            if p % 4 == 2:
                continue
            params = build_params(p)
            expected = p if p % 2 == 0 else 2 * p
            assert params.a_root.multiplicative_order() == expected, p
            assert params.burau_parameter.multiplicative_order() == 2 * params.half_order, p
        for p in range(5, 65):
            if p % 4 == 2:
                continue
            value, rep = twist_projective_order(p)
            assert rep.passed or rep.flagged, p
            assert value == p, (p, value)


def test_criterion_08_characteristics_and_orders():
    with _Timer("8. f(7), prime closed form, kernel characteristic, group orders"):
        assert surface_free_bound(7) == 4
        assert Fraction((7 + 1) * (7 - 1) * (7 - 6), 12) == 4
        for n in range(7, 51, 2):
            if all(n % d for d in range(2, n)):
                assert surface_free_bound(n) == Fraction((n + 1) * (n - 1) * (n - 6), 12), n
        assert euler_characteristics(7)[1] == -4
        for n in range(3, 14):
            assert psl_order(n) == psl_order_bruteforce(n), n


def test_criterion_09_st_kernel_and_presentation():
    with _Timer("9. kernel membership and presentation relators, odd n in 7..31",
                budget=10.0):
        for n in range(7, 32, 2):
            assert verify_st_kernel(n).passed, n
            assert verify_presentation(n).passed, n


X_WORD_TEXT = "A B A^-1 B^-1"
Y_WORD_TEXT = "A^2 B A^-2 B^-1"


def test_criterion_10_freeness_oracle():
    with _Timer("10. relation oracle: clear at order 14, witness at finite image",
                budget=60.0):
        x = parse_word(PAIR_CONTEXT, X_WORD_TEXT)
        y = parse_word(PAIR_CONTEXT, Y_WORD_TEXT)
        q14 = root_of_unity(14, 1)
        assert short_relation_oracle(x, y, q14, 6) is None
        q5 = root_of_unity(5, 1)  # finite image: substituted parameter has order 10
        witness = short_relation_oracle(x, y, q5, 20)
        assert witness is not None and witness.length() <= 20


def test_criterion_11_ping_pong():
    with _Timer("11. certificate produced, re-verified, tamper rejected", budget=120.0):
        x = parse_word(PAIR_CONTEXT, X_WORD_TEXT)
        y = parse_word(PAIR_CONTEXT, Y_WORD_TEXT)
        q14 = root_of_unity(14, 1)
        embedding = next(j for j in range(1, 14)
                         if invariant_form(q14, j) is not None
                         and invariant_form(q14, j).signature == "indefinite")
        cert = ping_pong_certify(x, y, q14, embedding)
        assert cert is not None
        assert cert.power_x <= 4 and cert.power_y <= 4 and cert.margin > 0
        assert verify_certificate(cert)
        data = json.loads(json.dumps(cert.to_json()))
        assert verify_certificate(PingPongCertificate.from_json(data))
        tampered = dict(cert.arcs)
        s, e = tampered["y_att"]
        tampered["y_att"] = ((s + Fraction(3, 10)) % 1, (e + Fraction(3, 10)) % 1)
        bad = PingPongCertificate(q=cert.q, embedding=cert.embedding,
                                  x_word=cert.x_word, y_word=cert.y_word,
                                  power_x=cert.power_x, power_y=cert.power_y,
                                  arcs=tampered, margin=cert.margin,
                                  precision=cert.precision)
        assert not verify_certificate(bad)


def test_criterion_12_artin_magnus():
    with _Timer("12. Artin action, bracket depths, multiplicativity, depth doubling",
                budget=60.0):
        rng = random.Random(97)
        g1 = generator(B3, "g1")
        g2 = generator(B3, "g2")

        assert artin_action(g1 * g2 * g1) == artin_action(g2 * g1 * g2)

        def rand_pb_word(n):
            return word(B3, [(rng.randint(0, 1), rng.choice((-2, 2)))
                             for _ in range(n)])

        # 100 bracket instances of depth k <= 4; the k=4 instance is the
        # expensive canonical one, lighter random draws cover k in {2, 3}
        instances = [(iterated_bracket(g1 ** 2, g2 ** 2, 4), 4)]
        while len(instances) < 100:
            k = rng.choice((2, 2, 2, 3, 3))
            u = rand_pb_word(rng.randint(1, 2))
            v = rand_pb_word(rng.randint(1, 2))
            instances.append((iterated_bracket(u, v, k), k))
        for w, k in instances:
            strand = rng.randint(1, 3)
            assert magnus_depth(longitude(w, strand), k - 1) is None, (str(w), k)

        for _ in range(200):
            u = word(F3, [(rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(4)])
            v = word(F3, [(rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(4)])
            d = rng.randint(1, 4)
            assert magnus_expansion(u * v, d) == magnus_expansion(u, d) * magnus_expansion(v, d)

        checked = 0
        while checked < 100:
            w = word(F3, [(rng.randint(0, 2), rng.choice((-1, 1)))
                          for _ in range(rng.randint(1, 4))])
            if w.is_identity:
                continue
            d = magnus_depth(w, 3)
            if d is None:
                continue
            assert magnus_depth(eta_embed(w), 2 * d - 1) is None
            checked += 1


def test_criterion_13_kernel_sweep_to_order_200(capsys):
    # one evaluation per order; every other primitive root's claim is
    # derived by the Galois action
    with _Timer("13. kernel normal generators n in 3..200, all primitive roots",
                budget=10.0):
        assert main(["verify", "--suite", "kernel", "--range", "3..200"]) == 0
    captured = capsys.readouterr()
    assert captured.err.endswith("overall: pass\n")
    assert captured.err.count("[pass   ]") == sum(
        len(primitive_roots(n)) for n in range(3, 201) if n != 6)


def test_criterion_14_oracle_at_the_longest_length_bound(capsys):
    # the search runs on residues modulo a split prime: 4 * 3^9 words on
    # the last level, with exact products only for candidate relations
    with _Timer("14. relation oracle at order 7, words up to the length bound 10",
                budget=2.0):
        assert main(["certify-free", "--order", "7", "--x", X_WORD_TEXT,
                     "--y", Y_WORD_TEXT, "--max-len", "10"]) == 0
    assert capsys.readouterr().err.endswith("overall: pass\n")


def test_criterion_15_dichotomy_pair_at_conductor_1021(capsys):
    # products at conductor 1021 go through one routine, by Kronecker
    # substitution for dense factors, and reduce through sparse rows
    with _Timer("15. certify-free with a certificate at order 1021", budget=5.0):
        assert main(["certify-free", "--order", "1021", "--x", X_WORD_TEXT,
                     "--y", Y_WORD_TEXT, "--max-len", "4", "--pingpong",
                     "--precision", "32"]) == 0
    assert capsys.readouterr().err.endswith("overall: pass\n")


def test_criterion_16_ineligible_search_fails_fast_on_a_long_word(capsys):
    # the torsion guard is the one-letter scalar search on residues, so a
    # 2400-letter generator costs no exact powers before the search
    long_x = " ".join([X_WORD_TEXT] * 600)
    with _Timer("16. certify-free on a 2400-letter x exits 3 quickly", budget=1.5):
        assert main(["certify-free", "--order", "7", "--x", long_x, "--y", Y_WORD_TEXT,
                     "--max-len", "1", "--pingpong", "--max-power", "1",
                     "--precision", "32"]) == 3
        captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precision exhausted: inclusions undecided at the configured precision\n"
