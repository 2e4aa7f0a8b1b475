"""Span tracing of burauforge, installed from outside the package.

``Tracer.install`` wraps public functions and methods of burauforge at
every place they are looked up: a name bound with ``from .balls import
embed`` in another module is replaced there too, and a method aliased in
its class (``__rmul__ = __mul__``) is replaced under both names.  Each
call records one span (name, start, end, parent) in flat arrays kept in
memory; ``write_spans`` writes them out and ``layer_metrics`` derives the
per-layer numbers, where a span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute or Class.method, span name); several targets may
# share a span name, which then counts for all of them
SPAN_TARGETS = (
    ("burauforge.cyclotomic", "CyclotomicNumber.__mul__", "cyclotomic.mul"),
    ("burauforge.cyclotomic", "CyclotomicNumber.__add__", "cyclotomic.add"),
    ("burauforge.cyclotomic", "CyclotomicNumber.inverse", "cyclotomic.inverse"),
    ("burauforge.cyclotomic", "CyclotomicNumber.canonical", "cyclotomic.canonical"),
    ("burauforge.burau", "CycloMatrix.__mul__", "burau.matmul"),
    ("burauforge.burau", "CycloMatrix.__pow__", "burau.matpow"),
    ("burauforge.burau", "CycloMatrix.inverse", "burau.matinv"),
    ("burauforge.burau", "squared_images", "burau.squared_images"),
    ("burauforge.balls", "unit_turn", "balls.unit_turn"),
    ("burauforge.balls", "embed", "balls.embed"),
    ("burauforge.words", "word", "words.word"),
    ("burauforge.words", "evaluate_word", "words.evaluate_word"),
    ("burauforge.artin", "artin_action", "artin.action"),
    ("burauforge.artin", "longitude", "artin.longitude"),
    ("burauforge.artin", "magnus_expansion", "artin.magnus"),
    ("burauforge.artin", "eta_embed", "artin.eta"),
    ("burauforge.hyperbolic", "short_relation_oracle", "hyperbolic.oracle"),
    ("burauforge.hyperbolic", "invariant_form", "hyperbolic.invariant_form"),
    ("burauforge.hyperbolic", "ping_pong_certify", "hyperbolic.certify"),
    ("burauforge.hyperbolic", "verify_certificate", "hyperbolic.verify_certificate"),
    ("burauforge.triangle", "verify_even", "triangle.claim"),
    ("burauforge.triangle", "verify_odd", "triangle.claim"),
    ("burauforge.triangle", "verify_odd_embedding", "triangle.claim"),
    ("burauforge.triangle", "verify_kernel_words", "triangle.claim"),
    ("burauforge.triangle", "verify_commutator_relator", "triangle.claim"),
    ("burauforge.modular", "verify_st_kernel", "modular.claim"),
    ("burauforge.modular", "verify_presentation", "modular.claim"),
    ("burauforge.modular", "psl_order", "modular.claim"),
    ("burauforge.modular", "psl_order_bruteforce", "modular.claim"),
    ("burauforge.quantum", "build_params", "quantum.claim"),
    ("burauforge.quantum", "twist_projective_order", "quantum.claim"),
    ("burauforge.quantum", "gamma_at_p", "quantum.claim"),
    ("burauforge.cli", "_emit", "cli.emit"),
)
# euler_phi runs in about a microsecond and is called hundreds of
# thousands of times, so it is counted without a span
COUNT_TARGETS = (
    ("burauforge.cyclotomic", "euler_phi", "cyclotomic.euler_phi"),
)
JOB_SPAN = "job"

# Per-layer metrics: (name, unit, better, end-to-end metrics it should
# move, workloads on which it should move them).  A *_self_s metric is
# self time, a plain *_s metric total time including child spans.  Rates
# divide by total time: letters of the images artin_action returned (a
# cached call returns them almost free), syllables of the words
# magnus_expansion read, and matrix products made under the oracle.
LAYER_METRICS = (
    ("cyclotomic.mul_calls", "count", "lower", "wall_s job_s_p50 job_s_p90", "sweep freeness"),
    ("cyclotomic.mul_self_s", "s", "lower", "wall_s job_s_p50 job_s_p90", "sweep freeness"),
    ("cyclotomic.add_calls", "count", "lower", "wall_s job_s_p50 job_s_p90", "sweep freeness"),
    ("cyclotomic.add_self_s", "s", "lower", "wall_s job_s_p50 job_s_p90", "sweep freeness"),
    ("cyclotomic.inverse_calls", "count", "lower", "wall_s job_s_p50 job_s_p90", "sweep freeness"),
    ("cyclotomic.inverse_self_s", "s", "lower", "wall_s job_s_p50 job_s_p90", "sweep freeness"),
    ("cyclotomic.euler_phi_calls", "count", "lower", "wall_s job_s_p50 job_s_p90", "sweep freeness"),
    ("cyclotomic.canonical_self_s", "s", "lower", "wall_s job_s_p50 job_s_p90", "sweep freeness"),
    ("burau.matmul_calls", "count", "lower", "wall_s", "sweep freeness"),
    ("burau.matmul_self_s", "s", "lower", "wall_s", "sweep freeness"),
    ("burau.matpow_calls", "count", "lower", "wall_s", "sweep freeness"),
    ("burau.matinv_calls", "count", "lower", "wall_s", "sweep freeness"),
    ("burau.squared_images_s", "s", "lower", "wall_s", "sweep freeness"),
    ("balls.unit_turn_calls", "count", "lower", "wall_s job_s_p50", "freeness"),
    ("balls.unit_turn_self_s", "s", "lower", "wall_s job_s_p50", "freeness"),
    ("balls.unit_turn_distinct_ratio", "ratio", "higher", "wall_s job_s_p50", "freeness"),
    ("balls.embed_calls", "count", "lower", "wall_s job_s_p50", "freeness"),
    ("balls.embed_self_s", "s", "lower", "wall_s job_s_p50", "freeness"),
    ("hyperbolic.oracle_self_s", "s", "lower", "wall_s", "freeness"),
    ("hyperbolic.oracle_nodes", "count", "lower", "wall_s", "freeness"),
    ("hyperbolic.oracle_nodes_per_s", "nodes/s", "higher", "wall_s", "freeness"),
    ("hyperbolic.invariant_form_s", "s", "lower", "wall_s", "freeness"),
    ("hyperbolic.certify_self_s", "s", "lower", "wall_s", "freeness"),
    ("hyperbolic.verify_certificate_s", "s", "lower", "wall_s", "freeness"),
    ("artin.action_self_s", "s", "lower", "wall_s peak_rss_mb", "artin"),
    ("artin.action_letters_per_s", "letters/s", "higher", "wall_s peak_rss_mb", "artin"),
    ("artin.longitude_self_s", "s", "lower", "wall_s peak_rss_mb", "artin"),
    ("artin.magnus_self_s", "s", "lower", "wall_s peak_rss_mb", "artin"),
    ("artin.magnus_syllables_per_s", "syllables/s", "higher", "wall_s peak_rss_mb", "artin"),
    ("artin.max_word_letters", "count", "lower", "wall_s peak_rss_mb", "artin"),
    ("words.word_calls", "count", "lower", "wall_s peak_rss_mb", "artin sweep"),
    ("words.word_self_s", "s", "lower", "wall_s peak_rss_mb", "artin sweep"),
    ("words.evaluate_word_self_s", "s", "lower", "wall_s peak_rss_mb", "artin sweep"),
    ("triangle.claim_self_s", "s", "lower", "job_s_p50", "sweep"),
    ("modular.claim_self_s", "s", "lower", "job_s_p50", "sweep"),
    ("quantum.claim_self_s", "s", "lower", "job_s_p50", "sweep"),
    ("cli.emit_s", "s", "lower", "job_s_p50", "sweep"),
    # measured by comparing the traced and untraced passes of one run
    ("trace.untraced_wall_s", "s", "lower", "", ""),
    ("trace.traced_wall_s", "s", "lower", "", ""),
    ("trace.overhead_s", "s", "lower", "", ""),
)


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.turn_keys: set = set()
        self.work = {"action_letters": 0, "magnus_syllables": 0, "max_word_letters": 0}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_of.append(self._id(name))
        self.parent_of.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, after=None):
        nid = self._id(name)
        name_of, parent_of, start, end, stack = (
            self.name_of, self.parent_of, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent_of.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- work counters fed from call results ---------------------------------

    def _after_unit_turn(self, args, result):
        self.turn_keys.add((args[0], args[1]))

    def _after_action(self, args, result):
        sizes = [w.length() for w in result.images]
        self.work["action_letters"] += sum(sizes)
        self._longest(max(sizes))

    def _after_magnus(self, args, result):
        self.work["magnus_syllables"] += len(args[0].syllables)

    def _after_word_result(self, args, result):
        self._longest(result.length())

    def _longest(self, n: int):
        if n > self.work["max_word_letters"]:
            self.work["max_word_letters"] = n

    # -- installation --------------------------------------------------------

    def install(self) -> dict[str, int]:
        """Wrap every target; returns how many bindings each span replaced."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "burauforge" or n.startswith("burauforge.")]
        after = {
            "balls.unit_turn": self._after_unit_turn,
            "artin.action": self._after_action,
            "artin.magnus": self._after_magnus,
            "artin.longitude": self._after_word_result,
            "artin.eta": self._after_word_result,
        }
        bindings: dict[str, int] = {}
        targets = [(m, p, n, False) for m, p, n in SPAN_TARGETS]
        targets += [(m, p, n, True) for m, p, n in COUNT_TARGETS]
        for module_name, path, name, count_only in targets:
            owner, attr = _resolve(module_name, path)
            fn = vars(owner)[attr]
            wrapper = (self.count(fn, name) if count_only
                       else self.wrap(fn, name, after.get(name)))
            replaced = 0
            for ns in [owner, *modules]:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
                        replaced += 1
            if not replaced:
                raise RuntimeError(f"{module_name}.{path} is bound nowhere")
            bindings[name] = bindings.get(name, 0) + replaced
        return bindings

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str):
        """Write the spans: one JSON header line, then the four arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name_of:i", "parent_of:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent_of, self.start, self.end):
                arr.tofile(fh)

    def span_totals(self) -> dict[str, list]:
        """Per span name: [calls, self seconds, total seconds]."""
        n = len(self.start)
        name_of, parent_of, start, end = self.name_of, self.parent_of, self.start, self.end
        covered = [0.0] * n
        durations = [0.0] * n
        for i in range(n):
            d = end[i] - start[i]
            durations[i] = d
            p = parent_of[i]
            if p >= 0:
                covered[p] += d
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = totals[self.names[name_of[i]]]
            row[0] += 1
            row[1] += durations[i] - covered[i]
            row[2] += durations[i]
        return totals

    def oracle_nodes(self) -> int:
        """Matrix products made inside the relation oracle."""
        if "hyperbolic.oracle" not in self._ids or "burau.matmul" not in self._ids:
            return 0
        oracle, matmul = self._ids["hyperbolic.oracle"], self._ids["burau.matmul"]
        name_of, parent_of = self.name_of, self.parent_of
        inside = bytearray(len(name_of))
        nodes = 0
        for i in range(len(name_of)):
            p = parent_of[i]
            if p >= 0 and (inside[p] or name_of[p] == oracle):
                inside[i] = 1
                if name_of[i] == matmul:
                    nodes += 1
        return nodes

    def layer_calls(self, totals: dict[str, list]) -> dict[str, int]:
        """Calls per layer (the part of a span name before the dot)."""
        calls: dict[str, int] = {}
        for name, (n, _, _) in totals.items():
            if name != JOB_SPAN:
                layer = name.split(".")[0]
                calls[layer] = calls.get(layer, 0) + n
        for name, n in self.counts.items():
            layer = name.split(".")[0]
            calls[layer] = calls.get(layer, 0) + n
        return calls

    def layer_metrics(self, totals: dict[str, list]) -> dict[str, float]:
        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def total_s(name):
            return totals.get(name, (0, 0.0, 0.0))[2]

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        turns = calls("balls.unit_turn")
        nodes = self.oracle_nodes()
        return {
            "cyclotomic.mul_calls": calls("cyclotomic.mul"),
            "cyclotomic.mul_self_s": self_s("cyclotomic.mul"),
            "cyclotomic.add_calls": calls("cyclotomic.add"),
            "cyclotomic.add_self_s": self_s("cyclotomic.add"),
            "cyclotomic.inverse_calls": calls("cyclotomic.inverse"),
            "cyclotomic.inverse_self_s": self_s("cyclotomic.inverse"),
            "cyclotomic.euler_phi_calls": self.counts.get("cyclotomic.euler_phi", 0),
            "cyclotomic.canonical_self_s": self_s("cyclotomic.canonical"),
            "burau.matmul_calls": calls("burau.matmul"),
            "burau.matmul_self_s": self_s("burau.matmul"),
            "burau.matpow_calls": calls("burau.matpow"),
            "burau.matinv_calls": calls("burau.matinv"),
            "burau.squared_images_s": total_s("burau.squared_images"),
            "balls.unit_turn_calls": turns,
            "balls.unit_turn_self_s": self_s("balls.unit_turn"),
            "balls.unit_turn_distinct_ratio": rate(len(self.turn_keys), turns),
            "balls.embed_calls": calls("balls.embed"),
            "balls.embed_self_s": self_s("balls.embed"),
            "hyperbolic.oracle_self_s": self_s("hyperbolic.oracle"),
            "hyperbolic.oracle_nodes": nodes,
            "hyperbolic.oracle_nodes_per_s": rate(nodes, total_s("hyperbolic.oracle")),
            "hyperbolic.invariant_form_s": total_s("hyperbolic.invariant_form"),
            "hyperbolic.certify_self_s": self_s("hyperbolic.certify"),
            "hyperbolic.verify_certificate_s": total_s("hyperbolic.verify_certificate"),
            "artin.action_self_s": self_s("artin.action"),
            "artin.action_letters_per_s": rate(self.work["action_letters"],
                                               total_s("artin.action")),
            "artin.longitude_self_s": self_s("artin.longitude"),
            "artin.magnus_self_s": self_s("artin.magnus"),
            "artin.magnus_syllables_per_s": rate(self.work["magnus_syllables"],
                                                 total_s("artin.magnus")),
            "artin.max_word_letters": self.work["max_word_letters"],
            "words.word_calls": calls("words.word"),
            "words.word_self_s": self_s("words.word"),
            "words.evaluate_word_self_s": self_s("words.evaluate_word"),
            "triangle.claim_self_s": self_s("triangle.claim"),
            "modular.claim_self_s": self_s("modular.claim"),
            "quantum.claim_self_s": self_s("quantum.claim"),
            "cli.emit_s": total_s("cli.emit"),
        }
