"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == \
        [m[:3] for m in tracer.LAYER_METRICS]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_prints_the_same_reports(workload, tmp_path):
    jobs = workloads.build(workload, 5, tiny=True)
    jobs_path = tmp_path / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    spans = tmp_path / "spans"
    plain = run.run_pass(jobs_path, False, 0, spans)
    traced = run.run_pass(jobs_path, True, 1, spans)
    assert sum(traced["span_calls"].values()) > 0 and spans.stat().st_size > 0
    assert [(r["id"], r["rc"], r["sha"]) for r in plain["jobs"]] == \
        [(r["id"], r["rc"], r["sha"]) for r in traced["jobs"]]


def checkout(tmp_path, sources=True):
    """A copy of the benchmark, with a copy of the sources unless told not."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("_work", "_out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    if sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def bench_copy(root, *args):
    return bench(*args, cwd=root, script=root / "perfbench" / "run.py")


def test_wrong_expected_answer_fails_the_run(tmp_path):
    root = checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["sweep"]["verify kernel 2..2"]["claims"] = "pass"  # it is flagged
    path.write_text(json.dumps(expected))
    proc, result = bench_copy(root, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                              "--tiny")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "kernel" in proc.stderr


def test_missing_certificate_is_a_wrong_verdict(tmp_path):
    # certify-free stops writing its certificate: verify-cert and the
    # tampering step both fail, as jobs, and the pass still completes
    root = checkout(tmp_path)
    with open(root / "src" / "burauforge" / "hyperbolic.py", "a") as fh:
        fh.write("\nPingPongCertificate.dump = lambda self, path: None\n")
    proc, result = bench_copy(root, "--workload", "freeness", "--seed", "1",
                              "--seconds", "1", "--tiny")
    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False
    jobs = workloads.build("freeness", 1, tiny=True)
    certified = sum("--pingpong" in job["argv"] for job in jobs)
    assert result["failed"] == 2 * certified * result["attempted"] // len(jobs)
    assert "verify-cert" in proc.stderr


def test_tampered_certificate_fails_only_the_inclusion_checks(tmp_path):
    import child
    from burauforge import hyperbolic
    from burauforge.cli import main
    cert, bad = tmp_path / "cert.json", tmp_path / "bad.json"
    rc = main(["certify-free", "--order", "7", "--x", workloads.PAIR_X, "--y", workloads.PAIR_Y,
               "--max-len", "2", "--pingpong", "--precision", str(workloads.PRECISION),
               "--cert-out", str(cert)])
    assert rc == 0
    child.tamper(str(cert), str(bad))
    c = hyperbolic.PingPongCertificate.load(str(bad))
    assert hyperbolic._arcs_disjoint_margin(c.arcs) == c.margin
    assert not hyperbolic._check_inclusions(c, 2 * c.precision)
    assert not hyperbolic.verify_certificate(c)


def test_run_without_sources_fails_without_a_result(tmp_path):
    root = checkout(tmp_path, sources=False)
    proc, result = bench_copy(root, "--workload", "sweep", "--seed", "1", "--seconds", "1")
    assert proc.returncode not in (0, 1)
    assert result is None


def test_scaling_cancels_a_uniformly_slower_host():
    def host(slowdown):
        jobs = [{"id": i, "kind": "cli", "s": s * slowdown, "busy_s": (s + 0.001) * slowdown,
                 "ref_s": 0.0004 * slowdown} for i, s in enumerate((0.01, 0.02, 0.5))]
        result = {"lead_s": 0.03 * slowdown, "lead_ref_s": 0.0004 * slowdown, "jobs": jobs,
                  "peak_rss_mb": 20.0}
        run.scale_pass(result, 0.1 * slowdown, 0.0004 * slowdown)
        return result
    fast, slow = host(1.0), host(1.4)
    assert slow["raw_wall_s"] == pytest.approx(1.4 * fast["raw_wall_s"])
    for key in ("setup_s", "wall_s"):
        assert slow[key] == pytest.approx(fast[key])
    assert [j["scaled_s"] for j in slow["jobs"]] == pytest.approx(
        [j["scaled_s"] for j in fast["jobs"]])
    metrics, n = run.end_to_end(fast["jobs"], [fast, slow], [fast["setup_s"], slow["setup_s"]])
    assert n == 6 and metrics["wall_s"] == pytest.approx(fast["wall_s"])


def test_artin_runs_the_same_jobs_for_every_seed():
    # every seed runs both braids of each mirror pair on all strands, pair
    # by pair; it only chooses which braid of a pair goes first
    pair_of = {}
    for n, pair in enumerate(workloads.bracket_pairs()):
        for _, w in pair:
            pair_of[workloads._braid_text(w)] = n

    def cli(seed):
        return [job["argv"] for job in workloads.build("artin", seed) if job["kind"] == "cli"]

    def shape(seed):
        return [(pair_of[argv[2]], argv[4]) for argv in cli(seed)]
    assert shape(1) == shape(2) == shape(3)
    assert sorted(cli(1)) == sorted(cli(2)) and cli(1) != cli(2)
    assert len(cli(1)) == 6 * len(pair_of) // 2


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    for name in ("job", "outer", "inner"):
        t._id(name)
    # job [0, 10] > outer [1, 9] > inner [2, 5] and inner [6, 8]
    t.name_of = array("i", [0, 1, 2, 2])
    t.parent_of = array("i", [-1, 0, 1, 1])
    t.start = array("d", [0, 1, 2, 6])
    t.end = array("d", [10, 9, 5, 8])
    totals = t.span_totals()
    assert totals["job"] == [1, 2.0, 10.0]
    assert totals["outer"] == [1, 3.0, 8.0]
    assert totals["inner"] == [2, 5.0, 5.0]


def test_brackets_match_the_package_and_mirror_in_pairs():
    from burauforge.artin import B3
    from burauforge.words import format_word, iterated_bracket, word
    one = [((g, e),) for g in (0, 1) for e in (2, -2)]
    two = [((g, a), (1 - g, b)) for g in (0, 1) for a in (2, -2) for b in (2, -2)]
    for u in one:
        for v in one + two:
            for k in (2, 3):
                w = iterated_bracket(word(B3, u), word(B3, v), k)
                assert workloads._bracket(u, v, k) == w.syllables, (u, v, k)
    pairs = workloads.bracket_pairs()
    assert len({braid for pair in pairs for braid in pair}) == 2 * len(pairs)
    for (k1, w1), (k2, w2) in pairs:
        assert k1 == k2 and workloads._mirror(w1) == w2
        assert format_word(word(B3, w1)) == workloads._braid_text(w1)
