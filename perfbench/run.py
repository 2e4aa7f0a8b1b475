#!/usr/bin/env python3
"""Benchmark of the burauforge command line, measured from outside.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs building.  A run
replays the seeded job list of one workload (see ``workloads.py``) in
passes.  Each pass is one fresh child process that imports
``burauforge.cli`` and drives the public entry points, the way a CLI
user pays for it; passes repeat until ``--seconds`` are used up.  Every
verdict is checked against ``expected.json``, and every job must print
the same report in every pass.

With ``--trace 0`` the last stdout line gives the end-to-end metrics:

* ``setup_s``: spawn to ``burauforge.cli`` imported, median over passes
  and extra import-only children;
* ``wall_s``: ready to the last verdict of a pass, less the time spent
  reading the host-speed reference, median over passes;
* ``job_s_p50``, ``job_s_p90``: latency of one CLI command, over all
  passes (at least 100 samples);
* ``peak_rss_mb``: the child's peak resident set, median over passes.

Every time is scaled to a nominal host speed by the reference loop of
``speed.py``, read right before each spawn and around each job; the
unscaled figures go to the ``# raw`` lines and the run record.

The share of failed jobs is the result's ``failed`` / ``attempted``.
With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of ``tracer.LAYER_METRICS`` instead, plus
the tracing overhead from the scaled walls (the self times are
unscaled); the traced reports must match the untraced ones byte for
byte.  Exit status: 0 all verdicts right, 1 a verdict wrong,
2 the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "burauforge"
CHILD = HERE / "child.py"
WORK = HERE / "_work"
OUT = HERE / "_out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_s_p50", "s"),
              ("job_s_p90", "s"), ("peak_rss_mb", "MB"))
# Child environment; None unsets.  Bytecode writing is on so that the
# unmeasured first child caches it and setup_s times imports, not compiling.
PINNED_ENV = {"PYTHONHASHSEED": "0", "BURAU_FORGE_THREADS": None,
              "PYTHONDONTWRITEBYTECODE": None}

MIN_PASSES = 3
MIN_LATENCY_SAMPLES = 100  # so that at least ten lie beyond the 90th percentile
SETUP_ONLY_SPAWNS = 12
READY_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150
LAST_PASS_START_S = 100    # keeps a run well inside 180 s on a slow machine


class BenchError(RuntimeError):
    """The benchmark could not measure: not a wrong verdict."""


# ---------------------------------------------------------------------------
# child processes

def _child_env() -> dict:
    env = dict(os.environ)
    for key, value in PINNED_ENV.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _stop(proc: subprocess.Popen):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _spawn(args: list[str], cwd: Path) -> tuple[subprocess.Popen, float, float]:
    """Start a child and wait for its ready line; returns it, the set-up
    time and the host-speed reference read just before the spawn."""
    ref = speed.reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=cwd, env=_child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if readable else b""
        setup = time.perf_counter() - t0
        if line != b"ready\n":
            raise BenchError("child stopped before burauforge.cli was imported")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup, ref


def _finish(proc: subprocess.Popen, timeout: float) -> int:
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child ran longer than {timeout} s") from None
    finally:
        _stop(proc)


def setup_only() -> tuple[float, float]:
    """Set-up time of an import-only child, unscaled and scaled."""
    proc, setup, ref = _spawn(["--ready-only"], ROOT)
    if _finish(proc, READY_TIMEOUT_S) != 0:
        raise BenchError("import-only child failed")
    return setup, speed.scale(setup, ref)


def run_pass(jobs_path: Path, traced: bool, index: int, spans_path: Path) -> dict:
    workdir = WORK / f"{os.getpid()}-{index}"
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    try:
        proc, setup, ref = _spawn([str(jobs_path), str(result_path), "1" if traced else "0",
                                   str(spans_path)], workdir)
        rc = _finish(proc, PASS_TIMEOUT_S)
        if rc != 0:
            raise BenchError(f"pass child exited with status {rc}")
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scale_pass(result, setup, ref)
    result["traced"] = traced
    return result


def scale_pass(result: dict, setup: float, ref: float):
    """Add a pass's set-up and wall times, unscaled (``raw_``) and scaled,
    and each job's scaled latency."""
    jobs = result["jobs"]
    for job in jobs:
        job["scaled_s"] = speed.scale(job["s"], job["ref_s"])
    result["raw_setup_s"] = setup
    result["setup_s"] = speed.scale(setup, ref)
    result["raw_wall_s"] = result["lead_s"] + sum(j["busy_s"] for j in jobs)
    result["wall_s"] = speed.scale(result["lead_s"], result["lead_ref_s"]) + \
        sum(speed.scale(j["busy_s"], j["ref_s"]) for j in jobs)


def measure(jobs: list[dict], jobs_path: Path, trace: bool, seconds: float,
            min_samples: int, spans_path: Path) -> list[dict]:
    """Run passes until the time is used; in trace mode, untraced/traced pairs."""
    per_pass = sum(1 for j in jobs if j["kind"] == "cli")
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        kinds = (False, True) if trace else (False,)
        for traced in kinds:
            passes.append(run_pass(jobs_path, traced, len(passes), spans_path))
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed > LAST_PASS_START_S:
            break
        enough = trace or (len(passes) >= MIN_PASSES and per_pass * len(passes) >= min_samples)
        if enough and elapsed + took > seconds:
            break
    return passes


# ---------------------------------------------------------------------------
# verdicts

def verdict_ok(expect: dict, job: dict, res: dict) -> bool:
    if res["rc"] is None:
        return False
    checks = {
        "exit": lambda v: res["rc"] == v,
        "claims": lambda v: bool(res["statuses"]) and all(s == v for s in res["statuses"]),
        "certificate": lambda v: res["certificate"] == v,
        "relation": lambda v: res["relations"] == [v],
        "depth": lambda v: res["depths"] == [v.format(**job)],
        "ok": lambda v: res["ok"] == v,
    }
    return all(checks[key](value) for key, value in expect.items())


def check_verdicts(expected: dict, jobs: list[dict], passes: list[dict]):
    """Count attempted and failed jobs; a job fails on a wrong verdict, a
    crash, or a report that differs from its report in the first pass."""
    by_id = {j["id"]: j for j in jobs}
    first_sha: dict[int, str] = {}
    attempted = failed = 0
    problems = []
    for n, p in enumerate(passes):
        for res in p["jobs"]:
            job = by_id[res["id"]]
            expect = expected.get(job.get("key")) or expected.get(job["check"])
            if expect is None:
                raise BenchError(f"expected.json has no answer for {job['check']!r}")
            attempted += 1
            why = None
            if not verdict_ok(expect, job, res):
                why = f"verdict {res} differs from {expect}"
            elif first_sha.setdefault(res["id"], res["sha"]) != res["sha"]:
                why = "report differs from the first pass" + (" (traced)" if p["traced"] else "")
            if why:
                failed += 1
                problems.append(f"pass {n} job {res['id']} {job.get('argv', job['check'])}: {why}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics

def end_to_end(jobs: list[dict], passes: list[dict], setups: list[float],
               prefix: str = "") -> tuple[dict, int]:
    """The end-to-end metrics, and the number of CLI latency samples.
    ``prefix`` "raw_" takes the unscaled times instead of the scaled ones."""
    cli_ids = {j["id"] for j in jobs if j["kind"] == "cli"}
    key = "s" if prefix else "scaled_s"
    latencies = [r[key] for p in passes for r in p["jobs"] if r["id"] in cli_ids]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p[prefix + "wall_s"] for p in passes),
        "job_s_p50": statistics.median(latencies),
        "job_s_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, len(latencies)


def per_layer(workload: str, passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    for p in traced:
        for layer in workloads.BYPASSED[workload]:
            if p["layer_calls"].get(layer, 0):
                raise BenchError(f"bypass check: {workload} made {p['layer_calls'][layer]} "
                                 f"calls into {layer}, which it is designed not to use")
        for span in workloads.EXERCISED[workload]:
            if not p["span_calls"].get(span, 0):
                raise BenchError(f"no call of {span} was traced on {workload}")
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


# ---------------------------------------------------------------------------
# run environment

def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "child_env": PINNED_ENV,
        "speed_reference_s": speed.REFERENCE_S,
    }


# ---------------------------------------------------------------------------

def run(args) -> int:
    if not (PACKAGE / "cli.py").is_file():
        raise BenchError(f"no burauforge sources under {PACKAGE.parent}")
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[args.workload]
    jobs = workloads.build(args.workload, args.seed, tiny=args.tiny)
    trace = args.trace == 1
    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    jobs_path = WORK / f"{os.getpid()}-jobs.json"
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans"
    try:
        jobs_path.write_text(json.dumps(jobs))
        setup_only()  # unmeasured: writes bytecode caches and warms the page cache
        setups = [] if trace else [setup_only() for _ in range(SETUP_ONLY_SPAWNS)]
        min_samples = 0 if args.tiny else MIN_LATENCY_SAMPLES
        passes = measure(jobs, jobs_path, trace, args.seconds, min_samples, spans_path)
    finally:
        jobs_path.unlink(missing_ok=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    attempted, failed, problems = check_verdicts(expected, jobs, passes)
    raw = {}
    if trace:
        metrics = per_layer(args.workload, passes)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        samples = f"{sum(p['traced'] for p in passes)} traced and " \
                  f"{sum(not p['traced'] for p in passes)} untraced passes"
    else:
        setups += [(p["raw_setup_s"], p["setup_s"]) for p in passes]
        metrics, n_lat = end_to_end(jobs, passes, [scaled for _, scaled in setups])
        raw, _ = end_to_end(jobs, passes, [unscaled for unscaled, _ in setups], prefix="raw_")
        units = dict(END_TO_END)
        samples = (f"{len(passes)} passes, {n_lat} CLI latency samples, "
                   f"{len(setups)} set-up samples")
    env = environment(args.seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "tiny": args.tiny, "environment": env, "samples": samples,
              "failed_share": failed / attempted, "problems": problems,
              "raw_metrics": raw,
              "passes": [{k: p[k] for k in ("traced", "setup_s", "raw_setup_s", "wall_s",
                                            "raw_wall_s", "peak_rss_mb")}
                         for p in passes],
              "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    for line in problems[:20]:
        print(line, file=sys.stderr)
    print("# env " + json.dumps(env))
    print(f"# {args.workload} seed {args.seed}: {samples}")
    for name, unit in units.items():
        print(f"#   {name:34s} {metrics[name]:.6g} {unit}")
    for name, value in raw.items():
        print(f"# raw {name:32s} {value:.6g} {units[name]}")
    print(f"#   {'failed_share':34s} {failed}/{attempted}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few jobs per workload, for smoke tests")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
