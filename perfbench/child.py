"""One benchmark pass in a fresh process, as a CLI user would pay for it.

    python3 child.py JOBS_JSON RESULT_JSON TRACE SPANS_OUT
    python3 child.py --ready-only

Imports ``burauforge.cli``, writes ``ready`` on stdout (the parent times
set-up up to that line), then replays the jobs of JOBS_JSON in the
current directory and writes per-job latencies, exit codes, report
digests and verdict fields to RESULT_JSON.  With TRACE 1 the tracer is
installed after ``ready`` and before the first job.

Before the first job and after each job the child reads the host-speed
reference (``speed.py``); each job records the mean of the readings on
either side of it, and the parent scales its times by that.  ``busy_s``
is a job's whole stretch (tampering, the command, digesting its report);
``lead_s`` is ready to the first reading.  Together they are the pass's
time from ready to the last verdict, without the readings themselves.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import burauforge.cli  # noqa: E402  (this import is the set-up being timed)
from time import perf_counter  # noqa: E402

T_READY = perf_counter()
sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402
from burauforge import artin, words  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = burauforge.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def cli_verdict(rc: int, text: str) -> dict:
    verdict = {"rc": rc, "statuses": [], "certificate": False, "relations": [], "depths": []}
    if not text:
        return verdict
    report = json.loads(text)
    verdict["certificate"] = "certificate" in report
    for claim in report.get("claims", []):
        verdict["statuses"].append(claim["status"])
        for wit in claim["witnesses"]:
            if isinstance(wit, dict):
                if "relation" in wit:
                    verdict["relations"].append(wit["relation"])
                if "depth" in wit:
                    verdict["depths"].append(str(wit["depth"]))
    return verdict


def _free(sylls):
    return words.word(artin.F3, [tuple(s) for s in sylls])


def run_api(job: dict) -> bool:
    # module attributes are looked up per call, so traced wrappers apply
    if job["check"] == "magnus-multiplicative":
        ok = True
        for u_sylls, v_sylls, degree in job["cases"]:
            u, v = _free(u_sylls), _free(v_sylls)
            ok &= (artin.magnus_expansion(u * v, degree)
                   == artin.magnus_expansion(u, degree) * artin.magnus_expansion(v, degree))
        return ok
    if job["check"] == "eta-doubling":
        ok, checked = True, 0
        for sylls in job["cases"]:
            w = _free(sylls)
            if w.is_identity:
                continue
            d = artin.magnus_depth(w, 3)
            if d is None:
                continue
            ok &= artin.magnus_depth(artin.eta_embed(w), 2 * d - 1) is None
            checked += 1
        return ok and checked > 0
    raise ValueError(f"unknown check {job['check']!r}")


def tamper(src: str, dst: str):
    """Copy a certificate with the x and y attracting arcs swapped.  The set
    of arcs and its margin stay the same, so only the ball inclusion checks
    can reject the copy."""
    with open(src) as fh:
        data = json.load(fh)
    arcs = data["arcs"]
    arcs["x_att"], arcs["y_att"] = arcs["y_att"], arcs["x_att"]
    with open(dst, "w") as fh:
        json.dump(data, fh, indent=2)


def main(argv: list[str]) -> int:
    if argv == ["--ready-only"]:
        return 0
    jobs_path, result_path, trace, spans_path = argv
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    lead = perf_counter() - T_READY
    ref = speed.reference_s()
    out = {"lead_s": lead, "lead_ref_s": ref}
    for job in jobs:
        span = None
        t_busy = t0 = perf_counter()
        try:
            if "tamper" in job:  # prepares the command's input, untimed
                tamper(*job["tamper"])
            span = tracer.open(tracing.JOB_SPAN) if tracer else None
            t0 = perf_counter()
            if job["kind"] == "cli":
                rc, text = run_cli(job["argv"])
            else:
                rc, text = 0, json.dumps(run_api(job))
        except Exception:  # a crashing job is a failed verdict, not a crashed pass
            rc, text = None, traceback.format_exc()
            sys.stderr.write(f"job {job['id']} raised:\n{text}")
        seconds = perf_counter() - t0
        if span is not None:
            tracer.close(span)
        res = {"id": job["id"], "s": seconds, "rc": rc,
               "sha": hashlib.sha256(text.encode()).hexdigest()}
        if rc is not None:
            res.update(cli_verdict(rc, text) if job["kind"] == "cli" else {"ok": json.loads(text)})
        res["busy_s"] = perf_counter() - t_busy
        ref_after = speed.reference_s()
        res["ref_s"] = (ref + ref_after) / 2
        ref = ref_after
        results.append(res)
    out.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               jobs=results)
    if tracer:
        totals = tracer.span_totals()
        out["layers"] = tracer.layer_metrics(totals)
        out["layer_calls"] = tracer.layer_calls(totals)
        out["span_calls"] = {name: row[0] for name, row in totals.items()}
        out["span_calls"].update(tracer.counts)
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
