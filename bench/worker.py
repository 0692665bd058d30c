"""One workload in its own process: closed loop of in-process CLI jobs.

Started by ``run.py``.  The worker imports tannakit from the checkout's
``src/``, generates the seeded round, prints ``ready`` (the end of
set-up), runs the jobs one at a time through ``tannakit.cli.main(argv)``
with stdout captured, checks every output, and prints one JSON line with
the job records.

Modes:

* measure (``--trace 0``): repeat the round for about ``--seconds``
  and until at least ``MIN_JOBS`` jobs ran, so the tail percentile has
  ten samples beyond it.  Only whole rounds run, so every run has the
  same job mix.
* trace (``--trace 1``): three passes over the round.  Untraced whole
  rounds, then the same rounds under ``SpanTracer`` (the difference in
  jobs/s is the tracing overhead), then a counting pass under
  ``OpCounter``.  Spans are written to ``--spans-out`` at the end.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import gen
from tracer import SPAN_NAMES, OpCounter, SpanTracer, summarize

MIN_JOBS = 21       # ten samples beyond the tail, which is then at least p50
TRACE_SHARES = (0.4, 0.4, 0.2)      # untraced, traced, counting pass


def import_tannakit(root):
    """Import tannakit from ``root/src``; refuse any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import tannakit
    from tannakit import cli
    where = os.path.realpath(tannakit.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("tannakit imported from %s, not from %s" % (where, src))
    return cli


class Runner:
    """Runs jobs through ``cli.main`` and checks outputs and digests."""

    def __init__(self, cli):
        self.cli = cli
        self.digests = {}

    def run(self, job, phase):
        out = io.StringIO()
        saved = sys.stdout, sys.stdin
        sys.stdout, sys.stdin = out, io.StringIO(job["stdin"] or "")
        problems = []
        start = time.perf_counter()
        try:
            code = self.cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            problems.append("exception: %s" % traceback.format_exc(limit=3))
        finally:
            seconds = time.perf_counter() - start
            sys.stdout, sys.stdin = saved
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if not problems:
            problems = checks.check_job(job, code, text)
        first = self.digests.setdefault(job["id"], digest)
        if first != digest:
            problems.append("digest mismatch with an earlier run of this job")
        return {"id": job["id"], "kind": job["kind"], "phase": phase,
                "s": seconds, "exit": code, "sha256": digest,
                "problems": problems, "text": text}


def run_loop(runner, jobs, phase, seconds, min_jobs, whole_rounds, tracer=None):
    """Closed loop over the round; returns (records, elapsed seconds).

    With ``whole_rounds`` the loop ends on the round boundary nearest to
    ``seconds``: it stops once less than half a round (at the mean round
    time so far) would remain.  A run then measures about ``seconds`` on
    average instead of up to a round more.  With a ``tracer``, each job's
    spans carry the job's index in the loop.
    """
    records = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.job = len(records)
        records.append(runner.run(jobs[len(records) % len(jobs)], phase))
        elapsed = time.perf_counter() - start
        if len(records) < min_jobs:
            continue
        if not whole_rounds:
            if elapsed >= seconds:
                return records, elapsed
        elif len(records) % len(jobs) == 0:
            half_round = elapsed * len(jobs) / len(records) / 2
            if elapsed >= seconds - half_round:
                return records, elapsed


def per_layer_names():
    """Every per-layer metric the traced run reports, with unit and direction."""
    out = []
    for name in SPAN_NAMES:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out += [
        ("coend.ambient_dim", "count", "lower"),
        ("coend.relation_rank", "count", "lower"),
        ("coend.quotient_dim", "count", "lower"),
        ("report.checks_emitted", "count", "lower"),
        ("report.checks_unique", "count", "higher"),
        ("linalg.matmul.entries_out", "count", "lower"),
        ("linalg.matmul.nnz_out", "count", "lower"),
        ("linalg.matmul.density", "1", "higher"),
        ("linalg.kron.entries_out", "count", "lower"),
        ("linalg.kron.density", "1", "higher"),
        ("linalg.rref.entries_in", "count", "lower"),
        ("moncat.eval.entries_out", "count", "lower"),
        ("fields.ops.q", "count", "lower"),
        ("fields.ops.fp", "count", "lower"),
        ("trace.jobs_per_s", "jobs/s", "higher"),
        ("trace.untraced_jobs_per_s", "jobs/s", "higher"),
        ("trace.overhead_jobs_per_s", "jobs/s", "lower"),
        ("trace.job_wall_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
    ]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def traced_run(runner, jobs, seconds, spans_out):
    share_a, share_b, share_c = (seconds * s for s in TRACE_SHARES)
    untraced, elapsed_a = run_loop(runner, jobs, "untraced", share_a, 1, True)

    tracer = SpanTracer()
    with tracer:
        traced, elapsed_b = run_loop(runner, jobs, "traced", share_b, 1, True, tracer)

    counter = OpCounter()
    with counter:
        counted, _ = run_loop(runner, jobs, "count", share_c, 1, False)

    by_name, by_job = summarize(tracer.spans)
    for idx, rec in enumerate(traced):
        root, self_sum = by_job.get(idx, (0.0, 0.0))
        if abs(root - self_sum) > 1e-6 or root > rec["s"]:
            raise RuntimeError("span arithmetic broken for job %s: root %r, "
                               "self sum %r, wall %r" % (rec["id"], root,
                                                         self_sum, rec["s"]))

    n = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        calls, own = by_name.get(name, (0, 0.0))
        metrics[name + ".calls"] = calls / n
        metrics[name + ".self_s"] = own / n
    c = counter.counts
    presentations = c.get("coend.natvee.returns", 0)
    for key in ("ambient_dim", "relation_rank", "quotient_dim"):
        metrics["coend." + key] = _ratio(c.get("coend." + key, 0), presentations)
    emitted = unique = 0
    for rec in traced:
        if not rec["problems"]:
            e, u = checks.check_counts(json.loads(rec["text"]))
            emitted += e
            unique += u
    metrics["report.checks_emitted"] = emitted / n
    metrics["report.checks_unique"] = unique / n
    k = len(counted)
    for key in ("linalg.matmul.entries_out", "linalg.matmul.nnz_out",
                "linalg.kron.entries_out", "linalg.rref.entries_in",
                "moncat.eval.entries_out", "fields.ops.q", "fields.ops.fp"):
        metrics[key] = c.get(key, 0) / k
    metrics["linalg.matmul.density"] = _ratio(c.get("linalg.matmul.nnz_out", 0),
                                              c.get("linalg.matmul.entries_out", 0))
    metrics["linalg.kron.density"] = _ratio(c.get("linalg.kron.nnz_out", 0),
                                            c.get("linalg.kron.entries_out", 0))
    metrics["trace.jobs_per_s"] = n / elapsed_b
    metrics["trace.untraced_jobs_per_s"] = len(untraced) / elapsed_a
    metrics["trace.overhead_jobs_per_s"] = (metrics["trace.untraced_jobs_per_s"]
                                            - metrics["trace.jobs_per_s"])
    metrics["trace.job_wall_s"] = sum(r["s"] for r in traced) / n
    metrics["trace.self_sum_s"] = sum(by_job.get(i, (0.0, 0.0))[1]
                                      for i in range(n)) / n

    with open(spans_out, "w") as fh:
        json.dump({"jobs": [r["id"] for r in traced],
                   "fields": ["name", "start", "end", "parent", "job"],
                   "spans": tracer.spans}, fh)
    return untraced + traced + counted, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    cli = import_tannakit(args.root)
    jobs = gen.round_jobs(args.workload, args.seed, smoke=args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(cli)
    result = {"round": len(jobs)}
    if args.trace:
        records, result["per_layer"] = traced_run(runner, jobs, args.seconds,
                                                  args.spans_out)
    else:
        records, result["elapsed"] = run_loop(runner, jobs, "measure",
                                              args.seconds, MIN_JOBS, True)
    for rec in records:
        del rec["text"]
    result["records"] = records
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
