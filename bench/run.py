"""tannakit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload cyclic --seed 1 --seconds 55 --trace 0
    python3 bench/run.py                      # both workloads, seed 1

Each workload runs in its own worker process (``worker.py``) as a closed
loop: one client, one job at a time.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the traced passes and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Job records with
output digests, and the spans of a traced run, are written under
``bench/out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import gen
from worker import per_layer_names

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 10         # extra set-up-only spawns; setup_s is the median
TIME_LIMIT = 170.0        # seconds per workload, set-up probes included
TAIL_BEYOND = 10          # the tail percentile has this many samples beyond it

END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "job_s.p50": "s", "job_s.tail": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s", "fail_ratio": "1"}


def tail(times):
    """(value, percentile, samples) of the highest percentile with ten samples beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError("%d samples leave none with ten beyond" % n)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def run_worker(args, deadline):
    """Run ``worker.py`` to the end; returns (seconds from spawn to ``ready``, output).

    The worker is killed if it outlives ``deadline`` or if anything goes
    wrong here, and always waited for.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--root", ROOT] + args,
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("worker failed (exit %r)" % proc.returncode)
    return setup_s, out


def run_workload(workload, seed, seconds, trace, smoke, deadline):
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup = [run_worker(base + ["--setup-only"], deadline)[0]
             for _ in range(SETUP_PROBES)]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d%s" % (workload, seed, "-trace" if trace else ""))
    spans = ["--spans-out", stem + "-spans.json"] if trace else []
    setup_s, out = run_worker(base + ["--seconds", repr(seconds), "--trace", str(trace)]
                              + spans, deadline)
    setup.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])

    records = result["records"]
    failed = [r for r in records if r["problems"]]
    summary = {"workload": workload, "seed": seed, "round": result["round"],
               "attempted": len(records), "failed": len(failed)}
    if trace:
        summary["metrics"] = result["per_layer"]
    else:
        times = [r["s"] for r in records]
        value, pct, n = tail(times)
        summary["metrics"] = {
            "jobs_per_s": (len(records) - len(failed)) / result["elapsed"],
            "job_s.p50": statistics.median(times),
            "job_s.tail": value,
            "peak_rss_mb": result["rss_kib"] / 1024.0,
            "setup_s": statistics.median(setup),
            "fail_ratio": len(failed) / len(records),
        }
        summary["tail"] = {"percentile": pct, "samples": n, "beyond": TAIL_BEYOND}
    summary["setup_samples_s"] = setup
    summary["records"] = records
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def print_summary(s, trace):
    print("== %s (seed %d, %d jobs per round, %d attempted, %d failed)"
          % (s["workload"], s["seed"], s["round"], s["attempted"], s["failed"]))
    m = s["metrics"]
    if trace:
        selfs = sorted(((v, k) for k, v in m.items() if k.endswith(".self_s")),
                       reverse=True)
        for v, k in selfs[:8]:
            print("   %-40s %.4f s/job  (%g calls/job)"
                  % (k, v, m[k[:-len(".self_s")] + ".calls"]))
        for k in ("report.checks_emitted", "report.checks_unique",
                  "linalg.matmul.density", "fields.ops.q", "fields.ops.fp",
                  "trace.jobs_per_s", "trace.untraced_jobs_per_s"):
            print("   %-40s %g" % (k, m[k]))
    else:
        for name, unit in END_TO_END_UNITS.items():
            extra = ""
            if name == "job_s.tail":
                t = s["tail"]
                extra = "  (p%.1f of %d samples, %d beyond)" % (
                    t["percentile"], t["samples"], t["beyond"])
            print("   %-12s %.6g %s%s" % (name, m[name], unit, extra))
    for r in s["records"]:
        if r["problems"]:
            print("   FAILED %s: %s" % (r["id"], "; ".join(r["problems"])))


def main(argv=None):
    ap = argparse.ArgumentParser(description="tannakit benchmark")
    ap.add_argument("--workload", default="all", choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest job sizes (the benchmark's own tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tannakit", "__init__.py")):
        print("no tannakit source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in workloads:
        try:
            s = run_workload(workload, args.seed, args.seconds, args.trace,
                             args.smoke, time.monotonic() + TIME_LIMIT)
        except RuntimeError as exc:
            print("%s: %s" % (workload, exc), file=sys.stderr)
            return 1
        print_summary(s, args.trace)
        summaries.append(s)

    units = dict((n, u) for n, u, _ in per_layer_names()) if args.trace \
        else END_TO_END_UNITS
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "."
        for name, value in s["metrics"].items():
            if name == "fail_ratio":
                continue      # carried by "failed" / "attempted"; 0 when correct
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
