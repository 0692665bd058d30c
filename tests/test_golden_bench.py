"""Byte-identical outputs of the benchmark's jobs.

Each job of one round of both benchmark workloads, for seeds 1 and 2, is
run through ``cli.main`` in-process with its document on stdin, as
``bench/worker.py`` runs it, and its exit code and the sha256 of its
stdout are compared with the golden file.  ``bench/gen.py`` is loaded
from its path, not edited.  Regenerate the golden file with
``python tests/test_golden_bench.py``.
"""

import hashlib
import importlib.util
import io
import json
import os
import sys

from tannakit.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEN = os.path.join(ROOT, "bench", "gen.py")
GOLDEN = os.path.join(ROOT, "tests", "golden", "bench_digests.json")
SEEDS = (1, 2)


def load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_job(job):
    """Exit code and stdout of one job, with its document on stdin."""
    out = io.StringIO()
    saved = sys.stdout, sys.stdin
    sys.stdout, sys.stdin = out, io.StringIO(job["stdin"] or "")
    try:
        code = main(job["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stdin = saved
    return code, out.getvalue()


def bench_digests():
    """``{"<seed> <job id>": {"exit": code, "sha256": digest}}`` over every job."""
    gen = load_gen()
    digests = {}
    for seed in SEEDS:
        for workload in gen.WORKLOADS:
            for job in gen.round_jobs(workload, seed):
                code, text = run_job(job)
                digests["%d %s" % (seed, job["id"])] = {
                    "exit": code,
                    "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return digests


def test_bench_job_outputs_match_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    current = bench_digests()
    assert sorted(current) == sorted(golden)
    for key, expected in golden.items():
        assert current[key] == expected, key


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(bench_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
