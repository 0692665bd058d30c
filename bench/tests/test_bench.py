"""Tests of the benchmark itself: generators, output checks, tracer, runner.

Run from the repository root:  python3 -m pytest bench/tests
"""

import io
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from tannakit import cli, linalg, moncat  # noqa: E402


def run_cli(argv, stdin=None):
    out = io.StringIO()
    saved = sys.stdout, sys.stdin
    sys.stdout, sys.stdin = out, io.StringIO(stdin or "")
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stdin = saved
    return code, out.getvalue()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_inputs_are_valid(workload, seed):
    for job in gen.round_jobs(workload, seed):
        if job["stdin"] is None:
            e1 = moncat.parse_expr(job["argv"][1])
            e2 = moncat.parse_expr(job["argv"][2])
            assert (e1.domain, e1.codomain) == (e2.domain, e2.codomain)
            assert moncat.coherence_equal(e1, e2) == job["expect"]["equal"]
            continue
        code, text = run_cli(["validate", "--json"], job["stdin"])
        assert code == 0, job["id"]
        assert json.loads(text)["passed"]


def test_generators_are_seeded():
    for workload in gen.WORKLOADS:
        assert gen.round_jobs(workload, 7) == gen.round_jobs(workload, 7)
        assert gen.round_jobs(workload, 7) != gen.round_jobs(workload, 8)


def test_coherence_rounds_have_both_verdicts():
    verdicts = {job["expect"]["equal"]
                for seed in range(1, 6) for job in gen.round_jobs("structure", seed)
                if job["family"] == "coherence"}
    assert verdicts == {True, False}


def test_check_job_accepts_correct_and_flags_wrong_output():
    for workload in gen.WORKLOADS:
        for job in gen.round_jobs(workload, 1, smoke=True):
            code, text = run_cli(job["argv"], job["stdin"])
            assert checks.check_job(job, code, text) == [], job["id"]
            if job["kind"] == "rho-tilde":
                bad = json.loads(text)
                bad["bijective"] = False
                assert checks.check_job(job, code, json.dumps(bad))
            if job["kind"] == "coherence":
                flipped = dict(job, expect=dict(job["expect"],
                                                equal=not job["expect"]["equal"]))
                assert checks.check_job(flipped, code, text)


def test_self_time_arithmetic_on_nested_calls():
    ticks = iter(range(100))
    t = tracer.SpanTracer(clock=lambda: next(ticks))
    leaf = t.wrap("leaf", lambda: None)
    mid = t.wrap("mid", lambda: (leaf(), leaf()))
    root = t.wrap("root", lambda: (mid(), leaf()))
    t.job = "j"
    root()
    # root [0, 9], mid [1, 6], leaves [2, 3], [4, 5], [7, 8]
    assert [s[1:4] for s in t.spans] == [[0, 9, None], [1, 6, 0], [2, 3, 1],
                                         [4, 5, 1], [7, 8, 0]]
    assert tracer.self_times(t.spans) == [3, 3, 1, 1, 1]
    by_name, by_job = tracer.summarize(t.spans)
    assert by_name == {"root": (1, 3), "mid": (1, 3), "leaf": (3, 3)}
    assert by_job == {"j": (9, 9)}


def test_tracer_patches_every_importer_and_restores():
    original_kron = linalg.kron
    original_matmul = linalg.Matrix.__dict__["__matmul__"]
    importers = [m for m in vars(sys.modules["tannakit"]).values()
                 if getattr(m, "kron", None) is original_kron]
    assert len(importers) >= 5
    with tracer.SpanTracer() as t:
        wrapped = linalg.kron
        assert wrapped is not original_kron
        assert all(m.kron is wrapped for m in importers)
        assert linalg.Matrix.__dict__["__matmul__"] is not original_matmul
        code, _ = run_cli(["nat", "--fixture", "z2_regular", "--json"])
        assert code == 0
    assert all(m.kron is original_kron for m in importers)
    assert linalg.Matrix.__dict__["__matmul__"] is original_matmul
    names = {s[0] for s in t.spans}
    assert {"cli.main", "coend.natvee", "linalg.rref", "linalg.matmul"} <= names


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(1, 31)])
    assert (value, n) == (20.0, 30)
    assert pct == pytest.approx(200 / 3)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        set(run.END_TO_END_UNITS) - {"fail_ratio"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        worker.per_layer_names()


def _run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
                           "--seconds", "0"] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_of_all_workloads():
    result = _run_bench("--workload", "all")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(gen.WORKLOADS) * worker.MIN_JOBS
    for workload in gen.WORKLOADS:
        for name in ("jobs_per_s", "job_s.p50", "job_s.tail", "peak_rss_mb", "setup_s"):
            assert result["metrics"]["%s.%s" % (workload, name)]["value"] > 0


def test_smoke_traced_run_shows_duplicate_checks():
    result = _run_bench("--workload", "structure", "--trace", "1")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {name for name, _, _ in worker.per_layer_names()}
    assert m["report.checks_emitted"] > m["report.checks_unique"]
    assert m["linalg.rref.calls"] > 0 and m["coend.relation_rank"] == 0
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.job_wall_s"], rel=0.2)

    # The metrics average over both families; per hopf-fp job, from the spans:
    with open(os.path.join(BENCH, "out", "structure-seed1-trace-spans.json")) as fh:
        traced = json.load(fh)
    hopf = {i for i, job_id in enumerate(traced["jobs"]) if job_id.startswith("hopf-fp/")}
    assert hopf
    per_job = {}
    for span, own in zip(traced["spans"], tracer.self_times(traced["spans"])):
        name, job = span[0], span[4]
        if job in hopf:
            calls, total = per_job.get((job, name), (0, 0.0))
            per_job[job, name] = (calls + 1, total + own)
    for job in hopf:
        assert per_job[job, "hopf.BialgebraData.checks"][0] == 4
        assert per_job[job, "hopf.CoalgebraData.checks"][0] == 6
        wall = sum(t for (j, _), (_, t) in per_job.items() if j == job)
        assert per_job[job, "linalg.rref"][1] < 0.05 * wall
