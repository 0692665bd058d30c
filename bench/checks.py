"""Output invariants of benchmark jobs.

``check_job`` returns the list of problems with one job's ``--json``
output (empty when the job is correct).  The expected values come from
the generator, never from the program under test.
"""

import json


def _all_checks_pass(out, problems):
    failing = [c["name"] for c in out.get("checks", []) if not c.get("passed")]
    if failing:
        problems.append("failing checks: %s" % ", ".join(failing[:5]))
    if out.get("passed") is not True:
        problems.append("report not passed")


def _expect_eq(problems, label, got, want):
    if got != want:
        problems.append("%s is %r, expected %r" % (label, got, want))


def _check_coherence(job, code, out, problems):
    want = job["expect"]["equal"]
    _expect_eq(problems, "equal", out.get("equal"), want)
    # the CLI reports "not equal" as a failing check and exit code 1
    _expect_eq(problems, "exit code", code, 0 if want else 1)
    verdicts = {c["name"]: c["passed"] for c in out.get("checks", [])}
    _expect_eq(problems, "expressions_equal", verdicts.get("expressions_equal"), want)
    _expect_eq(problems, "matrix_evaluation_agrees",
               verdicts.get("matrix_evaluation_agrees"), True)


def _check_structure(job, code, out, problems):
    _expect_eq(problems, "exit code", code, 0)
    _all_checks_pass(out, problems)
    n = job["expect"]["n"]
    kind = job["kind"]
    if kind == "reconstruct":
        _expect_eq(problems, "quotient_dim", out.get("quotient_dim"), n)
        if job["family"] == "hopf-fp":
            _expect_eq(problems, "relation_rank", out.get("relation_rank"), 0)
            if "antipode" not in out.get("structure", {}):
                problems.append("no antipode in structure")
            if not str(out.get("grouplikes", "")).startswith("unsupported"):
                problems.append("grouplike search did not take the unsupported branch")
        else:
            _expect_eq(problems, "relation_rank", out.get("relation_rank"), n * n - n)
    elif kind == "lift":
        _expect_eq(problems, "quotient_dim", out.get("quotient_dim"), n)
        _expect_eq(problems, "coactions", sorted(out.get("coactions", {})), ["star"])
    elif kind == "nat":
        _expect_eq(problems, "coend_dim", out.get("coend_dim"), n)
        _expect_eq(problems, "nat_dim", out.get("nat_dim"), n)
    elif kind == "rho-tilde":
        _expect_eq(problems, "endvee_dim", out.get("endvee_dim"), n)
        _expect_eq(problems, "rank", out.get("rank"), n)
        _expect_eq(problems, "bijective", out.get("bijective"), True)
    else:
        problems.append("no invariants for subcommand %r" % kind)


def check_job(job, code, text):
    """Problems with one job's exit code and ``--json`` output text."""
    try:
        out = json.loads(text)
    except ValueError:
        return ["output is not JSON (exit code %r)" % (code,)]
    if not isinstance(out, dict):
        return ["output is not a JSON object"]
    problems = []
    if job["kind"] == "coherence":
        _check_coherence(job, code, out, problems)
    else:
        _check_structure(job, code, out, problems)
    return problems


def check_counts(out):
    """(emitted, unique) check names of one job's output."""
    names = [c["name"] for c in out.get("checks", [])]
    return len(names), len(set(names))
