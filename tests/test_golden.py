"""Golden files of the CLI's exact output.

``GOLDEN`` maps each golden file to the function that produces it;
``python tests/test_golden.py`` rewrites all of them, and a diff there is
a change of the program's output.
"""

import hashlib
import importlib.util
import json
import os

import pytest

import golden_diff
from conftest import (DOCUMENT_COMMANDS, FIXTURES, FRT_R, SUPER_SWAP, SWAP,
                      cyclic_document, run_cli, schur_weyl_document)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
# Z/6 on its regular representation by the shift conjugated by a fixed
# monomial matrix, so that over Q the entries have denominators; the
# ambient space of End^∨ has dimension 36, and the relation system,
# whose kernel is Nat, is 36×36, so elimination is real
CYCLIC_N = 6
CYCLIC_PERM = [3, 0, 5, 1, 4, 2]
CYCLIC_DIAG = [2, -3, 1, 3, -1, -2]
CYCLIC_FIELDS = {"Q": None, "F101": 101}
# Schur–Weyl at k = 2: End^∨ is not cocommutative and its quotient
# dimension (13 or 15) is far above every F(V_j) (at most 4)
SCHUR_WEYL_FAMILIES = {"swap": SWAP, "frt": FRT_R, "super": SUPER_SWAP}


def cli_outputs():
    """Exit code and exact ``--json`` stdout per (command, fixture)."""
    outputs = {}
    for cmd in DOCUMENT_COMMANDS:
        for name in FIXTURES:
            code, out, _ = run_cli([cmd, "--fixture", name, "--json"])
            outputs["%s %s" % (cmd, name)] = {"exit": code, "stdout": out}
    return outputs


def cyclic_outputs():
    """Exit code and exact ``--json`` stdout per (command, field) on cyclic
    Z/6, with the document on stdin, and of ``rho-tilde`` per field on the
    same document with the trivial coaction, where ρ̃ is not injective."""
    outputs = {}
    for label, p in CYCLIC_FIELDS.items():
        doc = json.dumps(cyclic_document(CYCLIC_N, p, CYCLIC_PERM, CYCLIC_DIAG))
        for cmd in ("nat", "reconstruct", "rho-tilde", "lift"):
            code, out, _ = run_cli([cmd, "--json"], doc)
            outputs["%s %s" % (cmd, label)] = {"exit": code, "stdout": out}
        doc = json.dumps(cyclic_document(CYCLIC_N, p, CYCLIC_PERM, CYCLIC_DIAG,
                                         trivial=True))
        code, out, _ = run_cli(["rho-tilde", "--json"], doc)
        outputs["rho-tilde trivial %s" % label] = {"exit": code, "stdout": out}
    return outputs


def schur_weyl_outputs():
    """Exit code and exact ``--json`` stdout of ``lift`` and ``reconstruct``
    per (command, family, field) on ``schur_weyl_document(2, p, r)``, with
    the document on stdin."""
    outputs = {}
    for family, r in SCHUR_WEYL_FAMILIES.items():
        for label, p in CYCLIC_FIELDS.items():
            doc = json.dumps(schur_weyl_document(2, p, r))
            for cmd in ("lift", "reconstruct"):
                code, out, _ = run_cli([cmd, "--json"], doc)
                outputs["%s %s %s" % (cmd, family, label)] = {
                    "exit": code, "stdout": out}
    return outputs


def bench_digests():
    """Exit code and sha256 of stdout per (seed, job) over one round of each
    benchmark workload at seeds 1 and 2, with the job's document on stdin
    as ``bench/worker.py`` runs it.  ``bench/gen.py`` is loaded from its
    path."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", os.path.join(ROOT, "bench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    digests = {}
    for seed in (1, 2):
        for workload in gen.WORKLOADS:
            for job in gen.round_jobs(workload, seed):
                code, out, _ = run_cli(job["argv"], job["stdin"])
                digests["%d %s" % (seed, job["id"])] = {
                    "exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    return digests


GOLDEN = {"cli_outputs.json": cli_outputs,
          "cyclic_outputs.json": cyclic_outputs,
          "schur_weyl_outputs.json": schur_weyl_outputs,
          "bench_digests.json": bench_digests}


def read_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_matches_golden(name):
    golden = read_golden(name)
    current = GOLDEN[name]()
    assert sorted(current) == sorted(golden)
    for key, expected in golden.items():
        assert current[key] == expected, key


def test_cyclic_reconstruct_is_the_regular_quotient():
    golden = read_golden("cyclic_outputs.json")
    for label in CYCLIC_FIELDS:
        payload = json.loads(golden["reconstruct %s" % label]["stdout"])
        assert (payload["quotient_dim"], payload["relation_rank"]) == (
            CYCLIC_N, CYCLIC_N * CYCLIC_N - CYCLIC_N)


def test_golden_diff_says_what_changed_inside_an_entry():
    def entry(code, checks, **keys):
        out = dict(keys, checks=[{"name": n, "passed": ok} for n, ok in checks])
        return {"exit": code, "stdout": json.dumps(out)}

    old = entry(0, [("a", True), ("b", True), ("c", True)], dim=2)
    new = entry(1, [("a", False), ("c", True), ("d", True)], dim=2, extra=1)
    assert golden_diff.entry_changes(old, new) == [
        "exit: 0 -> 1", "key changed: extra", "checks gone: b", "checks new: d",
        "checks changed: a"]
    assert golden_diff.entry_changes({"exit": 0, "stdout": "x"},
                                     {"exit": 0, "stdout": "y"}) == []


if __name__ == "__main__":
    for name, produce in GOLDEN.items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as fh:
            json.dump(produce(), fh, indent=1, sort_keys=True)
            fh.write("\n")
