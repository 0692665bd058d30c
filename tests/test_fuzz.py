"""Seeded mutation fuzzer over the shipped fixtures.

Each round makes one random edit to a fixture and runs it through
``cli.main`` with one document command: the run must end in a JSON report
(exit 0 or 1) or a JSON error (exit 2), and raise nothing.
"""

import copy
import json
import random

from tannakit.cli import load_fixture_text

from conftest import DOCUMENT_COMMANDS, FIXTURES, run_cli

REPLACEMENTS = [None, True, 0, 1, 2, -1, 1.5, "", "x", "0", "1", "-1", "1/0",
                "star", [], [[]], [["1"]], {}, {"at": "star"}, {"Fp": 4}]
ROUNDS = 600


def mutate(rng, doc):
    """One edit at the end of a random walk down ``doc``: replace the value
    with one from ``REPLACEMENTS``, delete it, or duplicate a list item."""
    parent, key = None, None
    node = doc
    while (isinstance(node, (dict, list)) and node
           and (parent is None or rng.random() < 0.6)):
        key = rng.choice(list(node)) if isinstance(node, dict) \
            else rng.randrange(len(node))
        parent, node = node, node[key]
    op = rng.choice(("replace", "delete", "duplicate"))
    if op == "duplicate" and isinstance(node, list) and node:
        node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
        return "duplicate an item of %r" % (key,)
    if op == "delete":
        del parent[key]
        return "delete %r" % (key,)
    parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return "set %r to %r" % (key, parent[key])


def test_mutated_fixtures_end_in_a_report_or_an_input_error():
    rng = random.Random(4)
    originals = {name: json.loads(load_fixture_text(name)) for name in FIXTURES}
    for round_ in range(ROUNDS):
        name, command = rng.choice(FIXTURES), rng.choice(DOCUMENT_COMMANDS)
        doc = copy.deepcopy(originals[name])
        edit = mutate(rng, doc)
        case = "round %d: %s on %s after %s" % (round_, command, name, edit)
        # a SystemExit leaves no JSON on stdout, so it fails here too
        try:
            code, out, err = run_cli([command, "--json"], json.dumps(doc))
            out = json.loads(out)
        except Exception as exc:
            raise AssertionError("%s raised %r" % (case, exc)) from exc
        assert err == "", case
        if code == 2:
            assert set(out) == {"error"} and out["error"]["message"], case
        else:
            assert code in (0, 1) and out["passed"] is (code == 0), case


def test_reconstruct_rejects_what_validate_rejects():
    """``reconstruct`` applies the stage rules of ``validate``: whenever
    ``validate`` exits 1 or 2, ``reconstruct`` exits with the same code.
    Inputs: every fixture without its tensor section, then seeded
    mutations."""
    originals = {name: json.loads(load_fixture_text(name)) for name in FIXTURES}
    cases = []
    for name, doc in originals.items():
        doc = copy.deepcopy(doc)
        doc.pop("tensor", None)
        cases.append(("%s without tensor" % name, doc))
    rng = random.Random(1)
    for round_ in range(200):
        name = rng.choice(FIXTURES)
        doc = copy.deepcopy(originals[name])
        cases.append(("round %d: %s after %s" % (round_, name, mutate(rng, doc)), doc))

    for case, doc in cases:
        code = run_cli(["validate", "--json"], json.dumps(doc))[0]
        if code in (1, 2):
            assert run_cli(["reconstruct", "--json"], json.dumps(doc))[0] == code, case
