import argparse
import io
import json
import os
import subprocess
import sys

import pytest

from tannakit import Matrix
from tannakit import cli
from tannakit.cli import load_fixture_text, main
from tannakit.fields import GF, QQ
from tannakit.report import Check, check_equal

from conftest import DOCUMENT_COMMANDS, FIXTURES, cyclic_document

BROKEN_DOC = {
    "field": "Q",
    "objects": ["star"],
    "generators": [{"name": "g", "src": "star", "dst": "star"}],
    "relations": [[["g", "g"], {"at": "star"}]],
    "functor": {
        "on_objects": {"star": 2},
        "on_generators": {"g": [["1", "1"], ["0", "1"]]}
    }
}

EMPTY_DOC = {"field": "Q", "objects": [], "generators": [], "relations": [],
             "functor": {"on_objects": {}, "on_generators": {}}}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rejected(capsys, *argv):
    """The one stderr line of a run that rejects its input with exit code 2."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    return captured.err[:-1]


def test_validate_fixture_passes(capsys):
    code, out = run(capsys, "validate", "--fixture", "z2_character")
    assert code == 0
    assert "result: ok" in out


def test_validate_broken_relation_fails_with_name(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_DOC))
    code, out = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert "relation:0" in out and "g.g" in out


def test_validate_empty_category_passes(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(EMPTY_DOC))
    code, out = run(capsys, "validate", "--input", str(path))
    assert code == 0


def test_validate_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EMPTY_DOC)))
    code, out = run(capsys, "validate")
    assert code == 0


def test_negative_object_dimension_fails_validation(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"objects": ["a"],
                                "functor": {"on_objects": {"a": -2}}}))
    negative = {"name": "object_dim:a", "passed": False, "residue": "negative"}
    for command in ("validate", "reconstruct", "lift", "nat", "rho-tilde",
                    "characters"):
        code, out = run(capsys, command, "--input", str(path), "--json")
        report = json.loads(out)
        assert code == 1 and not report["passed"]
        assert report["checks"][0] == negative
        if command in ("validate", "reconstruct"):
            assert report["checks"] == [negative]


@pytest.mark.parametrize("text, message", [
    ('"x"', "input must be a JSON object"),
    ("[]", "input must be a JSON object"),
    ("{}", 'input has no "functor" object'),
])
def test_document_without_functor_object_exits_with_one_line(monkeypatch, capsys,
                                                             text, message):
    for command in ("validate", "reconstruct"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert rejected(capsys, command, "--field", "Q") == message


def test_reconstruct_character_fixture_json(capsys):
    code, out = run(capsys, "reconstruct", "--fixture", "z2_character", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient_dim"] == 2
    assert payload["passed"] is True
    assert payload["grouplike_table"] == [[0, 1], [1, 0]]
    assert payload["character_table"] == [[0, 1], [1, 0]]
    assert "antipode" in payload["structure"]


def test_reconstruct_trivial(capsys):
    code, out = run(capsys, "reconstruct", "--fixture", "trivial", "--json")
    assert code == 0
    assert json.loads(out)["quotient_dim"] == 1


def test_reconstruct_regular_coalgebra_only(capsys):
    code, out = run(capsys, "reconstruct", "--fixture", "z2_regular", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient_dim"] == 2
    assert "m" not in payload["structure"]


def test_reports_are_byte_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "reconstruct", "--fixture", "z2_character", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_lift_fixture(capsys):
    code, out = run(capsys, "lift", "--fixture", "z2_regular", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["coactions"]) == {"star"}


def test_rho_tilde_comatrix(capsys):
    code, out = run(capsys, "rho-tilde", "--fixture", "comatrix2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 4 and payload["bijective"] is True


def test_rho_tilde_function_coalgebra(capsys):
    code, out = run(capsys, "rho-tilde", "--fixture", "z2_function", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["surjective"] is True and payload["injective"] is False


def test_rho_tilde_requires_sections(capsys):
    code, out = run(capsys, "rho-tilde", "--fixture", "z2_regular", "--json")
    assert code == 1
    assert "rho_tilde_inputs" in out


def test_nat_fixture(capsys):
    code, out = run(capsys, "nat", "--fixture", "z2_regular", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coend_dim"] == payload["nat_dim"] == 2


def test_characters_fixture(capsys):
    code, out = run(capsys, "characters", "--fixture", "z2_character", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["character_table"] == [[0, 1], [1, 0]]


def test_coherence_equal_pair(capsys):
    code, out = run(capsys, "coherence",
                    "(swap[x,y;0] ; swap[y,x;0])", "id[x,y]",
                    "--dims", "x=2,y=3")
    assert code == 0
    assert "PASS expressions_equal" in out


def test_coherence_unequal_pair(capsys):
    code, out = run(capsys, "coherence", "swap[x,x;0]", "id[x,x]")
    assert code == 1
    assert "FAIL expressions_equal" in out


def test_coherence_cross_check_at_dimension_one(capsys):
    # both sides evaluate to the 1×1 identity, which the permutations predict
    code, out = run(capsys, "coherence", "swap[a,a;0]", "id[a,a]", "--dims", "a=1")
    assert code == 1
    assert "FAIL expressions_equal" in out
    assert "PASS matrix_evaluation_agrees" in out


@pytest.mark.parametrize("dims", ["x", "x=y", "x=-1", "x=0", "x=2,y", "=2",
                                  "x=\u00b2", "x=2", "x=2,x=3"])
def test_coherence_bad_dims_exit_with_one_line(capsys, dims):
    # "x=2" leaves y without a dimension
    message = rejected(capsys, "coherence", "swap[x,y;0]", "swap[x,y;0]",
                       "--dims", dims)
    assert message.startswith("--dims")


def test_coherence_word_dimension_capped(capsys):
    word = ",".join(["x"] * 11)
    message = rejected(capsys, "coherence", "id[%s]" % word, "id[%s]" % word,
                       "--dims", "x=2")
    assert "word dimension exceeds" in message


@pytest.mark.parametrize("expr", ["swap[a,b;x]", "swap[a,b;0", "swap[a,b;]",
                                  "(id[a] ; id[b])", "id[a,,b]", "swap[,;0]"])
def test_coherence_bad_expression_exits_with_one_line(capsys, expr):
    message = rejected(capsys, "coherence", expr, "id[a,b]")
    assert message.startswith("coherence:")


def test_empty_atom_is_blamed_on_the_expression_not_on_dims(capsys):
    message = rejected(capsys, "coherence", "id[a,,b]", "id[a,,b]",
                       "--dims", "a=2,b=2")
    assert message.startswith("coherence:") and "empty atom" in message


def test_coherence_nesting_is_capped(capsys):
    expr = "id[a]"
    for _ in range(1200):
        expr = "(%s ; id[a])" % expr
    message = rejected(capsys, "coherence", expr, "id[a]")
    assert message == "coherence: expression nests deeper than 200"


def test_closed_stdout_exits_141_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    try:
        proc = subprocess.run([sys.executable, "-m", "tannakit.cli", "reconstruct",
                               "--fixture", "z2_character", "--json"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_unknown_fixture_errors(capsys):
    message = rejected(capsys, "validate", "--fixture", "no_such_fixture")
    assert message.startswith("unknown fixture 'no_such_fixture'; available: ")


def test_unreadable_input_is_rejected(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        message = rejected(capsys, "validate", "--input", str(path))
        assert message.startswith("cannot read input: [Errno ")
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    rejected(capsys, "validate", "--input", str(undecodable))


def test_deeply_nested_json_is_rejected(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000 + "]" * 100000))
    assert (rejected(capsys, "validate")
            == "input JSON nests too deeply to decode")


@pytest.mark.parametrize("argv, source", [
    (["validate", "--fixture", "no_such_fixture"], None),
    (["validate", "--fixture", "trivial", "--field", "F7"], None),
    (["validate", "--fixture", "trivial", "--field", "Fp:4"], "field"),
    (["coherence", "swap[a,b;x]", "id[a,b]"], "coherence"),
    (["coherence", "swap[a,b;0]", "swap[a,b;0]", "--dims", "a=2"], "--dims"),
    (["coherence", "swap[a,b;0]", "swap[a,b;0]", "--dims", "a"], "--dims"),
    (["coherence", "swap[a,b;0]", "swap[a,b;0]", "--dims", "a=2,b=3,a=5"], "--dims"),
])
def test_json_error_carries_the_line(capsys, argv, source):
    line = rejected(capsys, *argv)
    assert main(argv + ["--json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["source"] == source
    assert line == ("%s: %s" % (source, error["message"]) if source
                    else error["message"])


USAGE_ERRORS = [
    (["validate", "--fixture", "trivial", "--bogus"], "unrecognized arguments: --bogus"),
    (["nat", "--field"], "argument --field: expected one argument"),
    (["coherence", "id[a]"], "the following arguments are required: expr2"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=["unknown", "value", "missing"])
def test_usage_error_keeps_the_argparse_report(monkeypatch, capsys, argv, message):
    assert main(argv) == 2
    ours = capsys.readouterr()
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert (ours.out, ours.err) == ("", capsys.readouterr().err)
    assert ours.err.endswith(": error: %s\n" % message)


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=["unknown", "value", "missing"])
def test_usage_error_under_json_is_a_json_error(capsys, argv, message):
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": {"source": "usage",
                                                  "message": message}}


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["nat", "--help", "--json"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tannakit")


@pytest.mark.parametrize("flag", ["Fp:x", "Fp:", "Fp:5.0", "F7"])
def test_field_flag_rejects_malformed_modulus(capsys, flag):
    message = rejected(capsys, "validate", "--fixture", "trivial", "--field", flag)
    assert message == "--field must be Q or Fp:<prime>"


def test_field_override(tmp_path, capsys):
    doc = dict(EMPTY_DOC)
    doc.pop("field")
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", "--input", str(path), "--field", "Fp:5")
    assert code == 0


def largest_allocation(monkeypatch, capsys, path, commands):
    """Entries of the largest ``Matrix`` that the commands allocate on the
    document at ``path``; each command must exit 0."""
    largest = [0]
    zeros, init = Matrix.zeros.__func__, Matrix.__init__

    def recording_zeros(cls, field, rows, cols):
        largest[0] = max(largest[0], rows * cols)
        return zeros(cls, field, rows, cols)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        largest[0] = max(largest[0], self.rows * self.cols)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "zeros", classmethod(recording_zeros))
        patch.setattr(Matrix, "__init__", recording_init)
        for command in commands:
            code, out = run(capsys, command, "--input", str(path), "--json")
            assert code == 0, out
    return largest[0]


def test_cyclic_jobs_allocate_at_most_ambient_squared(tmp_path, monkeypatch, capsys):
    # Δ, the coalgebra laws and the comodule laws contract one index at a
    # time, so no cyclic job allocates a Kronecker product of λ with itself
    n = 5
    ambient_dim = n * n
    path = tmp_path / "cyclic5.json"
    path.write_text(json.dumps(cyclic_document(n)))
    largest = largest_allocation(monkeypatch, capsys, path,
                                 ("reconstruct", "lift", "rho-tilde"))
    assert 0 < largest <= ambient_dim ** 2


def test_nat_allocates_no_ambient_square(tmp_path, monkeypatch, capsys):
    # the relation and naturality systems are eliminated as sparse rows,
    # so the largest matrix nat builds is a λ or a projection
    n = 5
    ambient_dim = n * n
    path = tmp_path / "cyclic5.json"
    path.write_text(json.dumps(cyclic_document(n)))
    largest = largest_allocation(monkeypatch, capsys, path, ("nat",))
    assert 0 < largest <= ambient_dim * n


@pytest.mark.parametrize("modulus", ["4", "3317044064679887385961981"])
def test_unusable_modulus_exits_with_one_line(tmp_path, capsys, modulus):
    message = rejected(capsys, "validate", "--fixture", "z2_character",
                       "--field", "Fp:" + modulus)
    assert message.startswith("field:") and modulus in message
    doc = dict(EMPTY_DOC, field={"Fp": int(modulus)})
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(doc))
    assert rejected(capsys, "validate", "--input", str(path)) == message


@pytest.mark.parametrize("fixture", FIXTURES)
def test_every_residue_is_zero_exactly_when_its_check_passes(capsys, fixture):
    for command in DOCUMENT_COMMANDS:
        code, out = run(capsys, command, "--fixture", fixture, "--json")
        checks = json.loads(out)["checks"]
        assert checks
        for check in checks:
            assert (check["residue"] == "0") == check["passed"], check


def test_check_owns_the_residue_convention():
    assert Check("x", True, "escapes").residue == "0"
    assert Check("x", False, "escapes").residue == "escapes"
    for residue in (None, "0"):
        with pytest.raises(ValueError):
            Check("x", False, residue)


@pytest.mark.parametrize("field, diff, residue", [
    (QQ, [["3", "-3"]], "3"),
    (QQ, [["-3", "3"]], "-3"),
    (QQ, [["1/2", "-7/2"]], "-7/2"),
    (GF(7), [["2", "5"], ["0", "3"]], "5 mod 7"),
])
def test_check_equal_residue_is_the_first_largest_entry_of_lhs_minus_rhs(
        field, diff, residue):
    offset = field.parse("1/3" if field == QQ else "4")
    rhs = Matrix(field, [[offset] * len(row) for row in diff])
    lhs = Matrix(field, [[field.add(field.parse(x), offset) for x in row]
                         for row in diff])
    check = check_equal("law", lhs, rhs)
    assert (check.passed, check.residue) == (False, residue)
    assert check_equal("law", rhs, rhs).to_json() == \
        {"name": "law", "passed": True, "residue": "0"}


def test_check_equal_on_empty_and_mismatched_shapes():
    assert check_equal("law", Matrix.zeros(QQ, 0, 3), Matrix.zeros(QQ, 0, 3)).passed
    check = check_equal("law", Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 3))
    assert check.to_json() == {"name": "law", "passed": False, "residue": "shape",
                               "detail": {"lhs_shape": [2, 2], "rhs_shape": [2, 3]}}


def run_document(monkeypatch, capsys, command, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main([command, "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_duality_without_tensor_fails_validate_and_reconstruct(monkeypatch, capsys):
    doc = json.loads(load_fixture_text("z2_character"))
    del doc["tensor"]
    needs = {"name": "duality_needs_tensor", "passed": False, "residue": "missing"}
    for command in ("validate", "reconstruct"):
        code, report = run_document(monkeypatch, capsys, command, doc)
        assert code == 1 and report["checks"][-1] == needs, command


def test_generator_into_a_zero_dimensional_object(monkeypatch, capsys):
    # g: a → z with dims 2 and 0 has the 0×2 matrix, written [] like 0×0
    doc = {"field": "Q", "objects": ["a", "z"],
           "generators": [{"name": "g", "src": "a", "dst": "z"},
                          {"name": "h", "src": "z", "dst": "a"}],
           "functor": {"on_objects": {"a": 2, "z": 0},
                       "on_generators": {"g": [], "h": [[], []]}}}
    code, report = run_document(monkeypatch, capsys, "validate", doc)
    assert (code, report["passed"]) == (0, True)
    code, report = run_document(monkeypatch, capsys, "nat", doc)
    assert (code, report["coend_dim"], report["nat_dim"]) == (0, 4, 4)
    # a [] of any other shape is still a failing shape check
    doc["functor"]["on_objects"]["z"] = 1
    code, report = run_document(monkeypatch, capsys, "validate", doc)
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "generator_shape:g", "generator_shape:h"]


def test_characters_stops_at_failing_functor_report(monkeypatch, capsys):
    doc = json.loads(load_fixture_text("z2_character"))
    del doc["functor"]["on_objects"]["one"]
    code, report = run_document(monkeypatch, capsys, "characters", doc)
    assert code == 1
    assert report["checks"] == [{"name": "object_dim:one", "passed": False,
                                 "residue": "missing"}]


def zero_rows(rows, cols):
    return [["0"] * cols for _ in range(rows)]


@pytest.mark.parametrize("section, key, value, failing", [
    ("comodules", "B", zero_rows(4, 2), [("coaction_counit:B", "-1")]),
    ("coalgebra", "delta", zero_rows(4, 2),
     [("counit_left", "-1"), ("counit_right", "-1")]),
    ("comodules", "B", zero_rows(3, 2), [("rho_tilde_inputs", "shape")]),
    ("comodules", None, None, [("rho_tilde_inputs", "missing")]),
    ("coalgebra", "delta", zero_rows(3, 2), [("rho_tilde_inputs", "shape")]),
], ids=["not-a-comodule", "zero-delta", "comodule-shape", "no-comodules",
        "delta-shape"])
def test_rho_tilde_reports_bad_inputs(monkeypatch, capsys, section, key, value,
                                      failing):
    doc = json.loads(load_fixture_text("z2_function"))
    if key is None:
        doc[section] = {}
    else:
        doc[section][key] = value
    code, report = run_document(monkeypatch, capsys, "rho-tilde", doc)
    assert code == 1 and not report["passed"]
    assert [(c["name"], c["residue"]) for c in report["checks"]
            if not c["passed"]] == failing
    assert "rho_tilde" not in report


def test_rho_tilde_passing_document_unchanged(monkeypatch, capsys):
    doc = json.loads(load_fixture_text("z2_function"))
    code, report = run_document(monkeypatch, capsys, "rho-tilde", doc)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == [
        "functor:no_relations", "coassociativity", "counit_left",
        "counit_right", "rho_tilde_well_defined", "rho_tilde_respects_delta",
        "rho_tilde_respects_eps"]


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]
    return mutate


def _drop_s_comma(doc):
    smaps = doc["tensor"]["s"]
    key = next(iter(smaps))
    smaps[key.replace(",", "")] = smaps.pop(key)


def _relation_with_different_endpoints(doc):
    # g: a → b with the relation g = id_a
    doc.update(objects=["a", "b"],
               generators=[{"name": "g", "src": "a", "dst": "b"}],
               relations=[[["g"], {"at": "a"}]],
               functor={"on_objects": {"a": 1, "b": 1},
                        "on_generators": {"g": [["1"]]}})


MALFORMED = [
    ("z2_regular", _set(("functor", "on_objects", "star"), "x"), "document:"),
    ("z2_regular", _set(("functor", "on_objects", "star"), 1.5), "document:"),
    ("z2_regular", _set(("functor", "on_objects", "star"), True), "document:"),
    ("z2_regular", _set(("functor", "on_objects"), "x"), "document:"),
    ("z2_regular", _set(("functor", "on_generators", "g"), [["1"], ["1", "2"]]),
     "document:"),
    ("z2_regular", _set(("functor", "on_generators", "g", 0, 0), "1/0"), "field:"),
    ("z2_regular", _set(("functor", "on_generators", "g", 0, 0), "abc"), "field:"),
    ("z2_regular", _set(("functor", "on_generators", "g", 0, 0), 0), "field:"),
    ("z2_regular", _set(("generators", 0, "dst"), "nowhere"), "document:"),
    ("z2_regular", _drop(("generators", 0, "name")), "document:"),
    ("z2_regular", _set(("objects",), 3), "document:"),
    ("z2_regular", _set(("generators",), 3), "document:"),
    ("z2_regular", _set(("relations", 0), [["g", "g"]]), "document:"),
    ("z2_regular", _set(("relations", 0), [["h"], {"at": "star"}]), "document:"),
    ("z2_regular", _relation_with_different_endpoints, "document:"),
    ("z2_character", _drop(("tensor", "unit")), "document:"),
    ("z2_character", _drop_s_comma, "document:"),
    ("z2_character", _drop(("tensor", "on_objects", -1)), "document:"),
    ("z2_character", _drop(("duality", "dual_of")), "document:"),
    ("z2_character", _set(("duality", "dual_of", "one"), "nowhere"), "document:"),
    ("z2_regular", _set(("field",), {"Fp": "x"}), "field:"),
    ("trivial", _set(("objects",), ["I", "I"]), "document:"),
]


@pytest.mark.parametrize("fixture, mutate, prefix", MALFORMED, ids=[
    "dim-text", "dim-float", "dim-bool", "on_objects-text", "ragged-rows",
    "scalar-1/0", "scalar-abc", "scalar-number", "unknown-dst", "no-name",
    "objects-number", "generators-number", "one-sided-relation",
    "relation-unknown-generator", "relation-endpoints", "tensor-no-unit",
    "s-key-no-comma", "tensor-table-missing-pair", "no-dual_of", "dual_of-unknown",
    "field-modulus-text", "duplicate-object"])
@pytest.mark.parametrize("command", ["validate", "reconstruct"])
def test_malformed_document_exits_with_one_line(monkeypatch, capsys, command,
                                                fixture, mutate, prefix):
    doc = json.loads(load_fixture_text(fixture))
    mutate(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main([command, "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    message = "%s: %s" % (error["source"], error["message"])
    assert message.startswith(prefix) and "\n" not in message


def test_missing_dimension_fails_every_command(monkeypatch, capsys):
    doc = json.loads(load_fixture_text("z2_regular"))
    del doc["functor"]["on_objects"]["star"]
    for command in DOCUMENT_COMMANDS:
        code, report = run_document(monkeypatch, capsys, command, doc)
        assert code == 1 and not report["passed"]
        assert report["checks"][0] == {"name": "object_dim:star",
                                       "passed": False, "residue": "missing"}


def test_non_square_s_is_not_invertible(monkeypatch, capsys):
    # a⊗a = I with dims 2 and 1: the 1×4 s_{a,a} has a right inverse but
    # is no isomorphism F(a)⊗F(a) → F(I)
    ident2 = [["1", "0"], ["0", "1"]]
    doc = {"field": "Q", "objects": ["I", "a"], "generators": [], "relations": [],
           "functor": {"on_objects": {"I": 1, "a": 2}, "on_generators": {}},
           "tensor": {"unit": "I",
                      "on_objects": [["I", "I", "I"], ["I", "a", "a"],
                                     ["a", "I", "a"], ["a", "a", "I"]],
                      "s": {"I,I": [["1"]], "I,a": ident2, "a,I": ident2,
                            "a,a": [["1", "0", "0", "1"]]},
                      "f_unit": [["1"]]}}
    code, report = run_document(monkeypatch, capsys, "validate", doc)
    assert code == 1
    assert [(c["name"], c["passed"]) for c in report["checks"]
            if c["name"].startswith("s_invertible")] == [
        ("s_invertible:I,I", True), ("s_invertible:I,a", True),
        ("s_invertible:a,I", True), ("s_invertible:a,a", False)]
