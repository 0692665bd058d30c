import argparse
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

import tannakit
from tannakit import Matrix
from tannakit import cli, coend, hopf
from tannakit.cli import load_fixture_text, main
from tannakit.fields import GF, QQ, InputError
from tannakit.linalg import MAX_DENSE_ENTRIES, refuse_oversized
from tannakit.report import Check, check_equal

from conftest import (DOCUMENT_COMMANDS, FIXTURES, cyclic_document,
                      dense_residue, graded_document, rand_matrix,
                      rand_sparse_matrix, run_cli)

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


def rejected(*argv, stdin=None):
    """The one stderr line of a run that rejects its input with exit code 2."""
    code, out, err = run_cli(list(argv), stdin)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    return err[:-1]


def test_validate_fixture_passes():
    code, out, _ = run_cli(["validate", "--fixture", "z2_character"])
    assert code == 0
    assert "result: ok" in out


def test_validate_broken_relation_fails_with_name(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_DOC))
    code, out, _ = run_cli(["validate", "--input", str(path)])
    assert code == 1
    assert "relation:0" in out and "g.g" in out


def test_validate_empty_category_passes(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(EMPTY_DOC))
    code, out, _ = run_cli(["validate", "--input", str(path)])
    assert code == 0


def test_validate_reads_stdin():
    code, out, _ = run_cli(["validate"], json.dumps(EMPTY_DOC))
    assert code == 0


def test_negative_object_dimension_fails_validation(tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"objects": ["a"],
                                "functor": {"on_objects": {"a": -2}}}))
    negative = {"name": "object_dim:a", "passed": False, "residue": "negative"}
    for command in ("validate", "reconstruct", "lift", "nat", "rho-tilde",
                    "characters"):
        code, out, _ = run_cli([command, "--input", str(path), "--json"])
        report = json.loads(out)
        assert code == 1 and not report["passed"]
        assert report["checks"][0] == negative
        if command in ("validate", "reconstruct"):
            assert report["checks"] == [negative]


@pytest.mark.parametrize("text, message", [
    ('"x"', "input must be a JSON object"),
    ("[]", "input must be a JSON object"),
    ("{}", 'input has no "functor" object'),
    ("{", "input is not valid JSON: line 1 column 2: "
          "Expecting property name enclosed in double quotes"),
])
def test_document_without_functor_object_exits_with_one_line(text, message):
    for command in ("validate", "reconstruct"):
        assert rejected(command, "--field", "Q", stdin=text) == message


def test_reconstruct_character_fixture_json():
    code, out, _ = run_cli(["reconstruct", "--fixture", "z2_character", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient_dim"] == 2
    assert payload["passed"] is True
    assert payload["grouplike_table"] == [[0, 1], [1, 0]]
    assert payload["character_table"] == [[0, 1], [1, 0]]
    assert "antipode" in payload["structure"]


def test_reconstruct_trivial():
    code, out, _ = run_cli(["reconstruct", "--fixture", "trivial", "--json"])
    assert code == 0
    assert json.loads(out)["quotient_dim"] == 1


def test_reconstruct_regular_coalgebra_only():
    code, out, _ = run_cli(["reconstruct", "--fixture", "z2_regular", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient_dim"] == 2
    assert "m" not in payload["structure"]


def test_reports_are_byte_deterministic():
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["reconstruct", "--fixture", "z2_character", "--json"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_lift_fixture():
    code, out, _ = run_cli(["lift", "--fixture", "z2_regular", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload["coactions"]) == {"star"}


def test_rho_tilde_comatrix():
    code, out, _ = run_cli(["rho-tilde", "--fixture", "comatrix2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 4 and payload["bijective"] is True


def test_rho_tilde_function_coalgebra():
    code, out, _ = run_cli(["rho-tilde", "--fixture", "z2_function", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["surjective"] is True and payload["injective"] is False


def test_rho_tilde_requires_sections():
    code, out, _ = run_cli(["rho-tilde", "--fixture", "z2_regular", "--json"])
    assert code == 1
    assert "rho_tilde_inputs" in out


def test_nat_fixture():
    code, out, _ = run_cli(["nat", "--fixture", "z2_regular", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coend_dim"] == payload["nat_dim"] == 2


def test_characters_fixture():
    code, out, _ = run_cli(["characters", "--fixture", "z2_character", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["character_table"] == [[0, 1], [1, 0]]


def test_coherence_equal_pair():
    code, out, _ = run_cli(["coherence", "(swap[x,y;0] ; swap[y,x;0])", "id[x,y]",
                            "--dims", "x=2,y=3"])
    assert code == 0
    assert "PASS expressions_equal" in out


def test_coherence_unequal_pair():
    code, out, _ = run_cli(["coherence", "swap[x,x;0]", "id[x,x]"])
    assert code == 1
    assert "FAIL expressions_equal" in out


def test_coherence_cross_check_at_dimension_one():
    # both sides evaluate to the 1×1 identity, which the permutations predict
    code, out, _ = run_cli(["coherence", "swap[a,a;0]", "id[a,a]", "--dims", "a=1"])
    assert code == 1
    assert "FAIL expressions_equal" in out
    assert "PASS matrix_evaluation_agrees" in out


@pytest.mark.parametrize("dims", ["x", "x=y", "x=-1", "x=0", "x=2,y", "=2",
                                  "x=\u00b2", "x=2", "x=2,x=3"])
def test_coherence_bad_dims_exit_with_one_line(dims):
    # "x=2" leaves y without a dimension
    message = rejected("coherence", "swap[x,y;0]", "swap[x,y;0]",
                       "--dims", dims)
    assert message.startswith("--dims")


def test_coherence_word_dimension_capped():
    word = ",".join(["x"] * 11)
    message = rejected("coherence", "id[%s]" % word, "id[%s]" % word,
                       "--dims", "x=2")
    assert "word dimension exceeds" in message


BAD_EXPRESSIONS = {
    "swap[a,b;x]": "swap position must be an integer, got 'x'",
    "swap[a,b;0": "unterminated '['",
    "swap[a,b;]": "swap position must be an integer, got ''",
    "(id[a] ; id[b])": "composition boundary mismatch: ['a'] vs ['b']",
    "id[a,,b]": "empty atom name in word [a,,b]",
    "swap[,;0]": "empty atom name in word [,]",
    "swap[a,b;5]": "swap position 5 out of range for word of length 2",
    "(id[a] ; id[a]": "expected ')'",
    "foo": "cannot parse expression at: 'foo'",
}


@pytest.mark.parametrize("expr", list(BAD_EXPRESSIONS))
def test_coherence_bad_expression_exits_with_one_line(expr):
    message = rejected("coherence", expr, "id[a,b]")
    assert message == "coherence: " + BAD_EXPRESSIONS[expr]


@pytest.mark.parametrize("argv, failing, residue", [
    (["coherence", "id[a,b]", "id[b,a]"], "boundary_words_match", "mismatch"),
    (["characters", "--fixture", "z2_character", "--field", "Fp:367"],
     "character_search", "enumeration space 134689 exceeds the bound"),
], ids=["coherence-boundary", "characters-bound"])
def test_refused_computation_is_one_failing_check(argv, failing, residue):
    code, out, _ = run_cli(argv + ["--json"])
    failures = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert code == 1
    assert failures == [{"name": failing, "passed": False, "residue": residue}]


def test_refused_character_search_keeps_the_grouplike_group(monkeypatch):
    # over Q the grouplikes of a grouplike basis are read off, while the
    # characters enumerate 3^2 value patterns, which this bound refuses
    monkeypatch.setattr(hopf, "ENUMERATION_BOUND", 8)
    code, out, _ = run_cli(["reconstruct", "--fixture", "z2_character", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert payload["grouplikes"] == [["1", "0"], ["0", "1"]]
    assert "grouplike_table" in payload and "character_table" not in payload
    assert payload["characters"] == (
        "unsupported: value-pattern space 3^2 exceeds the bound")
    assert [c["name"] for c in payload["checks"][-3:]] == [
        "grouplike_unit_is_member", "grouplike_closure",
        "grouplike_antipode_inverse"]


def test_field_flag_naming_the_document_field_changes_nothing():
    argv = ["reconstruct", "--fixture", "z2_character", "--json"]
    assert run_cli(argv + ["--field", "Q"]) == run_cli(argv)


def test_readme_commands_exit_zero():
    # every tannakit line of the sh block in the README's "Command line"
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("tannakit ")]
    assert len(commands) == 7
    for line in commands:
        code, _, err = run_cli(shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, ""), line


def test_empty_atom_is_blamed_on_the_expression_not_on_dims():
    message = rejected("coherence", "id[a,,b]", "id[a,,b]",
                       "--dims", "a=2,b=2")
    assert message.startswith("coherence:") and "empty atom" in message


def test_coherence_nesting_is_capped():
    expr = "id[a]"
    for _ in range(1200):
        expr = "(%s ; id[a])" % expr
    message = rejected("coherence", expr, "id[a]")
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


def test_importlib_resources_is_imported_only_when_a_fixture_is_read():
    # -S: no site hook, which would import importlib.resources itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tannakit.__file__))
    code = ("import sys, tannakit.cli\n"
            "print('importlib.resources' in sys.modules)\n"
            "code = tannakit.cli.main(['validate', '--fixture', 'trivial', '--json'])\n"
            "print(code, 'importlib.resources' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (lines[0], lines[-1]) == ("False", "0 True")
    assert '"passed": true' in proc.stdout


def test_unknown_fixture_errors():
    message = rejected("validate", "--fixture", "no_such_fixture")
    assert message.startswith("unknown fixture 'no_such_fixture'; available: ")


@pytest.mark.parametrize("dim", [100, 10**6])
@pytest.mark.parametrize("command", ["nat", "lift", "reconstruct"])
def test_an_oversized_dense_matrix_is_refused_before_it_is_allocated(command, dim):
    # one object of dimension d has a d² × d² coend projection
    doc = {"objects": ["a"], "functor": {"on_objects": {"a": dim}}}
    start = time.perf_counter()
    code, out, err = run_cli([command, "--json"], json.dumps(doc))
    assert time.perf_counter() - start < 1
    assert (code, err) == (2, "")
    error = json.loads(out)["error"]
    assert error["source"] == "document"
    assert "exceeds the limit of %d dense entries" % MAX_DENSE_ENTRIES \
        in error["message"]


@pytest.mark.parametrize("dim", [77, 100, 200])
@pytest.mark.parametrize("command", ["nat", "lift", "reconstruct"])
def test_a_coend_too_large_to_eliminate_is_refused_before_its_relations(command, dim):
    # one dense generator g: a → a gives d² relation rows in an ambient of
    # dimension d², whose echelon and projection fit in d² × d²; that square
    # is refused before a row is built (at d = 100 elimination used to run
    # for a minute, at d = 200 out of memory), and d = 76 is still admitted
    assert 76 ** 4 <= MAX_DENSE_ENTRIES < 77 ** 4
    g = [[str((7 * i + 3 * j + 1) % 101) for j in range(dim)] for i in range(dim)]
    doc = {"field": {"Fp": 101}, "objects": ["a"],
           "generators": [{"name": "g", "src": "a", "dst": "a"}],
           "functor": {"on_objects": {"a": dim}, "on_generators": {"g": g}}}
    text = json.dumps(doc)
    start = time.perf_counter()
    code, out, err = run_cli([command, "--json"], text)
    assert time.perf_counter() - start < 1
    assert (code, err) == (2, "")
    assert json.loads(out)["error"] == {
        "source": "document",
        "message": "a %d x %d matrix exceeds the limit of %d dense entries"
                   % (dim * dim, dim * dim, MAX_DENSE_ENTRIES)}


def test_the_dense_limit_lies_between_schur_weyl_2_4_and_3_3():
    assert 24_010_000 <= MAX_DENSE_ENTRIES < 48_400 * 820
    refuse_oversized(1, MAX_DENSE_ENTRIES)
    with pytest.raises(InputError) as info:
        Matrix.zeros(QQ, 2, MAX_DENSE_ENTRIES // 2 + 1)
    assert info.value.source == "document"


def test_unreadable_input_is_rejected(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        message = rejected("validate", "--input", str(path))
        assert message.startswith("cannot read input: [Errno ")
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    rejected("validate", "--input", str(undecodable))


@pytest.mark.parametrize("flag, prefix", [
    ("--input", "cannot read input: "),
    ("--fixture", "unknown fixture 'a\\x00b'; available: ")])
def test_nul_in_a_path_is_rejected(flag, prefix):
    # only an in-process caller can pass a NUL; open() raises ValueError on it
    code, out, _ = run_cli(["nat", flag, "a\x00b", "--json"])
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith(prefix)


def test_deeply_nested_json_is_rejected():
    assert (rejected("validate", stdin="[" * 100000 + "]" * 100000)
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
def test_json_error_carries_the_line(argv, source):
    line = rejected(*argv)
    code, out, _ = run_cli(argv + ["--json"])
    assert code == 2
    error = json.loads(out)["error"]
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
def test_usage_error_under_json_is_a_json_error(argv, message):
    code, out, err = run_cli(argv + ["--json"])
    assert (code, err) == (2, "")
    assert json.loads(out) == {"error": {"source": "usage", "message": message}}


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["nat", "--help", "--json"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tannakit")


@pytest.mark.parametrize("flag", ["Fp:x", "Fp:", "Fp:5.0", "F7"])
def test_field_flag_rejects_malformed_modulus(flag):
    message = rejected("validate", "--fixture", "trivial", "--field", flag)
    assert message == "--field must be Q or Fp:<prime>"


def test_field_override(tmp_path):
    doc = dict(EMPTY_DOC)
    doc.pop("field")
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["validate", "--input", str(path), "--field", "Fp:5"])
    assert code == 0


def largest_allocation(monkeypatch, path, commands):
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
            code, out, _ = run_cli([command, "--input", str(path), "--json"])
            assert code == 0, out
    return largest[0]


def call_counts(monkeypatch, path, command, targets):
    """Calls per ``(owner, name)`` in ``targets`` while ``command`` runs on
    the document at ``path``; it must exit 0.  A function is counted under
    every tannakit module that binds it, a method on its class."""
    counts = {name: 0 for _, name in targets}
    with monkeypatch.context() as patch:
        for owner, name in targets:
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            if isinstance(owner, type):
                patch.setattr(owner, name, counted)
                continue
            for module in [tannakit, *vars(tannakit).values()]:
                if getattr(module, name, None) is original:
                    patch.setattr(module, name, counted)
        code, out, _ = run_cli([command, "--input", str(path), "--json"])
    assert code == 0, out
    return counts


def test_lift_checks_no_coalgebra_laws(tmp_path, monkeypatch):
    # lift's comodule report already verifies the Δ and ε it builds, so
    # it builds Δ once and runs no CoalgebraData.checks
    path = tmp_path / "cyclic5.json"
    path.write_text(json.dumps(cyclic_document(5)))
    counts = call_counts(monkeypatch, path, "lift",
                         [(hopf.CoalgebraData, "checks"), (coend, "cocomposition")])
    assert counts == {"checks": 0, "cocomposition": 1}


@pytest.mark.parametrize("trivial, calls", [(False, 1), (True, 2)],
                         ids=["injective", "trivial-coaction"])
def test_rho_tilde_checks_endvee_only_when_not_injective(tmp_path, monkeypatch,
                                                         trivial, calls):
    # B's laws are always checked; an injective ρ̃ that respects Δ and ε
    # implies End^∨'s, so only a rank-deficient ρ̃ checks End^∨ as well
    path = tmp_path / "cyclic5.json"
    path.write_text(json.dumps(cyclic_document(5, trivial=trivial)))
    counts = call_counts(monkeypatch, path, "rho-tilde",
                         [(hopf.CoalgebraData, "checks"), (coend, "cocomposition")])
    assert counts == {"checks": calls, "cocomposition": 1}


def test_cyclic_jobs_allocate_at_most_ambient_squared(tmp_path, monkeypatch):
    # Δ, the coalgebra laws and the comodule laws contract one index at a
    # time, so no cyclic job allocates a Kronecker product of λ with itself
    n = 5
    ambient_dim = n * n
    path = tmp_path / "cyclic5.json"
    path.write_text(json.dumps(cyclic_document(n)))
    largest = largest_allocation(monkeypatch, path,
                                 ("reconstruct", "lift", "rho-tilde"))
    assert 0 < largest <= ambient_dim ** 2


def test_nat_allocates_no_ambient_square(tmp_path, monkeypatch):
    # the relation rows are eliminated as sparse rows, for the quotient
    # and for its kernel, so the largest matrix nat builds is a λ or a
    # projection
    n = 5
    ambient_dim = n * n
    path = tmp_path / "cyclic5.json"
    path.write_text(json.dumps(cyclic_document(n)))
    largest = largest_allocation(monkeypatch, path, ("nat",))
    assert 0 < largest <= ambient_dim * n


@pytest.mark.parametrize("modulus", ["4", "3317044064679887385961981"])
def test_unusable_modulus_exits_with_one_line(tmp_path, modulus):
    message = rejected("validate", "--fixture", "z2_character",
                       "--field", "Fp:" + modulus)
    assert message.startswith("field:") and modulus in message
    doc = dict(EMPTY_DOC, field={"Fp": int(modulus)})
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(doc))
    assert rejected("validate", "--input", str(path)) == message


@pytest.mark.parametrize("fixture", FIXTURES)
def test_every_residue_is_zero_exactly_when_its_check_passes(fixture):
    for command in DOCUMENT_COMMANDS:
        code, out, _ = run_cli([command, "--fixture", fixture, "--json"])
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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101), GF(2**61 - 1)],
                         ids=["Q", "F2", "F101", "F2^61-1"])
def test_check_equal_reads_the_residue_of_the_dense_oracle(rng, field):
    # the residues of GF(2^61 − 1) are large ints, not cached small ones
    def shifted(rhs, diff):
        return Matrix(field, [[field.add(x, d) for x, d in zip(row, drow)]
                              for row, drow in zip(rhs.data, diff.data)], rhs.cols)

    pairs = []
    for density in (0, 0.05, 0.3, 1):
        for _ in range(10):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            rhs = rand_matrix(rng, field, rows, cols, denom=True)
            pairs.append((shifted(rhs, rand_sparse_matrix(
                rng, field, rows, cols, density, denom=True)), rhs))
    # ties: every nonzero difference is ±t, so several entries share the
    # largest norm, and over Q the first of them fixes the residue's sign
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(2, 6)
        t = field.from_int(rng.choice([1, 2, -5, 10**30]))
        choices = [field.zero(), t, field.neg(t)]
        diff = Matrix(field, [[rng.choice(choices) for _ in range(cols)]
                              for _ in range(rows)], cols)
        rhs = rand_matrix(rng, field, rows, cols)
        pairs.append((shifted(rhs, diff), rhs))
    # the largest coassociativity sides of cyclic Z/14, unequal in the last entry
    rhs = rand_matrix(rng, field, 2744, 14)
    diff = Matrix.zeros(field, 2744, 14)
    diff.data[-1][-1] = field.from_int(rng.randint(1, 3))
    pairs.append((shifted(rhs, diff), rhs))

    failing = 0
    for lhs, rhs in pairs:
        worst = dense_residue(lhs, rhs)
        check = check_equal("law", lhs, rhs)
        assert (check.passed, check.residue) == \
            (not worst, field.format(worst) if worst else "0")
        assert check.passed == (lhs == rhs)
        failing += not check.passed
    assert 0 < failing < len(pairs)
    assert not check.passed     # the 2744 × 14 pair, which comes last


def run_document(command, doc):
    code, out, _ = run_cli([command, "--json"], json.dumps(doc))
    return code, json.loads(out)


def test_duality_without_tensor_fails_validate_and_reconstruct():
    doc = json.loads(load_fixture_text("z2_character"))
    del doc["tensor"]
    needs = {"name": "duality_needs_tensor", "passed": False, "residue": "missing"}
    for command in ("validate", "reconstruct"):
        code, report = run_document(command, doc)
        assert code == 1 and report["checks"][-1] == needs, command


def test_nonassociative_table_fails_exactly_its_triples():
    # x⊗x = y⊗y = I and x⊗y = y⊗x = y: (x⊗y)⊗y = I but x⊗(y⊗y) = x
    table = {("I", c): c for c in "Ixy"}
    table.update({(c, "I"): c for c in "Ixy"})
    table.update({("x", "x"): "I", ("y", "y"): "I", ("x", "y"): "y", ("y", "x"): "y"})
    code, report = run_document("validate", graded_document(["I", "x", "y"], table, "I"))
    failures = [(c["name"], c["residue"]) for c in report["checks"] if not c["passed"]]
    assert code == 1
    assert failures == [("tensor_table_assoc:x,y,y", "table"),
                        ("tensor_table_assoc:y,y,x", "table")]


def test_generator_into_a_zero_dimensional_object():
    # g: a → z with dims 2 and 0 has the 0×2 matrix, written [] like 0×0
    doc = {"field": "Q", "objects": ["a", "z"],
           "generators": [{"name": "g", "src": "a", "dst": "z"},
                          {"name": "h", "src": "z", "dst": "a"}],
           "functor": {"on_objects": {"a": 2, "z": 0},
                       "on_generators": {"g": [], "h": [[], []]}}}
    code, report = run_document("validate", doc)
    assert (code, report["passed"]) == (0, True)
    code, report = run_document("nat", doc)
    assert (code, report["coend_dim"], report["nat_dim"]) == (0, 4, 4)
    # a [] of any other shape is still a failing shape check
    doc["functor"]["on_objects"]["z"] = 1
    code, report = run_document("validate", doc)
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "generator_shape:g", "generator_shape:h"]


def test_characters_stops_at_failing_functor_report():
    doc = json.loads(load_fixture_text("z2_character"))
    del doc["functor"]["on_objects"]["one"]
    code, report = run_document("characters", doc)
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
def test_rho_tilde_reports_bad_inputs(section, key, value, failing):
    doc = json.loads(load_fixture_text("z2_function"))
    if key is None:
        doc[section] = {}
    else:
        doc[section][key] = value
    code, report = run_document("rho-tilde", doc)
    assert code == 1 and not report["passed"]
    assert [(c["name"], c["residue"]) for c in report["checks"]
            if not c["passed"]] == failing
    assert "rho_tilde" not in report


def test_rho_tilde_passing_document_unchanged():
    doc = json.loads(load_fixture_text("z2_function"))
    code, report = run_document("rho-tilde", doc)
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


def test_bare_empty_relation_side_is_the_identity_at_the_other_side():
    doc = json.loads(load_fixture_text("z2_regular"))
    assert doc["relations"] == [[["g", "g"], {"at": "star"}]]
    doc["relations"][0][1] = []
    assert (run_cli(["nat", "--json"], json.dumps(doc))
            == run_cli(["nat", "--fixture", "z2_regular", "--json"]))


def test_bare_empty_relation_left_side_is_the_identity_at_the_right_side():
    doc = json.loads(load_fixture_text("z2_regular"))
    doc["relations"] = [[[], ["g", "g"]]]
    bare = run_cli(["reconstruct", "--json"], json.dumps(doc))
    doc["relations"] = [[{"at": "star"}, ["g", "g"]]]
    assert bare == run_cli(["reconstruct", "--json"], json.dumps(doc))
    assert bare[0] == 0
    assert "relation:0:id_star=g.g" in [c["name"] for c in json.loads(bare[1])["checks"]]


def _symmetry_with_wrong_endpoints(doc):
    # z of dimension 0 absorbs every object; ψ_{I,z} must run from I⊗z = z
    # to z⊗I = z, and the empty path at I does not
    del doc["duality"]
    doc["objects"].append("z")
    doc["functor"]["on_objects"]["z"] = 0
    doc["tensor"]["on_objects"] += [["I", "z", "z"], ["z", "I", "z"], ["z", "z", "z"]]
    doc["tensor"]["s"].update({"I,z": [], "z,I": [], "z,z": []})
    doc["tensor"]["symmetry"] = {"I,z": {"at": "I"}}


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
    ("trivial", _symmetry_with_wrong_endpoints, "document:"),
    ("z2_regular", _set(("generators", 0, "src"), ["star"]), "document:"),
    ("z2_character", _set(("tensor", "unit"), ["one"]), "document:"),
    ("z2_regular", _set(("relations", 0), [[], []]),
     "document: relation with two bare empty paths is ambiguous"),
    ("z2_character", _set(("duality", "eta", "one"), {"at": "sigma"}),
     "document: eta path for 'one' has wrong endpoints"),
    ("z2_character", _set(("duality", "eps", "sigma"), {"at": "sigma"}),
     "document: eps path for 'sigma' has wrong endpoints"),
    ("z2_graded", _drop(("tensor", "on_generators", 0)),
     "document: tensor action of t on I missing"),
]


@pytest.mark.parametrize("fixture, mutate, prefix", MALFORMED, ids=[
    "dim-text", "dim-float", "dim-bool", "on_objects-text", "ragged-rows",
    "scalar-1/0", "scalar-abc", "scalar-number", "unknown-dst", "no-name",
    "objects-number", "generators-number", "one-sided-relation",
    "relation-unknown-generator", "relation-endpoints", "tensor-no-unit",
    "s-key-no-comma", "tensor-table-missing-pair", "no-dual_of", "dual_of-unknown",
    "field-modulus-text", "duplicate-object", "symmetry-endpoints", "src-list",
    "tensor-unit-list", "relation-two-empty-sides", "eta-endpoints",
    "eps-endpoints", "tensor-action-missing"])
@pytest.mark.parametrize("command", ["validate", "reconstruct"])
def test_malformed_document_exits_with_one_line(command, fixture, mutate, prefix):
    doc = json.loads(load_fixture_text(fixture))
    mutate(doc)
    line = rejected(command, stdin=json.dumps(doc))
    code, out, _ = run_cli([command, "--json"], json.dumps(doc))
    error = json.loads(out)["error"]
    assert code == 2 and line == "%s: %s" % (error["source"], error["message"])
    assert line.startswith(prefix)


def test_validate_takes_many_objects_at_once():
    # object lookups go by hash; a scan of the object list is quadratic here
    names = ["o%d" % i for i in range(20000)]
    doc = dict(EMPTY_DOC, objects=names,
               functor={"on_objects": dict.fromkeys(names, 1), "on_generators": {}})
    start = time.perf_counter()
    code, report = run_document("validate", doc)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and report["passed"]


def test_missing_dimension_fails_every_command():
    doc = json.loads(load_fixture_text("z2_regular"))
    del doc["functor"]["on_objects"]["star"]
    for command in DOCUMENT_COMMANDS:
        code, report = run_document(command, doc)
        assert code == 1 and not report["passed"]
        assert report["checks"][0] == {"name": "object_dim:star",
                                       "passed": False, "residue": "missing"}


def test_non_square_s_is_not_invertible():
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
    code, report = run_document("validate", doc)
    assert code == 1
    assert [(c["name"], c["passed"]) for c in report["checks"]
            if c["name"].startswith("s_invertible")] == [
        ("s_invertible:I,I", True), ("s_invertible:I,a", True),
        ("s_invertible:a,I", True), ("s_invertible:a,a", False)]
