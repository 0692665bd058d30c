import io
import json

import pytest

from tannakit.cli import main

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


@pytest.mark.parametrize("dims", ["x", "x=y", "x=-1", "x=0", "x=2,y", "=2",
                                  "x=\u00b2", "x=2"])
def test_coherence_bad_dims_exit_with_one_line(capsys, dims):
    # "x=2" leaves y without a dimension
    with pytest.raises(SystemExit) as info:
        main(["coherence", "swap[x,y;0]", "swap[x,y;0]", "--dims", dims])
    message = str(info.value.code)
    assert message.startswith("--dims") and "\n" not in message


def test_coherence_word_dimension_capped(capsys):
    word = ",".join(["x"] * 11)
    with pytest.raises(SystemExit) as info:
        main(["coherence", "id[%s]" % word, "id[%s]" % word, "--dims", "x=2"])
    assert "word dimension exceeds" in str(info.value.code)


def test_unknown_fixture_errors(capsys):
    with pytest.raises(SystemExit):
        main(["validate", "--fixture", "no_such_fixture"])


def test_field_override(tmp_path, capsys):
    doc = dict(EMPTY_DOC)
    doc.pop("field")
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", "--input", str(path), "--field", "Fp:5")
    assert code == 0
