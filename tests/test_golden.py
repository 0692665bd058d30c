import contextlib
import io
import json
import os

from tannakit import natvee
from tannakit.cli import main

from conftest import FIXTURES, load_fixture

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CLI_GOLDEN = os.path.join(GOLDEN_DIR, "cli_outputs.json")
CLI_SUBCOMMANDS = ["validate", "reconstruct", "lift", "nat", "rho-tilde",
                   "characters"]


def cli_outputs():
    """Exit code and exact ``--json`` stdout per (subcommand, fixture)."""
    outputs = {}
    for cmd in CLI_SUBCOMMANDS:
        for name in FIXTURES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([cmd, "--fixture", name, "--json"])
            outputs["%s %s" % (cmd, name)] = {"exit": code,
                                              "stdout": buf.getvalue()}
    return outputs


def test_coend_serialization_matches_golden_files():
    for name in ["z2_regular", "z2_character"]:
        doc = load_fixture(name)
        P = natvee(doc.category, doc.functor, doc.functor)
        with open(os.path.join(GOLDEN_DIR, "%s_coend.json" % name)) as fh:
            golden = json.load(fh)
        assert P.to_json() == golden


def test_coend_serialization_is_deterministic():
    doc = load_fixture("z2_regular")
    a = natvee(doc.category, doc.functor, doc.functor).to_json()
    b = natvee(doc.category, doc.functor, doc.functor).to_json()
    assert json.dumps(a) == json.dumps(b)


def test_cli_json_output_is_byte_identical_to_golden():
    with open(CLI_GOLDEN) as fh:
        golden = json.load(fh)
    current = cli_outputs()
    assert sorted(current) == sorted(golden)
    for key, expected in golden.items():
        assert current[key] == expected, key


if __name__ == "__main__":
    # Regenerate the CLI golden file: python tests/test_golden.py
    with open(CLI_GOLDEN, "w") as fh:
        json.dump(cli_outputs(), fh, indent=1, sort_keys=True)
        fh.write("\n")
