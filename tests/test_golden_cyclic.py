"""Byte-identical CLI output on cyclic Z/6, where elimination is real.

The shipped fixtures are all under dimension 5, so their relation
matrices are tiny.  Here Z/6 acts on its regular representation by the
shift conjugated by a fixed monomial matrix, so over Q the entries have
denominators; the ambient space of End^∨ has dimension 36 and the
relation and naturality systems are 36×36.  Regenerate the golden file
with ``python tests/test_golden_cyclic.py``.
"""

import contextlib
import io
import json
import os

from tannakit.cli import main

from conftest import cyclic_document

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "cyclic_outputs.json")
N = 6
PERM = [3, 0, 5, 1, 4, 2]
DIAG = [2, -3, 1, 3, -1, -2]
FIELDS = {"Q": None, "F101": 101}
SUBCOMMANDS = ["nat", "reconstruct", "rho-tilde", "lift"]


def cyclic_outputs(tmp_dir):
    """Exit code and exact ``--json`` stdout per (subcommand, field)."""
    outputs = {}
    for label, p in FIELDS.items():
        path = os.path.join(tmp_dir, "cyclic%d_%s.json" % (N, label))
        with open(path, "w") as fh:
            json.dump(cyclic_document(N, p, PERM, DIAG), fh)
        for cmd in SUBCOMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([cmd, "--input", path, "--json"])
            outputs["%s %s" % (cmd, label)] = {"exit": code,
                                               "stdout": buf.getvalue()}
    return outputs


def test_cyclic_json_output_is_byte_identical_to_golden(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    current = cyclic_outputs(str(tmp_path))
    assert sorted(current) == sorted(golden)
    for key, expected in golden.items():
        assert current[key] == expected, key
    for label in FIELDS:
        payload = json.loads(golden["reconstruct %s" % label]["stdout"])
        assert (payload["quotient_dim"], payload["relation_rank"]) == (N, N * N - N)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        outputs = cyclic_outputs(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")
