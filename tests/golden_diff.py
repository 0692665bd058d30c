"""Show what a change of the golden files does to the CLI's output.

    python tests/golden_diff.py REV

compares each file under ``tests/golden/`` at git revision ``REV`` with
the working tree.  It prints whether each file is new, byte-identical or
changed, and for a changed file the top-level entries that are new, gone
or changed.  A gone entry fails.  In ``cli_outputs.json`` a changed
entry fails unless it keeps its exit code and every key but ``checks``,
and its ``checks`` are the old list minus passing ``assoc_diagram:a,b,c``
entries with the fixture's tensor unit among a, b and c; the checks it
lost are printed.  The other files, whose entries are digests or whole
structures, only list their changed entries.
Exits 1 on a gone entry or a ``cli_outputs.json`` change that is not
such a deletion.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join("tests", "golden")
FIXTURES = os.path.join(ROOT, "src", "tannakit", "fixtures")


def old_text(rev, name):
    """The file at ``rev``, or None if it did not exist there."""
    shown = subprocess.run(["git", "show", "%s:%s/%s" % (rev, GOLDEN, name)],
                           cwd=ROOT, capture_output=True, text=True)
    return shown.stdout if shown.returncode == 0 else None


def new_text(name):
    with open(os.path.join(ROOT, GOLDEN, name)) as fh:
        return fh.read()


def tensor_unit(fixture):
    with open(os.path.join(FIXTURES, fixture + ".json")) as fh:
        return json.load(fh).get("tensor", {}).get("unit")


def is_unit_square(check, unit):
    kind, _, triple = check["name"].partition(":")
    return (check["passed"] and kind == "assoc_diagram"
            and unit in triple.split(","))


def lost_checks(old, new):
    """Old checks missing from ``new`` if ``new`` is ``old`` with some
    entries deleted and the order kept; None otherwise."""
    lost, it = [], iter(new)
    nxt = next(it, None)
    for check in old:
        if check == nxt:
            nxt = next(it, None)
        else:
            lost.append(check)
    return lost if nxt is None else None


def deleted_unit_squares(key, old, new):
    """The names of the checks entry ``key`` lost; raises ``ValueError``
    unless ``new`` is ``old`` minus passing unit squares."""
    if old["exit"] != new["exit"]:
        raise ValueError("exit %s -> %s" % (old["exit"], new["exit"]))
    a, b = json.loads(old["stdout"]), json.loads(new["stdout"])
    if {k: v for k, v in a.items() if k != "checks"} != {
            k: v for k, v in b.items() if k != "checks"}:
        raise ValueError("a key other than checks changed")
    lost = lost_checks(a.get("checks", []), b.get("checks", []))
    if lost is None:
        raise ValueError("checks are not the old list with entries deleted")
    unit = tensor_unit(key.split()[1])
    bad = [c["name"] for c in lost if not is_unit_square(c, unit)]
    if bad:
        raise ValueError("deleted checks other than unit squares: %s"
                         % ", ".join(bad))
    return [c["name"] for c in lost]


def main(rev):
    ok = True
    for name in sorted(os.listdir(os.path.join(ROOT, GOLDEN))):
        before = old_text(rev, name)
        if before is None:
            print("%s: new file" % name)
            continue
        if before == new_text(name):
            print("%s: byte-identical" % name)
            continue
        print("%s: changed" % name)
        old, new = json.loads(before), json.loads(new_text(name))
        for key in sorted(set(new) - set(old)):
            print("  new entry: %s" % key)
        for key in sorted(set(old) - set(new)):
            print("  gone entry: %s" % key)
            ok = False
        for key in sorted(set(old) & set(new)):
            if old[key] == new[key]:
                continue
            if name != "cli_outputs.json":
                print("  changed entry: %s" % key)
                continue
            try:
                lost = deleted_unit_squares(key, old[key], new[key])
            except ValueError as exc:
                print("  FAIL %s: %s" % (key, exc))
                ok = False
                continue
            print("  %s: %d deleted (%s)" % (key, len(lost), ", ".join(lost)))
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
