"""Show what a change of the golden files does to the CLI's output.

    python tests/golden_diff.py REV

compares each file under ``tests/golden/`` at git revision ``REV`` with
the working tree.  It prints whether each file is new, byte-identical,
changed or gone, and for a changed file the top-level entries that are
new, gone or changed.  Under a changed entry whose ``stdout`` is a JSON
object on both sides it prints what changed inside: the exit code, each
other top-level key of the output, and the check names that are gone,
new or changed.  Exits 1 when any entry changed or is gone, or any file
is gone; a new file or entry alone exits 0.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join("tests", "golden")


def old_names(rev):
    """The names of the golden files at ``rev``."""
    listed = subprocess.run(["git", "ls-tree", "--name-only", rev, GOLDEN + "/"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    return {os.path.basename(path) for path in listed.stdout.splitlines()}


def old_text(rev, name):
    return subprocess.run(["git", "show", "%s:%s/%s" % (rev, GOLDEN, name)],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def new_text(name):
    with open(os.path.join(ROOT, GOLDEN, name)) as fh:
        return fh.read()


def _output(entry):
    """An entry's ``stdout`` as a JSON object, or None."""
    try:
        out = json.loads(entry["stdout"])
    except (KeyError, TypeError, ValueError):
        return None
    return out if isinstance(out, dict) else None


def _checks(out):
    """Each check name of an output with its first record, in order."""
    first = {}
    for check in out.get("checks", []):
        first.setdefault(check["name"], check)
    return first


def entry_changes(old, new):
    """The lines that say what changed inside one golden entry."""
    lines = []
    if old.get("exit") != new.get("exit"):
        lines.append("exit: %s -> %s" % (old.get("exit"), new.get("exit")))
    before, after = _output(old), _output(new)
    if before is None or after is None:
        return lines
    for key in sorted((set(before) | set(after)) - {"checks"}):
        if before.get(key) != after.get(key):
            lines.append("key changed: %s" % key)
    was, now = _checks(before), _checks(after)
    for label, names in (
            ("gone", [n for n in was if n not in now]),
            ("new", [n for n in now if n not in was]),
            ("changed", [n for n in was if n in now and was[n] != now[n]])):
        if names:
            lines.append("checks %s: %s" % (label, ", ".join(names)))
    return lines


def main(rev):
    ok = True
    before_names = old_names(rev)
    now_names = set(os.listdir(os.path.join(ROOT, GOLDEN)))
    for name in sorted(before_names | now_names):
        if name not in before_names:
            print("%s: new file" % name)
            continue
        if name not in now_names:
            print("%s: gone" % name)
            ok = False
            continue
        before, after = old_text(rev, name), new_text(name)
        if before == after:
            print("%s: byte-identical" % name)
            continue
        print("%s: changed" % name)
        old, new = json.loads(before), json.loads(after)
        for key in sorted(set(new) - set(old)):
            print("  new entry: %s" % key)
        for key in sorted(set(old) - set(new)):
            print("  gone entry: %s" % key)
            ok = False
        for key in sorted(set(old) & set(new)):
            if old[key] != new[key]:
                print("  changed entry: %s" % key)
                for line in entry_changes(old[key], new[key]):
                    print("    %s" % line)
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
