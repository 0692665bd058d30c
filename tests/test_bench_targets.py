"""The names that the benchmark's tracer wraps still exist in tannakit.

``bench/tracer.py`` patches tannakit from outside, by module and attribute
name, so a refactor that deletes or renames one of them breaks every traced
benchmark run without failing any other test.  The tracer file is read
here, not imported or edited.
"""

import ast
import importlib
import os

import tannakit
from tannakit import linalg

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")

# the OpCounter targets: matrix products and sizes, rref input, presentations
COUNTED = {("linalg", "Matrix.__matmul__"), ("linalg", "kron"), ("linalg", "rref"),
           ("moncat", "_eval"), ("coend", "natvee")}


def tracer_targets():
    """(SPAN_TARGETS as (module, attr) pairs, every literal ``.target(module, attr)``)."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    spans, counted = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_TARGETS" for t in node.targets):
            spans = [(module, attr) for _, _, module, attr in ast.literal_eval(node.value)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "target" and len(node.args) >= 2
              and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            counted.add((node.args[0].value, node.args[1].value))
    return spans, counted


def resolves(module_name, attr):
    """The lookup ``Patches.target`` makes: a module function, or a method
    defined on the class itself."""
    module = importlib.import_module("tannakit." + module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return callable(vars(getattr(module, cls_name, object)).get(meth))
    return callable(getattr(module, attr, None))


def test_every_traced_name_resolves():
    spans, counted = tracer_targets()
    assert spans and COUNTED <= counted
    missing = [t for t in spans + sorted(counted) if not resolves(*t)]
    assert missing == []


def test_kron_is_bound_in_the_modules_the_tracer_patches():
    importers = [m for m in vars(tannakit).values()
                 if getattr(m, "kron", None) is linalg.kron]
    assert len(importers) >= 5
