"""Command-line front end.

Subcommands: validate, reconstruct, lift, rho-tilde, nat, coherence,
characters.  Input documents are JSON on stdin, via --input, or a shipped
fixture via --fixture; --json switches to machine output.

A document is checked in stages, each run only while every check before
it passes: the functor, then the tensor data, then the duality data,
which needs tensor data (``_functor_stage``, ``_tensor_stage``,
``_duality_stage``).  ``reconstruct`` builds End^∨(F)'s coalgebra,
bialgebra and Hopf algebra after the matching stage.

The exit code is 0 when every check in the emitted report passes, 1
when one fails, and 2 when the input is rejected (an ``InputError``,
reported only by ``main``): one ``<source>: <message>`` line on stderr,
or with --json ``{"error": {"source": ..., "message": ...}}`` on
stdout.  A command line that argparse rejects is an ``InputError``
sourced ``usage``: without --json stderr shows argparse's own report of
it (the usage line, then ``<prog>: error: <message>``), and with --json
anywhere on the command line it is the same JSON error.  A stdout closed
by its reader ends the run with 141 (see ``main``).
"""

import argparse
import json
import os
import sys

from .catpres import (load_document, validate_duality_data, validate_functor,
                      validate_tensor_data)
from .coend import _nat_of, natvee, pairing_bijection_report
from .fields import InputError
from .hopf import (CoalgebraData, ComoduleData, UnsupportedCoalgebraError,
                   characters, convolution_group, grouplike_group, grouplikes)
from .linalg import rank
from .moncat import coherence_equal, eval_in_vec, evaluations_equal, parse_expr
from .report import Check, Report, VerificationError
from .tannaka import (endvee_antipode, endvee_bialgebra, endvee_coalgebra,
                      lift_functor, rho_tilde)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        exc = InputError(message, "usage")
        exc.text = "%s%s: error: %s" % (self.format_usage(), self.prog, message)
        raise exc


def fixture_names():
    from importlib import resources     # here: a run without --fixture skips its import
    root = resources.files("tannakit") / "fixtures"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_fixture_text(name: str) -> str:
    from importlib import resources     # here: a run without --fixture skips its import
    path = resources.files("tannakit") / "fixtures" / (name + ".json")
    try:
        return path.read_text()
    except (FileNotFoundError, ValueError):     # ValueError: a NUL in the name
        raise InputError("unknown fixture %r; available: %s"
                         % (name, ", ".join(fixture_names()))) from None


def _read_document(args):
    if args.fixture:
        text = load_fixture_text(args.fixture)
    else:
        try:
            if args.input:
                with open(args.input) as fh:
                    text = fh.read()
            else:
                text = sys.stdin.read()
        except (OSError, ValueError) as exc:    # undecodable, or a NUL in the path
            raise InputError("cannot read input: %s" % exc) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("input is not valid JSON: line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg)) from None
    except RecursionError:
        raise InputError("input JSON nests too deeply to decode") from None
    if not isinstance(raw, dict):
        raise InputError("input must be a JSON object")
    if not isinstance(raw.get("functor"), dict):
        raise InputError('input has no "functor" object')
    if args.field:
        raw["field"] = _field_flag(args.field)
    return load_document(raw)


def _field_flag(flag: str):
    if flag == "Q":
        return "Q"
    if flag.startswith("Fp:"):
        try:
            return {"Fp": int(flag.split(":", 1)[1])}
        except ValueError:
            pass
    raise InputError("--field must be Q or Fp:<prime>")


def _emit(payload: dict, report: Report, as_json: bool) -> int:
    payload["checks"] = report.to_json()
    payload["passed"] = report.passed
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if key in ("checks", "passed"):
                continue
            print("%s: %s" % (key, json.dumps(value)))
        for c in report.checks:
            tail = "" if c.passed else "  [residue %s]" % c.residue
            print("%s %s%s" % ("PASS" if c.passed else "FAIL", c.name, tail))
        print("result: %s" % ("ok" if report.passed else "FAILED"))
    return 0 if report.passed else 1


def _functor_stage(args):
    """Read the document and check its functor: ``(doc, report)``."""
    doc = _read_document(args)
    return doc, validate_functor(doc.category, doc.functor)


def _tensor_stage(doc, report) -> bool:
    """Add the tensor checks once the report passes; True if they ran and pass."""
    if doc.tensor is None or not report.passed:
        return False
    report.extend(validate_tensor_data(doc.category, doc.functor, doc.tensor))
    return report.passed


def _duality_stage(doc, report) -> bool:
    """Add the duality checks once the report passes; True if they ran and
    pass.  Without tensor data they are one failing ``duality_needs_tensor``."""
    if doc.duality is None or not report.passed:
        return False
    if doc.tensor is None:
        report.add(Check("duality_needs_tensor", False, residue="missing"))
    else:
        report.extend(validate_duality_data(doc.category, doc.functor,
                                            doc.tensor, doc.duality))
    return report.passed


def cmd_validate(args):
    doc, report = _functor_stage(args)
    _tensor_stage(doc, report)
    _duality_stage(doc, report)
    return _emit({"objects": doc.category.objects}, report, args.json)


def cmd_reconstruct(args):
    doc, report = _functor_stage(args)
    if not report.passed:
        return _emit({}, report, args.json)
    P = natvee(doc.category, doc.functor, doc.functor)
    coalg = endvee_coalgebra(P)
    report.extend(coalg.checks())
    payload = {"quotient_dim": P.quotient_dim,
               "relation_rank": P.relation_span.dim}
    big = hopf = None
    if _tensor_stage(doc, report):
        big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P,
                               coalgebra=coalg)
        report.extend(big.checks())
    if _duality_stage(doc, report):
        hopf = endvee_antipode(doc.category, doc.functor, doc.tensor,
                               doc.duality, P, bialgebra=big)
        report.extend(hopf.checks())
    payload["structure"] = (hopf or big or coalg).to_json()
    if hopf is not None:
        _group_stage(payload, report, hopf)
    return _emit(payload, report, args.json)


def _group_stage(payload, report, hopf):
    """Add the grouplike group and the character group of a Hopf algebra.
    A refused search is reported under its own key, and a refused
    grouplike search skips the character search."""
    big = hopf.bialgebra
    try:
        gls = grouplikes(big.coalgebra)
    except UnsupportedCoalgebraError as exc:
        payload["grouplikes"] = "unsupported: %s" % exc
        return
    table, grep = grouplike_group(hopf, gls)
    payload["grouplikes"] = [[big.field.format(x) for x in v] for v in gls]
    payload["grouplike_table"] = table
    report.extend(grep)
    try:
        chars = characters(big)
    except UnsupportedCoalgebraError as exc:
        payload["characters"] = "unsupported: %s" % exc
        return
    ctable, crep = convolution_group(chars, hopf)
    payload["characters"] = [chi.to_strings()[0] for chi in chars]
    payload["character_table"] = ctable
    report.extend(crep)


def cmd_lift(args):
    doc, report = _functor_stage(args)
    if not report.passed:
        return _emit({}, report, args.json)
    P = natvee(doc.category, doc.functor, doc.functor)
    coactions, lift_report = lift_functor(doc.category, doc.functor, P)
    report.extend(lift_report)
    payload = {"quotient_dim": P.quotient_dim,
               "coactions": {obj: com.rho.to_strings()
                             for obj, com in coactions.items()}}
    return _emit(payload, report, args.json)


def cmd_rho_tilde(args):
    doc, report = _functor_stage(args)
    if doc.coalgebra is None or doc.comodules is None:
        report.add(Check("rho_tilde_inputs", False,
                         residue="needs coalgebra and comodules sections"))
    if not report.passed:
        return _emit({}, report, args.json)
    c = doc.coalgebra
    try:
        B = CoalgebraData(c["dim"], c["delta"], c["eps"])
        coactions = {obj: ComoduleData(B.dim, doc.functor.dim(obj), doc.comodules[obj])
                     for obj in doc.category.objects}
    except (KeyError, ValueError) as exc:
        residue = "missing" if isinstance(exc, KeyError) else "shape"
        report.add(Check("rho_tilde_inputs", False, residue))
        return _emit({}, report, args.json)
    report.extend(B.checks())
    if not report.passed:
        return _emit({}, report, args.json)
    P = natvee(doc.category, doc.functor, doc.functor)
    try:
        rt, rep = rho_tilde(B, doc.category, doc.functor, coactions, P=P)
    except VerificationError as exc:
        if exc.report is None:
            raise
        report.extend(exc.report)
        return _emit({}, report, args.json)
    report.extend(rep)
    r = rank(rt)
    payload = {"endvee_dim": P.quotient_dim, "coalgebra_dim": B.dim,
               "rho_tilde": rt.to_strings(), "rank": r,
               "surjective": r == B.dim,
               "injective": r == P.quotient_dim,
               "bijective": r == B.dim and r == P.quotient_dim}
    return _emit(payload, report, args.json)


def cmd_nat(args):
    doc, report = _functor_stage(args)
    if not report.passed:
        return _emit({}, report, args.json)
    P = natvee(doc.category, doc.functor, doc.functor)
    N = _nat_of(P)
    report.add(Check("predual_dimension_identity", P.quotient_dim == N.dim,
                     "%d vs %d" % (P.quotient_dim, N.dim)))
    report.extend(pairing_bijection_report(P, N))
    payload = {"coend_dim": P.quotient_dim, "nat_dim": N.dim}
    return _emit(payload, report, args.json)


def _dims_flag(flag: str):
    dims = {}
    for part in flag.split(","):
        atom, _, d = part.partition("=")
        try:
            dim = int(d)
        except ValueError:
            dim = 0
        if not atom.strip() or dim < 1:
            raise InputError("must be atom=<positive int>,..., got %r" % part, "--dims")
        if atom.strip() in dims:
            raise InputError("atom %r is given twice" % atom.strip(), "--dims")
        dims[atom.strip()] = dim
    return dims


def cmd_coherence(args):
    dims = _dims_flag(args.dims) if args.dims else None
    report = Report()
    e1 = parse_expr(args.expr1)
    e2 = parse_expr(args.expr2)
    if e1.domain != e2.domain or e1.codomain != e2.codomain:
        report.add(Check("boundary_words_match", False, residue="mismatch"))
        return _emit({}, report, args.json)
    equal = coherence_equal(e1, e2)
    report.add(Check("expressions_equal", equal, "distinct permutations"))
    payload = {"expr1": args.expr1.strip(), "expr2": args.expr2.strip(),
               "equal": equal}
    if dims is not None:
        m1 = eval_in_vec(e1, dims)
        m2 = eval_in_vec(e2, dims)
        report.add(Check("matrix_evaluation_agrees",
                         (m1 == m2) == evaluations_equal(e1, e2, dims),
                         "semantic disagreement"))
        payload["dims"] = dims
    return _emit(payload, report, args.json)


def cmd_characters(args):
    doc, report = _functor_stage(args)
    if report.passed and doc.tensor is None:
        report.add(Check("characters_need_tensor", False, residue="missing"))
    if not _tensor_stage(doc, report):
        return _emit({}, report, args.json)
    P = natvee(doc.category, doc.functor, doc.functor)
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    payload = {"bialgebra_dim": big.dim}
    try:
        chars = characters(big)
        payload["characters"] = [chi.to_strings()[0] for chi in chars]
    except UnsupportedCoalgebraError as exc:
        report.add(Check("character_search", False, residue=str(exc)))
        return _emit(payload, report, args.json)
    if _duality_stage(doc, report):
        hopf = endvee_antipode(doc.category, doc.functor, doc.tensor,
                               doc.duality, P, bialgebra=big)
        table, crep = convolution_group(chars, hopf)
        payload["character_table"] = table
        report.extend(crep)
    return _emit(payload, report, args.json)


def _add_doc_options(sub):
    sub.add_argument("--input", help="path to a JSON job document")
    sub.add_argument("--fixture", help="name of a shipped fixture")
    sub.add_argument("--field", help="override field: Q or Fp:<prime>")
    sub.add_argument("--json", action="store_true", help="machine output")


def build_parser():
    parser = _Parser(
        prog="tannakit",
        description="exact Tannaka reconstruction over presented categories")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in [
        ("validate", cmd_validate, "check functor/tensor/duality axioms"),
        ("reconstruct", cmd_reconstruct,
         "compute End^∨(F) with coalgebra/bialgebra/Hopf structure"),
        ("lift", cmd_lift, "lift F to comodules over End^∨(F)"),
        ("rho-tilde", cmd_rho_tilde,
         "reconstruction morphism End^∨(U) → B for given comodules"),
        ("nat", cmd_nat, "Nat(F,F) dimension vs End^∨(F) with pairing checks"),
        ("characters", cmd_characters,
         "characters and convolution group of End^∨(F)"),
    ]:
        sub = subs.add_parser(name, help=doc)
        _add_doc_options(sub)
        sub.set_defaults(fn=fn)
    sub = subs.add_parser("coherence", help="decide equality of symmetry expressions")
    sub.add_argument("expr1")
    sub.add_argument("expr2")
    sub.add_argument("--dims", help="atom dims for the matrix cross-check, e.g. a=2,b=3")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=cmd_coherence)
    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    A reader that closes stdout early ends the run with 141 (128 +
    SIGPIPE, what a shell reports for ``yes | head``) and nothing more:
    stdout is pointed at ``os.devnull``, so the flush at exit cannot fail
    again, as the ``signal`` module's documentation recommends.
    """
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _run(argv):
    argv = sys.argv[1:] if argv is None else argv
    as_json = "--json" in argv
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        return args.fn(args)
    except InputError as exc:
        if as_json:
            print(json.dumps({"error": {"source": exc.source,
                                        "message": str(exc)}}, indent=2))
        elif exc.source == "usage":
            print(exc.text, file=sys.stderr)
        else:
            print("%s: %s" % (exc.source, exc) if exc.source else exc,
                  file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
