"""External tracing of tannakit: spans and counts recorded from outside.

Nothing in the package is edited.  A traced function is replaced, for the
duration of a ``with`` block, by a wrapper in every ``tannakit`` module
that holds a reference to it (``kron`` lives in linalg and is imported by
catpres, coend, hopf, moncat and tannaka); methods are replaced on their
class.  Every binding is restored when the block ends.

Two instruments use that patching:

* ``SpanTracer`` records one span per call (name, start, end, parent span,
  job id) and derives calls and self time per name.  Self time is the
  span's duration minus the time its child spans cover, so the self times
  of one job's spans sum to the duration of its root span.
* ``OpCounter`` counts field operations and the sizes of matrices that
  linalg and moncat return.  Its per-scalar wrappers would distort span
  times, so it runs in a separate pass.  ``Fraction`` comparisons with
  zero (``x != zero`` in the dense loops) do not go through ``Field`` and
  are not counted.
"""

import functools
import importlib
import sys
import time

PACKAGE = "tannakit"

# (layer, label, module, attribute): the public boundaries the tracer wraps.
# A dotted attribute is a method, replaced on its class.
SPAN_TARGETS = [
    ("cli", "main", "cli", "main"),
    ("catpres", "load_document", "catpres", "load_document"),
    ("catpres", "validate_functor", "catpres", "validate_functor"),
    ("catpres", "validate_tensor_data", "catpres", "validate_tensor_data"),
    ("catpres", "validate_duality_data", "catpres", "validate_duality_data"),
    ("coend", "natvee", "coend", "natvee"),
    ("coend", "cocomposition", "coend", "cocomposition"),
    ("coend", "counit", "coend", "counit"),
    ("coend", "nat_space", "coend", "nat_space"),
    ("coend", "pairing_bijection_report", "coend", "pairing_bijection_report"),
    ("tannaka", "endvee_coalgebra", "tannaka", "endvee_coalgebra"),
    ("tannaka", "endvee_bialgebra", "tannaka", "endvee_bialgebra"),
    ("tannaka", "endvee_antipode", "tannaka", "endvee_antipode"),
    ("tannaka", "lift_functor", "tannaka", "lift_functor"),
    ("tannaka", "rho_tilde", "tannaka", "rho_tilde"),
    ("hopf", "CoalgebraData.checks", "hopf", "CoalgebraData.checks"),
    ("hopf", "AlgebraData.checks", "hopf", "AlgebraData.checks"),
    ("hopf", "BialgebraData.checks", "hopf", "BialgebraData.checks"),
    ("hopf", "HopfData.checks", "hopf", "HopfData.checks"),
    ("hopf", "ComoduleData.checks", "hopf", "ComoduleData.checks"),
    ("hopf", "grouplikes", "hopf", "grouplikes"),
    ("hopf", "characters", "hopf", "characters"),
    ("hopf", "convolution_group", "hopf", "convolution_group"),
    ("report", "check_equal", "report", "check_equal"),
    ("linalg", "matmul", "linalg", "Matrix.__matmul__"),
    ("linalg", "kron", "linalg", "kron"),
    ("linalg", "rref", "linalg", "rref"),
    ("linalg", "quotient", "linalg", "quotient"),
    ("linalg", "solve_matrix", "linalg", "solve_matrix"),
    ("linalg", "kernel_basis", "linalg", "kernel_basis"),
    ("moncat", "parse_expr", "moncat", "parse_expr"),
    ("moncat", "coherence_equal", "moncat", "coherence_equal"),
    ("moncat", "eval_in_vec", "moncat", "eval_in_vec"),
]

SPAN_NAMES = ["%s.%s" % (layer, label) for layer, label, _, _ in SPAN_TARGETS]

FIELD_OPS = ("add", "sub", "mul", "neg", "inv")


class Patches:
    """Replacements of tannakit bindings, undone by ``restore``."""

    def __init__(self):
        self._undo = []

    def function(self, fn, wrapper):
        """Rebind ``fn`` to ``wrapper`` in every tannakit module that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def target(self, module_name, attr, make_wrapper):
        """Wrap ``tannakit.<module_name>.<attr>`` (a function or Class.method)."""
        module = importlib.import_module("%s.%s" % (PACKAGE, module_name))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            self.method(cls, meth, make_wrapper(cls.__dict__[meth]))
        else:
            fn = getattr(module, attr)
            self.function(fn, make_wrapper(fn))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanTracer:
    """Spans ``[name, start, end, parent_index, job]`` kept in memory.

    ``clock`` is injectable so the self-time arithmetic can be tested with
    a deterministic clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = None

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                    tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer._stack.pop()
        return traced

    def __enter__(self):
        self._patches = Patches()
        try:
            for layer, label, module, attr in SPAN_TARGETS:
                name = "%s.%s" % (layer, label)
                self._patches.target(module, attr,
                                     lambda fn, name=name: self.wrap(name, fn))
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


def self_times(spans):
    """Self time of every span: its duration minus its children's durations."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans):
    """Per span name: (calls, total self seconds); per job: (root seconds, self sum)."""
    selfs = self_times(spans)
    by_name = {}
    by_job = {}
    for span, own in zip(spans, selfs):
        name, start, end, parent, job = span
        calls, total = by_name.get(name, (0, 0.0))
        by_name[name] = (calls + 1, total + own)
        root, self_sum = by_job.get(job, (0.0, 0.0))
        if parent is None:
            root += end - start
        by_job[job] = (root, self_sum + own)
    return by_name, by_job


def _nonzeros(m):
    zero = m.field.zero()
    return m.rows * m.cols - sum(row.count(zero) for row in m.data)


class OpCounter:
    """Counting-only pass: field operations and matrix entry counts."""

    def __init__(self):
        self.counts = {}

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def __enter__(self):
        from tannakit import fields
        self._patches = p = Patches()
        try:
            for cls, tag in ((fields.RationalField, "q"), (fields.PrimeField, "fp")):
                for op in FIELD_OPS:
                    p.method(cls, op, self._count_calls(cls.__dict__[op],
                                                        "fields.ops." + tag))
            p.target("linalg", "Matrix.__matmul__",
                     lambda fn: self._count_output(fn, "linalg.matmul"))
            p.target("linalg", "kron", lambda fn: self._count_output(fn, "linalg.kron"))
            p.target("linalg", "rref", self._count_rref_input)
            p.target("moncat", "_eval", lambda fn: self._count_output(fn, "moncat.eval"))
            p.target("coend", "natvee", self._count_presentation)
        except BaseException:
            p.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def _count_calls(self, fn, key):
        def counted(*args):
            self._bump(key)
            return fn(*args)
        return counted

    def _count_output(self, fn, key):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is not NotImplemented:
                self._bump(key + ".entries_out", out.rows * out.cols)
                self._bump(key + ".nnz_out", _nonzeros(out))
            return out
        return counted

    def _count_presentation(self, fn):
        def counted(*args):
            P = fn(*args)
            self._bump("coend.natvee.returns")
            self._bump("coend.ambient_dim", P.ambient_dim)
            self._bump("coend.relation_rank", P.relation_span.dim)
            self._bump("coend.quotient_dim", P.quotient_dim)
            return P
        return counted

    def _count_rref_input(self, fn):
        def counted(m):
            self._bump("linalg.rref.entries_in", m.rows * m.cols)
            return fn(m)
        return counted
