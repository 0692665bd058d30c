"""Pass/fail reports shared by all verification surfaces.

Every axiom check records a name, a boolean, and a residue: the max-norm
of lhs − rhs, read entry by entry, or a short word naming the failure.
``Check`` enforces the convention: it stores "0" exactly when the check
passes, so a caller passes only the residue of a failure, and a failing
check without a nonzero residue is refused.
"""

from .linalg import Matrix


class Check:
    __slots__ = ("name", "passed", "residue", "detail")

    def __init__(self, name, passed, residue=None, detail=None):
        self.name = name
        self.passed = bool(passed)
        if not self.passed and residue in (None, "0"):
            raise ValueError("failing check %r needs a nonzero residue" % name)
        self.residue = "0" if self.passed else residue
        self.detail = detail

    def to_json(self):
        out = {"name": self.name, "passed": self.passed, "residue": self.residue}
        if self.detail is not None:
            out["detail"] = self.detail
        return out

    def __repr__(self):
        return "Check(%r, %s)" % (self.name, "pass" if self.passed else "FAIL")


class Report:
    def __init__(self):
        self.checks = []

    def add(self, check: Check):
        self.checks.append(check)
        return check

    def extend(self, other):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return [c.to_json() for c in self.checks]

    def require(self, context=""):
        if not self.passed:
            names = ", ".join(c.name for c in self.failures())
            error = VerificationError("%sfailed checks: %s"
                                      % (context + ": " if context else "", names))
            error.report = self
            raise error
        return self

    def __repr__(self):
        n = len(self.checks)
        bad = len(self.failures())
        return "Report(%d checks, %d failing)" % (n, bad)


class VerificationError(Exception):
    """An exact identity that the construction promises did not hold.

    Raised by ``Report.require`` with the failing report as ``report``.
    """

    report = None


def check_equal(name: str, lhs: Matrix, rhs: Matrix) -> Check:
    """Exact matrix identity check.

    The residue is read off the two sides: the first entry of largest
    ``field.abs_key`` among the entries of lhs − rhs in row-major order,
    and the check passes when that entry is zero.
    """
    if lhs.rows != rhs.rows or lhs.cols != rhs.cols:
        return Check(name, False, "shape",
                     detail={"lhs_shape": [lhs.rows, lhs.cols],
                             "rhs_shape": [rhs.rows, rhs.cols]})
    field = lhs.field
    worst = max(map(field.sub, lhs.entries(), rhs.entries()),
                key=field.abs_key, default=None)
    return Check(name, not worst, field.format(worst) if worst else None)
