"""Exact ground fields: arbitrary-precision rationals and prime fields.

Scalars are canonical Python values (``fractions.Fraction`` in lowest terms
for the rationals, ints in ``[0, p)`` for a prime field), so ``==`` on
scalars and on matrices is exact equality.  The shared text format is
``"p/q"`` / ``"p"`` for rationals and ``"r mod p"`` for prime-field residues.

A canonical scalar of either field is falsy exactly when it is zero and
equals the int 1 exactly when it is one, so ``not x`` and ``x == 1``
decide zero and one exactly, without comparing two ``Fraction`` values.
The matrix kernels of ``linalg`` rely on this rule.

``QQ.zero()`` and ``QQ.one()`` return two shared module constants, not a
new ``Fraction`` per call.  So every structural zero and one of a Q
matrix (``Matrix.zeros``, ``identity``, ``from_rows``, ``perm_matrix``)
is the same object, and the list comparison of ``Matrix.__eq__`` passes
two such entries on identity, without calling ``Fraction.__eq__``.
"""

from fractions import Fraction


class InputError(ValueError):
    """A rejected input; the CLI reports it as ``<source>: <message>``."""

    source = None

    def __init__(self, message, source=None):
        super().__init__(message)
        self.source = source or self.source


class FieldError(InputError, ArithmeticError):
    source = "field"


# Miller–Rabin with the first 13 prime bases is exact below _MR_LIMIT, the
# least strong pseudoprime to all of them (Sorenson & Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin test; exact for 2 <= n < _MR_LIMIT."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Abstract exact field.  Elements are canonical immutable values.

    A concrete field has a ``name`` and provides ``zero``, ``one``,
    ``from_int``, ``add``, ``sub``, ``mul``, ``neg``, ``inv``, ``_parse``
    (a stripped scalar string to an element), ``format`` (an element to
    its text), and ``abs_key``, the order key used to pick the max-norm
    entry of lhs − rhs.
    """

    def parse(self, text: str):
        """Decode a scalar string; any malformed scalar raises FieldError."""
        if not isinstance(text, str):
            raise FieldError("scalar %r is not a string" % (text,))
        try:
            return self._parse(text.strip())
        except FieldError:
            raise
        except (ValueError, ZeroDivisionError):
            raise FieldError("malformed scalar %r over %s" % (text, self.name)) from None

    def elements(self):
        """Iterate all field elements (finite fields only)."""
        raise FieldError("field is not finite")


_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class RationalField(Field):
    """The rationals; Fraction keeps p/q in lowest terms with q > 0."""

    name = "Q"

    def zero(self):
        return _Q_ZERO

    def one(self):
        return _Q_ONE

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def _parse(self, text):
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))

    def format(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def abs_key(self, a):
        return abs(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """Integers mod p for a prime p; residues canonically in [0, p)."""

    def __init__(self, p: int):
        if p < 2:
            raise FieldError("modulus must be a prime >= 2")
        if p >= _MR_LIMIT:
            raise FieldError("modulus %d is beyond the proven range of the "
                             "primality test (< %d)" % (p, _MR_LIMIT))
        if not _is_prime(p):
            raise FieldError("modulus %d is not prime" % p)
        self.p = p
        self.name = "F%d" % p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero in F%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def _parse(self, text):
        if "mod" in text:
            r, m = text.split("mod")
            if int(m) != self.p:
                raise FieldError("scalar %r has wrong modulus for F%d" % (text, self.p))
            return int(r) % self.p
        return int(text) % self.p

    def format(self, a):
        return "%d mod %d" % (a % self.p, self.p)

    def abs_key(self, a):
        return a % self.p

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_config(cfg) -> Field:
    """Decode the shared JSON field config: "Q" or {"Fp": p}."""
    if cfg == "Q":
        return QQ
    if isinstance(cfg, dict) and set(cfg) == {"Fp"}:
        p = cfg["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise FieldError("Fp modulus must be an integer, got %r" % (p,))
        return GF(p)
    raise FieldError("unrecognized field config: %r" % (cfg,))
