"""Structure-constant records for (co)algebras, bialgebras, Hopf algebras
and comodules over a finite-dimensional carrier, with every axiom an
exact matrix identity, plus the convolution algebra, grouplike elements
and characters.

Comodules are left comodules throughout: ρ: M → B⊗M.  The symmetry ψ
in the bialgebra law is an index map (``linalg.middle_swap``), applied
without building its matrix, and the coalgebra, comodule and
comodule-morphism laws and ``convolution`` (for the antipode laws
S ∗ id = u∘ε = id ∗ S) apply their tensor products through
``linalg.kron_apply`` without building them.

Grouplikes of the coalgebra and characters of the algebra share one
bounded exhaustive search (``_search_space``, sized against
``ENUMERATION_BOUND`` before anything is enumerated) filtered by the
definition, and one group table (``_group_table``) whose entries are the
index of the last element equal to each product.
"""

from itertools import product

from .linalg import Matrix, kron, kron_apply, middle_swap
from .report import Check, Report, check_equal

ENUMERATION_BOUND = 1 << 17  # largest space the bounded search enumerates


class CoalgebraData:
    """Carrier with comultiplication Δ: B → B⊗B and counit ε: B → K."""

    def __init__(self, dim: int, delta: Matrix, eps: Matrix):
        if delta.domain_dim != dim or delta.codomain_dim != dim * dim:
            raise ValueError("delta must be dim^2 x dim")
        if eps.domain_dim != dim or eps.codomain_dim != 1:
            raise ValueError("eps must be 1 x dim")
        self.dim = dim
        self.delta = delta
        self.eps = eps

    @property
    def field(self):
        return self.delta.field

    def checks(self) -> Report:
        field = self.field
        ident = Matrix.identity(field, self.dim)
        report = Report()
        lhs = kron_apply(self.delta, ident, self.delta)
        rhs = kron_apply(ident, self.delta, self.delta)
        report.add(check_equal("coassociativity", lhs, rhs))
        report.add(check_equal("counit_left",
                               kron_apply(self.eps, ident, self.delta), ident))
        report.add(check_equal("counit_right",
                               kron_apply(ident, self.eps, self.delta), ident))
        return report

    def to_json(self):
        return {"dim": self.dim, "delta": self.delta.to_strings(),
                "eps": self.eps.to_strings()}


class AlgebraData:
    """Carrier with multiplication m: A⊗A → A and unit u: K → A."""

    def __init__(self, dim: int, m: Matrix, u: Matrix):
        if m.domain_dim != dim * dim or m.codomain_dim != dim:
            raise ValueError("m must be dim x dim^2")
        if u.domain_dim != 1 or u.codomain_dim != dim:
            raise ValueError("u must be dim x 1")
        self.dim = dim
        self.m = m
        self.u = u

    @property
    def field(self):
        return self.m.field

    def checks(self) -> Report:
        field = self.field
        ident = Matrix.identity(field, self.dim)
        report = Report()
        lhs = self.m @ kron(self.m, ident)
        rhs = self.m @ kron(ident, self.m)
        report.add(check_equal("associativity", lhs, rhs))
        report.add(check_equal("unit_left", self.m @ kron(self.u, ident), ident))
        report.add(check_equal("unit_right", self.m @ kron(ident, self.u), ident))
        return report


class BialgebraData:
    """Compatible coalgebra and algebra structures on one carrier."""

    def __init__(self, coalgebra: CoalgebraData, algebra: AlgebraData):
        if coalgebra.dim != algebra.dim:
            raise ValueError("coalgebra and algebra dimensions differ")
        self.coalgebra = coalgebra
        self.algebra = algebra
        self.dim = coalgebra.dim

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def delta(self):
        return self.coalgebra.delta

    @property
    def eps(self):
        return self.coalgebra.eps

    @property
    def m(self):
        return self.algebra.m

    @property
    def u(self):
        return self.algebra.u

    def checks(self) -> Report:
        field = self.field
        n = self.dim
        report = Report()
        report.extend(self.coalgebra.checks())
        report.extend(self.algebra.checks())
        mid = middle_swap(n, n, n, n)
        lhs = self.delta @ self.m
        rhs = kron(self.m, self.m).select_cols(mid) @ kron(self.delta, self.delta)
        report.add(check_equal("bialgebra_delta_m", lhs, rhs))
        report.add(check_equal("bialgebra_eps_m", self.eps @ self.m,
                               kron(self.eps, self.eps)))
        report.add(check_equal("bialgebra_delta_u", self.delta @ self.u,
                               kron(self.u, self.u)))
        report.add(check_equal("bialgebra_eps_u", self.eps @ self.u,
                               Matrix.identity(field, 1)))
        return report

    def to_json(self):
        out = self.coalgebra.to_json()
        out["m"] = self.m.to_strings()
        out["u"] = self.u.to_strings()
        return out


class HopfData:
    """Bialgebra with an antipode inverting the identity under convolution."""

    def __init__(self, bialgebra: BialgebraData, antipode: Matrix):
        if antipode.rows != bialgebra.dim or antipode.cols != bialgebra.dim:
            raise ValueError("antipode must be dim x dim")
        self.bialgebra = bialgebra
        self.antipode = antipode
        self.dim = bialgebra.dim

    @property
    def field(self):
        return self.bialgebra.field

    def checks(self) -> Report:
        b = self.bialgebra
        C, A, S = b.coalgebra, b.algebra, self.antipode
        ident = Matrix.identity(self.field, self.dim)
        u_eps = b.u @ b.eps
        report = Report()
        report.extend(b.checks())
        report.add(check_equal("antipode_left", convolution(S, ident, C, A), u_eps))
        report.add(check_equal("antipode_right", convolution(ident, S, C, A), u_eps))
        return report

    def to_json(self):
        out = self.bialgebra.to_json()
        out["antipode"] = self.antipode.to_strings()
        return out


class ComoduleData:
    """Space with a left coaction ρ: M → B⊗M over a coalgebra of known dim."""

    def __init__(self, coalgebra_dim: int, space_dim: int, rho: Matrix):
        if rho.domain_dim != space_dim or rho.codomain_dim != coalgebra_dim * space_dim:
            raise ValueError("rho must be (coalgebra_dim*space_dim) x space_dim")
        self.coalgebra_dim = coalgebra_dim
        self.space_dim = space_dim
        self.rho = rho

    @property
    def field(self):
        return self.rho.field

    def checks(self, B: CoalgebraData) -> Report:
        if B.dim != self.coalgebra_dim:
            raise ValueError("coalgebra dimension mismatch")
        field = self.field
        id_m = Matrix.identity(field, self.space_dim)
        id_b = Matrix.identity(field, B.dim)
        report = Report()
        lhs = kron_apply(B.delta, id_m, self.rho)
        rhs = kron_apply(id_b, self.rho, self.rho)
        report.add(check_equal("coaction_coassoc", lhs, rhs))
        report.add(check_equal("coaction_counit",
                               kron_apply(B.eps, id_m, self.rho), id_m))
        return report


def check_comodule(m: ComoduleData, B: CoalgebraData) -> bool:
    return m.checks(B).passed


def check_comodule_morphism(f: Matrix, m1: ComoduleData, m2: ComoduleData,
                            B: CoalgebraData) -> bool:
    """ρ'∘f = (id_B⊗f)∘ρ as an exact identity."""
    if f.domain_dim != m1.space_dim or f.codomain_dim != m2.space_dim:
        raise ValueError("map shape does not match the comodules")
    id_b = Matrix.identity(B.field, B.dim)
    return m2.rho @ f == kron_apply(id_b, f, m1.rho)


def convolution(f: Matrix, g: Matrix, C: CoalgebraData, A: AlgebraData) -> Matrix:
    """f ∗ g = m_A ∘ (f⊗g) ∘ Δ_C for maps C → A."""
    if f.domain_dim != C.dim or g.domain_dim != C.dim:
        raise ValueError("convolution operands must start at the coalgebra")
    if f.codomain_dim != A.dim or g.codomain_dim != A.dim:
        raise ValueError("convolution operands must land in the algebra")
    return A.m @ kron_apply(f, g, C.delta)


def convolve_functionals(xi1: Matrix, xi2: Matrix, C: CoalgebraData) -> Matrix:
    """Convolution of functionals C → K (the algebra is K itself)."""
    return kron_apply(xi1, xi2, C.delta)


class UnsupportedCoalgebraError(ValueError):
    """Grouplike search over the rationals needs a solvable Δ shape."""


def _search_space(field, dim):
    """Every coordinate vector a bounded search tries, as value tuples.

    Over a prime field that is all of K^dim; over the rationals it is the
    {0, 1, −1} value patterns (see ``characters``).  The size is checked
    before any value is produced, since ``field.elements()`` is range(p).
    """
    if hasattr(field, "p"):
        total = field.p ** dim
        if total > ENUMERATION_BOUND:
            raise UnsupportedCoalgebraError(
                "enumeration space %d exceeds the bound" % total)
        values = field.elements()
    else:
        if 3 ** dim > ENUMERATION_BOUND:
            raise UnsupportedCoalgebraError(
                "value-pattern space 3^%d exceeds the bound" % dim)
        values = [field.zero(), field.one(), field.neg(field.one())]
    return product(values, repeat=dim)


def is_grouplike(B: CoalgebraData, vec) -> bool:
    field = B.field
    col = Matrix.column(field, vec)
    return (B.delta @ col == kron(col, col)
            and B.eps @ col == Matrix.identity(field, 1))


def grouplikes(B: CoalgebraData):
    """All v with Δ(v) = v⊗v and ε(v) = 1, as coordinate vectors.

    Over a prime field the solutions are found by exhaustive enumeration
    (the state space must stay within ``ENUMERATION_BOUND``).  Over the
    rationals the solved case is the diagonal monomial shape
    Δ(b_i) = b_i⊗b_i, where the quadratic system collapses to picking
    single basis vectors with ε = 1; any other shape is refused.
    """
    field = B.field
    if not hasattr(field, "p"):
        if not _is_diagonal_monomial(B):
            raise UnsupportedCoalgebraError(
                "over Q only diagonal monomial comultiplications are solved")
        one, zero = field.one(), field.zero()
        return [[one if j == i else zero for j in range(B.dim)]
                for i, x in enumerate(B.eps.entries()) if x == one]
    return [list(v) for v in _search_space(field, B.dim) if is_grouplike(B, v)]


def _is_diagonal_monomial(B: CoalgebraData) -> bool:
    """Every Δ(b_i) = b_i⊗b_i exactly."""
    one = B.field.one()
    return B.delta.sparse_cols() == [{i * B.dim + i: one} for i in range(B.dim)]


def _last_index(items, x):
    """Index of the last entry of items equal to x, or None."""
    found = None
    for idx, item in enumerate(items):
        if item == x:
            found = idx
    return found


def _group_table(items, mul):
    """table[i][j] = _last_index(items, mul(items[i], items[j])), and
    whether no product escapes the set."""
    table = [[_last_index(items, mul(x, y)) for y in items] for x in items]
    return table, all(None not in row for row in table)


def grouplike_group(H: HopfData, gls) -> tuple:
    """Multiplication table of a grouplike set under m, with verification.

    Checks closure, that u(1) is the neutral element and a member, and
    that the antipode sends each grouplike to its two-sided inverse.
    Returns (table, report); table[i][j] is the index of g_i·g_j.
    """
    field = H.field
    b = H.bialgebra
    report = Report()
    cols = [Matrix.column(field, v) for v in gls]
    unit = b.u
    unit_idx = _last_index(cols, unit)
    report.add(check_equal("grouplike_unit_is_member", unit,
                           cols[unit_idx] if unit_idx is not None
                           else Matrix.zeros(field, H.dim, 1)))
    table, closure_ok = _group_table(cols, lambda x, y: b.m @ kron(x, y))
    report.add(Check("grouplike_closure", closure_ok, "escapes"))
    invs = [H.antipode @ c for c in cols]
    inverse_ok = all(b.m @ kron(inv, c) == unit and b.m @ kron(c, inv) == unit
                     for c, inv in zip(cols, invs))
    report.add(Check("grouplike_antipode_inverse", inverse_ok, "not inverse"))
    return table, report


def check_character(chi: Matrix, B: BialgebraData) -> bool:
    """χ∘m = χ⊗χ (as a bilinear form) and χ∘u = 1, exactly."""
    if chi.rows != 1 or chi.cols != B.dim:
        raise ValueError("character must be a functional on the bialgebra")
    return (chi @ B.m == kron(chi, chi)
            and chi @ B.u == Matrix.identity(B.field, 1))


def characters(B: BialgebraData):
    """Algebra morphisms B → K, the dual notion of grouplikes.

    Over a prime field: exhaustive enumeration of functionals.  Over the
    rationals the solved case is a grouplike basis (diagonal monomial Δ):
    the basis is then a finite monoid under m, each basis element has a
    multiplicative order there, and a character value t over Q satisfying
    t^a(t^b − 1) = 0 lies in {0, 1, −1}; enumerating those value patterns
    and filtering by the definition is exhaustive.  Other shapes are
    refused.
    """
    field = B.field
    if not hasattr(field, "p") and not _is_diagonal_monomial(B.coalgebra):
        raise UnsupportedCoalgebraError(
            "over Q only grouplike-basis bialgebras are solved")
    candidates = (Matrix.row(field, v) for v in _search_space(field, B.dim))
    return [c for c in candidates if check_character(c, B)]


def convolution_group(chars, H: HopfData) -> tuple:
    """Verify a character set is a group under convolution.

    ε is the neutral element, χ∘a the two-sided inverse; returns
    (table, report) with table[i][j] the index of χ_i ∗ χ_j.
    """
    b = H.bialgebra
    report = Report()
    for idx, chi in enumerate(chars):
        report.add(Check("character:%d" % idx, check_character(chi, b), "fails"))
    if not report.passed:
        raise ValueError("convolution_group needs verified characters")
    eps = b.eps
    eps_idx = _last_index(chars, eps)
    report.add(Check("counit_is_member", eps_idx is not None, "missing"))
    table, closure_ok = _group_table(
        chars, lambda x, y: convolve_functionals(x, y, b.coalgebra))
    report.add(Check("character_closure", closure_ok, "escapes"))
    identity_ok = all(table[eps_idx][j] == j and table[j][eps_idx] == j
                      for j in range(len(chars))) if eps_idx is not None else False
    report.add(Check("counit_is_identity", identity_ok, "not neutral"))
    invs = [chi @ H.antipode for chi in chars]
    inverse_ok = all(convolve_functionals(chi, inv, b.coalgebra) == eps
                     and convolve_functionals(inv, chi, b.coalgebra) == eps
                     for chi, inv in zip(chars, invs))
    report.add(Check("antipode_gives_inverse", inverse_ok, "not inverse"))
    return table, report


def enumerate_linear_maps(field, rows: int, cols: int):
    """All rows x cols matrices over a finite field (exhaustive)."""
    for entries in product(field.elements(), repeat=rows * cols):
        yield Matrix(field, [list(entries[r * cols:(r + 1) * cols])
                             for r in range(rows)], cols=cols)
