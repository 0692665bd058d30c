"""Exact linear algebra over a :class:`~tannakit.fields.Field`.

A :class:`Matrix` doubles as a linear map under the column convention:
columns are images of the domain basis vectors, so ``cols = domain_dim``
and ``rows = codomain_dim``, and ``A @ B`` is composition ``A ∘ B``.

The Kronecker index convention is fixed globally: the basis vector
``e_i ⊗ e_j`` of ``V ⊗ W`` has flat index ``i * dim(W) + j``, tensor
products associate left-to-right and are fully flattened.  All structural
isomorphisms of the tensor product of spaces are identity reindexings
under this convention.

A ``Matrix`` is stored dense, as a list of rows, and only this module
reads that layout: other modules build a matrix from sparse rows
``{col: value}`` with ``Matrix.from_rows`` and read one through
``sparse_rows``, ``sparse_cols``, ``entries``, ``select_rows`` and
``select_cols``.  ``.data`` stays the writable dense face for tests.
``Matrix(field, data)`` copies rows given from outside and checks that
they are not ragged; a matrix whose rows ``linalg`` has just built (the
selections, ``curry``, ``uncurry``, products, the augmented system of
``solve_matrix``) takes them as they are, through the one private
constructor ``Matrix._adopt``.

The kernels (``sparse_rows``, ``sparse_cols``, ``@``, ``kron``,
``kron_apply`` and the elimination) test a scalar by the rule of
``fields``: ``not x`` for zero and ``x == 1`` for one, never ``x !=
field.zero()`` or ``x == field.one()``.  The answers are the same, but
over Q the comparison of two ``Fraction`` values runs the
``numbers.Rational`` check on every call, and a ``Fraction`` against an
int does not.  ``@``, ``kron`` and ``kron_apply`` skip each
multiplication by an entry equal to 1.

Permutations of basis vectors, such as the factor swap ψ: V⊗W → W⊗V, are
index tuples: ``perm[j]`` is the index that basis vector ``j`` is sent to.
``swap_perm``, ``kron_perm`` and ``middle_swap`` build them, ``select_cols``
applies one on the right of a matrix without building it, and
``perm_matrix`` builds the dense matrix only where a caller needs one.

``curry`` and ``uncurry`` are the tensor–hom adjunction Hom(V⊗W^∨, B) ≅
Hom(V, B⊗W), ``curry(h)[b·w + j][i] = h[b][i·w + j]``: coevaluations,
pairings, coefficient maps and duals go through them.

``kron_apply(a, b, m)`` is ``kron(a, b) @ m`` without the Kronecker
product: each nonzero ``m[(j, l)][c]`` is spread over the nonzeros of
column j of a and column l of b, so a law such as (Δ⊗id)∘Δ costs the
nonzeros it touches, not the size of Δ⊗id.

Every echelon form comes from one elimination core over sparse rows
``{col: value}``: a Gauss–Jordan pass that keeps each pivot row fully
reduced, in the style of structured Gaussian elimination (LaMacchia &
Odlyzko, CRYPTO 1990).  ``rref`` is a thin dense wrapper over it: all
``m.rows`` rows, the canonical echelon, its pivots and rank.
``SubspaceBasis`` and ``kernel_basis`` take sparse rows and keep them
sparse: a subspace is the RREF rows the elimination returns, and
``_kernel_rows`` reads the free entries of each from its dict to write
the kernel vectors e_c − Σ_p row_p[c]·e_p of an echelon, which are the
rows of ``quotient``'s projection and, in RREF, ``kernel_basis``.  So
the coend relations of ``coend``, a large system with a few nonzeros
per row, are never held dense; only ``Matrix`` is.
"""

from itertools import chain

from .fields import Field


class Matrix:
    """Immutable-by-convention dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, cols: int = None):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if cols is not None and cols != self.cols:
                raise ValueError("rows of length %d, not cols=%d"
                                 % (self.cols, cols))
        else:
            self.cols = 0 if cols is None else cols
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    # -- construction -------------------------------------------------

    @classmethod
    def _adopt(cls, field, data, cols):
        """The matrix whose rows are ``data``, fresh lists of length ``cols``
        that nothing else holds: kept as they are, not copied or checked."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = len(data)
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls._adopt(field, [[z] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field, n):
        one = field.one()
        return cls.from_rows(field, [{i: one} for i in range(n)], n)

    @classmethod
    def from_rows(cls, field, rows, cols):
        """The dense matrix of a list of sparse rows ``{col: value}`` with
        ``cols`` columns; the inverse of ``sparse_rows``."""
        m = cls.zeros(field, len(rows), cols)
        for dense, row in zip(m.data, rows):
            for j, x in row.items():
                dense[j] = x
        return m

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(x) for x in row] for row in rows])

    @classmethod
    def from_strings(cls, field, rows):
        return cls(field, [[field.parse(x) for x in row] for row in rows])

    @classmethod
    def column(cls, field, entries):
        return cls(field, [[x] for x in entries])

    @classmethod
    def row(cls, field, entries):
        return cls(field, [list(entries)])

    # -- linear-map view ----------------------------------------------

    @property
    def domain_dim(self):
        return self.cols

    @property
    def codomain_dim(self):
        return self.rows

    # -- equality / repr ------------------------------------------------

    def __eq__(self, other):
        # the list comparison passes identical entries without ``==``, so
        # the shared structural zeros and ones of ``fields`` cost no call
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "Matrix(%s, %s)" % (self.field, self.to_strings())

    def to_strings(self):
        f = self.field.format
        return [[f(x) for x in row] for row in self.data]

    # -- the sparse view and selections ---------------------------------

    def entries(self):
        """Every entry, row by row, as one iterator."""
        return chain.from_iterable(self.data)

    def sparse_rows(self):
        """Each row as ``{col: value}`` over its nonzero entries."""
        return [{j: x for j, x in enumerate(row) if x} for row in self.data]

    def sparse_cols(self):
        """Each column as ``{row: value}`` over its nonzero entries; the
        sparse rows of the transpose."""
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                if x:
                    cols[j][i] = x
        return cols

    def select_rows(self, indices):
        """Row r of the result is row ``indices[r]`` of self."""
        return Matrix._adopt(self.field, [self.data[i][:] for i in indices], self.cols)

    def select_cols(self, indices):
        """Column j of the result is column ``indices[j]`` of self.  For a
        permutation this is ``self @ perm_matrix(field, indices)``, and for a
        range it is a block of columns, sliced out of each row."""
        if isinstance(indices, range) and indices.step == 1:
            block = slice(indices.start, indices.stop)
            rows = [row[block] for row in self.data]
        else:
            rows = [[row[c] for c in indices] for row in self.data]
        return Matrix._adopt(self.field, rows, len(indices))

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other):
        """Matrix product = composition of linear maps (self after other).

        Iteration order skips zero entries, so products of the sparse
        structural matrices that dominate this domain stay cheap.  The
        nonzeros of a row of ``other`` are listed only when some entry of
        ``self`` touches that row.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("composition mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        field = self.field
        add, mul = field.add, field.mul
        out = Matrix.zeros(field, self.rows, other.cols)
        bnz = [None] * other.rows
        for i, arow in enumerate(self.data):
            orow = out.data[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                nz = bnz[k]
                if nz is None:
                    nz = bnz[k] = [(j, v) for j, v in enumerate(other.data[k]) if v]
                if a == 1:
                    for j, b in nz:
                        orow[j] = add(orow[j], b)
                else:
                    for j, b in nz:
                        orow[j] = add(orow[j], mul(a, b))
        return out

    def transpose(self):
        return Matrix.from_rows(self.field, self.sparse_cols(), self.rows)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product under the fixed index convention."""
    field = a.field
    mul = field.mul
    out = Matrix.zeros(field, a.rows * b.rows, a.cols * b.cols)
    bnz = b.sparse_rows()
    for i, arow in enumerate(a.sparse_rows()):
        for j, x in arow.items():
            base = j * b.cols
            for k in range(b.rows):
                orow = out.data[i * b.rows + k]
                if x == 1:
                    for l, v in bnz[k].items():
                        orow[base + l] = v
                else:
                    for l, v in bnz[k].items():
                        orow[base + l] = mul(x, v)
    return out


def kron_apply(a: Matrix, b: Matrix, m: Matrix) -> Matrix:
    """``kron(a, b) @ m`` without building ``kron(a, b)``.

    Row ``j * b.cols + l`` of m is the (j, l) component of its columns;
    each nonzero there meets only the nonzeros of column j of a and
    column l of b.
    """
    if m.rows != a.cols * b.cols:
        raise ValueError("composition mismatch: (%dx%d ⊗ %dx%d) @ %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols, m.rows, m.cols))
    field = a.field
    add, mul = field.add, field.mul
    acols, bcols = a.sparse_cols(), b.sparse_cols()
    out = Matrix.zeros(field, a.rows * b.rows, m.cols)
    for r, mrow in enumerate(m.sparse_rows()):
        j, l = divmod(r, b.cols)
        acol, bcol = acols[j], bcols[l]
        if not acol or not bcol:
            continue
        for c, v in mrow.items():
            for i, x in acol.items():
                xv = v if x == 1 else mul(x, v)
                for k, y in bcol.items():
                    orow = out.data[i * b.rows + k]
                    orow[c] = add(orow[c], xv if y == 1 else mul(xv, y))
    return out


# -- the tensor–hom adjunction ----------------------------------------


def curry(h: Matrix, v: int, w: int) -> Matrix:
    """Hom(V⊗W^∨, B) → Hom(V, B⊗W): ``curry(h)[b·w + j][i] = h[b][i·w + j]``.

    h: V⊗W^∨ → B becomes V → B⊗W, e_i ↦ Σ_{b,j} h(e_i⊗e_j^∨)·e_b⊗e_j.
    B is read off ``h.rows``; V and W are given, since a factor of
    dimension 0 leaves the other unreadable from ``h.cols``.
    """
    if v < 0 or w < 0 or h.cols != v * w:
        raise ValueError("%d columns do not factor as V⊗W^∨ with dims %d, %d"
                         % (h.cols, v, w))
    return Matrix._adopt(h.field, [[row[i * w + j] for i in range(v)]
                                   for row in h.data for j in range(w)], v)


def uncurry(g: Matrix, b: int, w: int) -> Matrix:
    """Inverse of ``curry``: g: V → B⊗W becomes V⊗W^∨ → B.

    V is read off ``g.cols``; B and W are given, for the same reason.
    """
    if b < 0 or w < 0 or g.rows != b * w:
        raise ValueError("%d rows do not factor as B⊗W with dims %d, %d"
                         % (g.rows, b, w))
    v = g.cols
    return Matrix._adopt(g.field, [[g.data[r * w + j][i] for i in range(v)
                                    for j in range(w)] for r in range(b)], v * w)


# -- permutations as index maps ---------------------------------------


def swap_perm(a: int, b: int) -> tuple:
    """The commutation V⊗W → W⊗V (dims a, b): e_j⊗e_k ↦ e_k⊗e_j."""
    return tuple(k * a + j for j in range(a) for k in range(b))


def kron_perm(p, q) -> tuple:
    """Tensor product of two permutations: e_i⊗e_j ↦ e_p[i]⊗e_q[j]."""
    n = len(q)
    return tuple(i * n + j for i in p for j in q)


def middle_swap(left: int, a: int, b: int, right: int) -> tuple:
    """id⊗ψ⊗id on dims (left, a, b, right): e_i⊗e_j⊗e_k⊗e_l ↦ e_i⊗e_k⊗e_j⊗e_l."""
    return kron_perm(kron_perm(range(left), swap_perm(a, b)), range(right))


def perm_matrix(field, perm) -> Matrix:
    """Dense matrix of the permutation sending e_j to e_perm[j]."""
    one = field.one()
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return Matrix.from_rows(field, [{j: one} for j in inverse], len(perm))


# -- echelon forms and subspaces --------------------------------------


def _sparse_rows(width, rows):
    """The sparse rows ``{col: value}``, checked to lie in K^width."""
    for row in rows:
        if row and (min(row) < 0 or max(row) >= width):
            raise ValueError("sparse vector index outside K^%d" % width)
    return rows


def _eliminate(field, rows):
    """Gauss–Jordan elimination over sparse rows ``{col: value}``.

    Each row is reduced by the pivot rows found so far.  If anything is
    left, it is scaled to lead with 1, and its leading column is cleared
    from the earlier pivot rows.  So every pivot row stays fully reduced:
    it leads with its own pivot column and holds no other pivot column,
    and the rows sorted by pivot are the unique RREF of the row space.
    Returns ``{pivot column: row}``; the input rows are not modified.
    """
    sub, mul = field.sub, field.mul
    zero = field.zero()
    pivot_rows = {}
    holders = {}    # non-pivot column -> pivot columns whose row holds it
    for given in rows:
        row = {j: x for j, x in given.items() if x}
        # a pivot row holds no other pivot column, so one pass suffices
        for p in [c for c in row if c in pivot_rows]:
            factor = row.pop(p)
            for j, y in pivot_rows[p].items():
                if j != p:
                    x = sub(row.get(j, zero), mul(factor, y))
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        if not row:
            continue
        lead = min(row)
        if row[lead] != 1:
            inv = field.inv(row[lead])
            row = {j: mul(inv, x) for j, x in row.items()}
        for p in holders.pop(lead, ()):
            prow = pivot_rows[p]
            factor = prow.pop(lead)
            for j, y in row.items():
                if j == lead:
                    continue
                x = sub(prow.get(j, zero), mul(factor, y))
                if x:
                    if j not in prow:
                        holders.setdefault(j, set()).add(p)
                    prow[j] = x
                else:
                    del prow[j]
                    holders[j].discard(p)
        for j in row:
            if j != lead:
                holders.setdefault(j, set()).add(lead)
        pivot_rows[lead] = row
    return pivot_rows


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns ``(echelon, pivots, rank)`` where pivots is the tuple of
    pivot column indices and rank = len(pivots); echelon has all
    ``m.rows`` rows, the rank rows first.  The RREF is the unique one,
    so it doubles as a canonical form for row spaces.
    """
    pivot_rows = _eliminate(m.field, m.sparse_rows())
    pivots = tuple(sorted(pivot_rows))
    echelon = [pivot_rows[p] for p in pivots] + [{}] * (m.rows - len(pivots))
    return Matrix.from_rows(m.field, echelon, m.cols), pivots, len(pivots)


def rank(m: Matrix) -> int:
    return len(_eliminate(m.field, m.sparse_rows()))


class SubspaceBasis:
    """Subspace of K^ambient, stored as the RREF rows of a spanning set.

    The spanning vectors are sparse rows ``{col: value}``; ``rows`` are the
    rank rows ``_eliminate`` returns, unchanged and in pivot order.
    """

    __slots__ = ("field", "ambient_dim", "rows", "_pivots")

    def __init__(self, field, ambient_dim, rows):
        self.field = field
        self.ambient_dim = ambient_dim
        pivot_rows = _eliminate(field, _sparse_rows(ambient_dim, rows))
        self._pivots = tuple(sorted(pivot_rows))
        self.rows = [pivot_rows[p] for p in self._pivots]

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return self._pivots

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __repr__(self):
        return "SubspaceBasis(dim %d of K^%d)" % (self.dim, self.ambient_dim)


def _kernel_rows(field, width, pivot_rows):
    """The kernel vectors of the echelon ``{pivot column: row}`` in K^width:
    for each free column c, in increasing order, e_c − Σ_p row_p[c]·e_p
    as a sparse row.  Returns ``{c: vector}``."""
    one = field.one()
    kernel = {c: {c: one} for c in range(width) if c not in pivot_rows}
    for p, row in pivot_rows.items():
        for c, x in row.items():
            if c != p:
                kernel[c][p] = field.neg(x)
    return kernel


def kernel_basis(rows, field, cols) -> SubspaceBasis:
    """Basis of { v : f v = 0 } for f given by sparse rows ``{col: value}``
    over ``field`` with ``cols`` columns, dimension cols − rank(f): the
    ``_kernel_rows`` of f's echelon, in RREF."""
    kernel = _kernel_rows(field, cols, _eliminate(field, _sparse_rows(cols, rows)))
    return SubspaceBasis(field, cols, list(kernel.values()))


def solve_matrix(a: Matrix, b: Matrix):
    """One solution X of a X = b, or None, from one rref of [a | b].

    The free unknowns are 0; a pivot in the b columns means some column
    of b is not in the image of a.
    """
    if a.rows != b.rows:
        raise ValueError("a has %d rows but b has %d" % (a.rows, b.rows))
    aug = Matrix._adopt(a.field, [ra + rb for ra, rb in zip(a.data, b.data)],
                        a.cols + b.cols)
    ech, pivots, _ = rref(aug)
    if pivots and pivots[-1] >= a.cols:
        return None
    out = Matrix.zeros(a.field, a.cols, b.cols)
    for r, p in enumerate(pivots):
        out.data[p] = ech.data[r][a.cols:]
    return out


def inverse(m: Matrix):
    """The inverse of m, or None unless m is square and invertible."""
    if m.rows != m.cols:
        return None
    return solve_matrix(m, Matrix.identity(m.field, m.rows))


def quotient(ambient_dim: int, relations: SubspaceBasis):
    """Quotient of K^ambient by a relation subspace.

    Returns ``(proj, free)``: ``free`` is the tuple of non-pivot columns of
    the relation echelon, whose basis vectors are the quotient basis
    (canonical representatives), and ``proj`` is surjective with kernel
    exactly the relation span and is the identity on those columns.
    """
    if relations.ambient_dim != ambient_dim:
        raise ValueError("relations live in the wrong ambient space")
    # row c of proj is the kernel vector of the free column c
    field = relations.field
    pivot_rows = dict(zip(relations.pivots(), relations.rows))
    kernel = _kernel_rows(field, ambient_dim, pivot_rows)
    return Matrix.from_rows(field, list(kernel.values()), ambient_dim), tuple(kernel)
