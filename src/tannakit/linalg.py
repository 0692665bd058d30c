"""Dense exact linear algebra over a :class:`~tannakit.fields.Field`.

A :class:`Matrix` doubles as a linear map under the column convention:
columns are images of the domain basis vectors, so ``cols = domain_dim``
and ``rows = codomain_dim``, and ``A @ B`` is composition ``A ∘ B``.

The Kronecker index convention is fixed globally: the basis vector
``e_i ⊗ e_j`` of ``V ⊗ W`` has flat index ``i * dim(W) + j``, tensor
products associate left-to-right and are fully flattened.  All structural
isomorphisms of the tensor product of spaces are identity reindexings
under this convention.

Permutations of basis vectors, such as the factor swap ψ: V⊗W → W⊗V, are
index tuples: ``perm[j]`` is the index that basis vector ``j`` is sent to.
``swap_perm`` and ``kron_perm`` build them, ``permute_cols`` applies one on
the right of a matrix without building it, and ``perm_matrix`` builds the
dense matrix only where a caller needs one.

``kron_apply(a, b, m)`` is ``kron(a, b) @ m`` without the Kronecker
product: each nonzero ``m[(j, l)][c]`` is spread over the nonzeros of
column j of a and column l of b, so a law such as (Δ⊗id)∘Δ costs the
nonzeros it touches, not the size of Δ⊗id.  ``rref`` normalizes each
pivot row and then updates the other rows only at that row's nonzero
columns, the same skipping of zeros that ``Matrix.__matmul__`` does.
"""

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
        else:
            self.cols = 0 if cols is None else cols
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.data = [[z] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
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

    # -- equality / hash / repr ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return "Matrix(%s, %s)" % (self.field, self.to_strings())

    def to_strings(self):
        f = self.field.format
        return [[f(x) for x in row] for row in self.data]

    def is_zero(self):
        z = self.field.zero()
        return all(x == z for row in self.data for x in row)

    # -- arithmetic ----------------------------------------------------

    def __sub__(self, other):
        self._same_shape(other)
        sub = self.field.sub
        return Matrix(self.field, [[sub(a, b) for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.data, other.data)])

    def scale(self, c):
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, a) for a in row] for row in self.data])

    def __matmul__(self, other):
        """Matrix product = composition of linear maps (self after other).

        Iteration order skips zero entries, so products of the sparse
        structural matrices that dominate this domain stay cheap.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("composition mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        field = self.field
        add, mul = field.add, field.mul
        zero, one = field.zero(), field.one()
        out = Matrix.zeros(field, self.rows, other.cols)
        bnz = [[(j, v) for j, v in enumerate(row) if v != zero]
               for row in other.data]
        for i, arow in enumerate(self.data):
            orow = out.data[i]
            for k, a in enumerate(arow):
                if a == zero:
                    continue
                if a == one:
                    for j, b in bnz[k]:
                        orow[j] = add(orow[j], b)
                else:
                    for j, b in bnz[k]:
                        orow[j] = add(orow[j], mul(a, b))
        return out

    def transpose(self):
        out = Matrix.zeros(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j][i] = self.data[i][j]
        return out

    def kron(self, other):
        """Kronecker product under the fixed index convention."""
        field = self.field
        mul = field.mul
        zero, one = field.zero(), field.one()
        out = Matrix.zeros(field, self.rows * other.rows, self.cols * other.cols)
        bnz = [[(l, v) for l, v in enumerate(row) if v != zero]
               for row in other.data]
        for i in range(self.rows):
            arow = self.data[i]
            for j in range(self.cols):
                a = arow[j]
                if a == zero:
                    continue
                base = j * other.cols
                for k in range(other.rows):
                    orow = out.data[i * other.rows + k]
                    if a == one:
                        for l, v in bnz[k]:
                            orow[base + l] = v
                    else:
                        for l, v in bnz[k]:
                            orow[base + l] = mul(a, v)
        return out

    def apply(self, vec):
        """Image of a coordinate vector (list of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        add, mul, zero = self.field.add, self.field.mul, self.field.zero()
        out = []
        for row in self.data:
            acc = zero
            for a, x in zip(row, vec):
                if a != zero and x != zero:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return out

    def col(self, j):
        return [row[j] for row in self.data]

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def kron(a: Matrix, b: Matrix) -> Matrix:
    return a.kron(b)


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
    zero = field.zero()
    acols = [[(i, row[j]) for i, row in enumerate(a.data) if row[j] != zero]
             for j in range(a.cols)]
    bcols = [[(k, row[l]) for k, row in enumerate(b.data) if row[l] != zero]
             for l in range(b.cols)]
    out = Matrix.zeros(field, a.rows * b.rows, m.cols)
    for r, mrow in enumerate(m.data):
        j, l = divmod(r, b.cols)
        acol, bcol = acols[j], bcols[l]
        if not acol or not bcol:
            continue
        for c, v in enumerate(mrow):
            if v == zero:
                continue
            for i, x in acol:
                xv = mul(x, v)
                for k, y in bcol:
                    orow = out.data[i * b.rows + k]
                    orow[c] = add(orow[c], mul(xv, y))
    return out


# -- permutations as index maps ---------------------------------------


def swap_perm(a: int, b: int) -> tuple:
    """The commutation V⊗W → W⊗V (dims a, b): e_j⊗e_k ↦ e_k⊗e_j."""
    return tuple(k * a + j for j in range(a) for k in range(b))


def kron_perm(p, q) -> tuple:
    """Tensor product of two permutations: e_i⊗e_j ↦ e_p[i]⊗e_q[j]."""
    n = len(q)
    return tuple(i * n + j for i in p for j in q)


def permute_cols(m: Matrix, perm) -> Matrix:
    """``m @ P`` for the permutation P: column j of the result is column
    ``perm[j]`` of m."""
    if len(perm) != m.cols:
        raise ValueError("permutation of %d indices after a matrix with %d columns"
                         % (len(perm), m.cols))
    return Matrix(m.field, [[row[p] for p in perm] for row in m.data],
                  cols=m.cols)


def perm_matrix(field, perm) -> Matrix:
    """Dense matrix of the permutation sending e_j to e_perm[j]."""
    out = Matrix.zeros(field, len(perm), len(perm))
    one = field.one()
    for j, p in enumerate(perm):
        out.data[p][j] = one
    return out


# -- echelon forms and subspaces --------------------------------------


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns ``(echelon, pivots, rank)`` where pivots is the tuple of
    pivot column indices and rank = len(pivots).  The RREF is the unique
    one, so it doubles as a canonical form for row spaces.
    """
    field = m.field
    sub, mul = field.sub, field.mul
    zero = field.zero()
    data = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if data[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        prow = data[r]
        inv = field.inv(prow[c])
        pivot_nz = [(j, mul(inv, y)) for j, y in enumerate(prow) if y != zero]
        for j, y in pivot_nz:
            prow[j] = y
        for i in range(rows):
            row = data[i]
            factor = row[c]
            if i != r and factor != zero:
                for j, y in pivot_nz:
                    row[j] = sub(row[j], mul(factor, y))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return Matrix(field, data, cols=cols), tuple(pivots), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


class SubspaceBasis:
    """Subspace of K^ambient, stored as the RREF rows of a spanning set."""

    __slots__ = ("field", "ambient_dim", "vectors")

    def __init__(self, field, ambient_dim, vectors, reduce=True):
        self.field = field
        self.ambient_dim = ambient_dim
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if reduce and vectors:
            ech, pivots, _ = rref(Matrix(field, vectors))
            vectors = [list(ech.data[i]) for i in range(len(pivots))]
        self.vectors = vectors

    @property
    def dim(self):
        return len(self.vectors)

    def pivots(self):
        zero = self.field.zero()
        out = []
        for v in self.vectors:
            for c, x in enumerate(v):
                if x != zero:
                    out.append(c)
                    break
        return tuple(out)

    def contains(self, vec):
        """Membership test by reducing against the echelon rows."""
        zero = self.field.zero()
        v = list(vec)
        for row, p in zip(self.vectors, self.pivots()):
            if v[p] != zero:
                c = v[p]
                v = [self.field.sub(x, self.field.mul(c, y)) for x, y in zip(v, row)]
        return all(x == zero for x in v)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self.ambient_dim == other.ambient_dim
                and self.vectors == other.vectors)

    def __repr__(self):
        return "SubspaceBasis(dim %d of K^%d)" % (self.dim, self.ambient_dim)


def kernel_basis(f: Matrix) -> SubspaceBasis:
    """Basis of { v : f v = 0 }; dimension = domain_dim − rank(f)."""
    field = f.field
    ech, pivots, _ = rref(f)
    free = [c for c in range(f.cols) if c not in pivots]
    vectors = []
    zero, one = field.zero(), field.one()
    for c in free:
        v = [zero] * f.cols
        v[c] = one
        for r, p in enumerate(pivots):
            v[p] = field.neg(ech.data[r][c])
        vectors.append(v)
    return SubspaceBasis(field, f.cols, vectors)


def solve_matrix(a: Matrix, b: Matrix):
    """One solution X of a X = b, or None, from one rref of [a | b].

    The free unknowns are 0; a pivot in the b columns means some column
    of b is not in the image of a.
    """
    aug = Matrix(a.field, [ra + rb for ra, rb in zip(a.data, b.data)],
                 cols=a.cols + b.cols)
    ech, pivots, _ = rref(aug)
    if pivots and pivots[-1] >= a.cols:
        return None
    out = Matrix.zeros(a.field, a.cols, b.cols)
    for r, p in enumerate(pivots):
        out.data[p] = ech.data[r][a.cols:]
    return out


def quotient(ambient_dim: int, relations: SubspaceBasis):
    """Quotient of K^ambient by a relation subspace.

    Returns ``(proj, section)``: ``proj`` is surjective with kernel exactly
    the relation span, ``section`` satisfies ``proj @ section = identity``,
    and the quotient basis is the non-pivot coordinates of the relation
    echelon (canonical representatives).
    """
    if relations.ambient_dim != ambient_dim:
        raise ValueError("relations live in the wrong ambient space")
    field = relations.field
    pivots = relations.pivots()
    free = [c for c in range(ambient_dim) if c not in pivots]
    q = len(free)
    proj = Matrix.zeros(field, q, ambient_dim)
    one = field.one()
    for i, c in enumerate(free):
        proj.data[i][c] = one
    for row, p in zip(relations.vectors, pivots):
        # e_p ≡ -Σ_{free n} row[n]·e_n modulo the relations
        for i, n in enumerate(free):
            proj.data[i][p] = field.neg(row[n])
    section = Matrix.zeros(field, ambient_dim, q)
    for i, c in enumerate(free):
        section.data[c][i] = one
    return proj, section
