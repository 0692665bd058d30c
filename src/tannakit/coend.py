"""The predual of the natural-transformation space, computed exactly.

``natvee`` realizes Nat^∨(F, G) as an explicit quotient of the direct sum
⊕_C F(C)⊗G(C)^∨ by the span of one relation vector per generator and
basis pair: the block of e_i ⊗ G(f)^∨ e_j^∨ at the source minus the block
of F(f) e_i ⊗ e_j^∨ at the target.  Relations from generating morphisms
suffice: the relation vector of a composite splits as a sum of generator
relations, and identities contribute zero (unit-tested).  Each relation
has at most dim G(C) + dim F(C') nonzeros in an ambient space of
dimension Σ_C dim F(C)·dim G(C), so ``natvee`` builds the relations as
sparse rows and hands them to ``SubspaceBasis``, which keeps its rank
rows sparse; ``quotient`` reads them as they are, and only the
projection and the maps out of the quotient are dense ``Matrix`` values.
``relation_vectors`` returns the same relations as dense lists; nothing
in the package calls it, and it stays as an independent input for the
rank oracles of the tests.

``nat_space`` computes Nat(F, G) on the other side of the predual pairing
as the solution space of the naturality equations, which it builds as
sparse rows for ``kernel_basis`` in the same way; θ_C is uncurry of the
block of a kernel vector at C.  The pairing between
the two is the tensor–hom adjunction: ``pairing_to_nat`` curries ξ∘λ_C
and ``nat_to_pairing`` uncurries θ_C (``linalg.curry``/``uncurry``), and
the coevaluation η_C is curry(λ_C).

Every map out of the quotient that is defined blockwise on the ambient
sum descends through one path, ``CoendPresentation.push_to_quotient``:
it restricts the map to the free columns of the quotient basis and then
verifies, for maps on the ambient sum (Δ, ε, the antipode, ρ̃) and on its
tensor square (the multiplication) alike, so the dinaturality arguments
that make them well defined become machine checks.  The evaluation form
placed on the counit's blocks comes from ``moncat.standard_pairing``; the
standard coevaluation inside Δ is applied as a contraction over the
middle index, so Δ never builds a Kronecker product.
"""

from .catpres import FiberFunctor, PresentedCategory
from .linalg import (Matrix, SubspaceBasis, curry, kernel_basis, kron, quotient,
                     rref, uncurry)
from .moncat import standard_pairing
from .report import Check, Report, VerificationError


class CoendPresentation:
    """Nat^∨(F, G) with its block inclusions λ_C and quotient data."""

    def __init__(self, category, F, G, object_index, relation_span,
                 proj, free):
        self.category = category
        self.F = F
        self.G = G
        self.object_index = object_index      # list of (object, F-dim, G-dim)
        self.relation_span = relation_span
        self.proj = proj
        self.free = free                      # ambient columns of the quotient basis
        self.offsets, self.ambient_dim = _block_offsets(category, F, G)
        self.quotient_dim = proj.codomain_dim

    @property
    def field(self):
        return self.proj.field

    def block_dims(self, obj):
        for o, fd, gd in self.object_index:
            if o == obj:
                return fd, gd
        raise KeyError("object %r not in coend index" % obj)

    def lam(self, obj) -> Matrix:
        """λ_C: F(C)⊗G(C)^∨ → quotient, the columns of proj at the block."""
        fd, gd = self.block_dims(obj)
        off = self.offsets[obj]
        return self.proj.select_cols(range(off, off + fd * gd))

    def assemble_on_blocks(self, block_maps, codomain_dim) -> Matrix:
        """Glue per-object maps on ambient blocks into one map on the ambient."""
        rows = [{} for _ in range(codomain_dim)]
        for obj, m in block_maps.items():
            fd, gd = self.block_dims(obj)
            if (m.rows, m.cols) != (codomain_dim, fd * gd):
                raise ValueError("map on the block at %r is %dx%d, not %dx%d"
                                 % (obj, m.rows, m.cols, codomain_dim, fd * gd))
            off = self.offsets[obj]
            for row, block_row in zip(rows, m.sparse_rows()):
                row.update((off + j, x) for j, x in block_row.items())
        return Matrix.from_rows(self.field, rows, self.ambient_dim)

    def push_to_quotient(self, ambient_map: Matrix, name: str) -> Matrix:
        """Solve h∘π = ambient_map on the free columns, then verify.

        The single descent path to the quotient.  The domain is read from
        ``ambient_map.cols``: the ambient sum (π = proj) or its tensor
        square (π = proj⊗proj, whose free columns are the pairs
        a·n + b of free columns), where the multiplication lives.  π is
        the identity on the free columns, so the candidate is ambient_map
        restricted to them; it factors through π exactly when ambient_map
        kills the relations, which is re-checked here rather than assumed.
        """
        n = self.ambient_dim
        if ambient_map.cols == n:
            proj, cols = self.proj, self.free
        elif ambient_map.cols == n * n:
            proj = kron(self.proj, self.proj)
            cols = [a * n + b for a in self.free for b in self.free]
        else:
            raise ValueError("%s has %d columns, not %d or %d"
                             % (name, ambient_map.cols, n, n * n))
        candidate = ambient_map.select_cols(cols)
        if not (candidate @ proj == ambient_map):
            raise VerificationError(
                "%s does not descend to the coend quotient "
                "(a dinaturality premise failed)" % name)
        return candidate

    def kills_relations(self, ambient_map: Matrix) -> bool:
        span = self.relation_span
        rels = Matrix.from_rows(self.field, span.rows, span.ambient_dim)
        return (ambient_map @ rels.transpose()
                == Matrix.zeros(self.field, ambient_map.rows, span.dim))

    def to_json(self):
        """Stable serialization (quotient dim, relation rank, λ matrices)."""
        return {
            "quotient_dim": self.quotient_dim,
            "relation_rank": self.relation_span.dim,
            "object_index": [[obj, fd, gd] for obj, fd, gd in self.object_index],
            "lambda": {obj: self.lam(obj).to_strings()
                       for obj, _, _ in self.object_index},
        }


def _block_offsets(cat: PresentedCategory, F: FiberFunctor, G: FiberFunctor):
    """``(offsets, total)`` of the blocks of dim F(C)·G(C), one per object,
    in the coend's ambient sum and in the naturality system alike."""
    offsets = {}
    total = 0
    for obj in cat.objects:
        offsets[obj] = total
        total += F.dim(obj) * G.dim(obj)
    return offsets, total


def _relation_rows(cat: PresentedCategory, F: FiberFunctor, G: FiberFunctor):
    """One coend relation per generator f: C→C' and basis pair (i, j), as
    a sparse row ``{ambient index: value}``; returns ``(ambient, rows)``."""
    field = F.field
    zero = field.zero()
    offs, ambient = _block_offsets(cat, F, G)
    rows = []
    for g in cat.generators:
        src, dst = g.src, g.dst
        fcols = F.gen_matrix(g.name).sparse_cols()
        grows = G.gen_matrix(g.name).sparse_rows()
        gd_src = G.dim(src)
        gd_dst = G.dim(dst)
        for i in range(F.dim(src)):
            for j in range(gd_dst):
                # block at src: e_i ⊗ G(f)^∨ e_j^∨,  G(f)^∨ e_j^∨ = row j of G(f)
                row = {offs[src] + i * gd_src + k: coeff
                       for k, coeff in grows[j].items()}
                # block at dst: − F(f) e_i ⊗ e_j^∨,  F(f) e_i = column i
                for l, coeff in fcols[i].items():
                    pos = offs[dst] + l * gd_dst + j
                    row[pos] = field.sub(row.get(pos, zero), coeff)
                rows.append(row)
    return ambient, rows


def relation_vectors(cat: PresentedCategory, F: FiberFunctor, G: FiberFunctor):
    """The rows of ``_relation_rows`` as dense lists of length ``ambient``."""
    ambient, rows = _relation_rows(cat, F, G)
    zero = F.field.zero()
    vectors = []
    for row in rows:
        vec = [zero] * ambient
        for c, x in row.items():
            vec[c] = x
        vectors.append(vec)
    return ambient, vectors


def natvee(cat: PresentedCategory, F: FiberFunctor,
           G: FiberFunctor) -> CoendPresentation:
    """Compute Nat^∨(F, G) as an explicit quotient presentation."""
    if F.field != G.field:
        raise ValueError("functors live over different fields")
    ambient, rows = _relation_rows(cat, F, G)
    span = SubspaceBasis(F.field, ambient, rows)
    proj, free = quotient(ambient, span)
    object_index = [(obj, F.dim(obj), G.dim(obj)) for obj in cat.objects]
    return CoendPresentation(cat, F, G, object_index, span, proj, free)


class EndSpace:
    """Nat(F, G) as a basis of natural families (object ↦ matrix)."""

    def __init__(self, category, F, G, basis):
        self.category = category
        self.F = F
        self.G = G
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)


def nat_space(cat: PresentedCategory, F: FiberFunctor, G: FiberFunctor) -> EndSpace:
    """Solve the naturality equations θ_{C'}∘F(f) = G(f)∘θ_C exactly."""
    field = F.field
    zero = field.zero()
    offs, total = _block_offsets(cat, F, G)    # θ_C is G-dim × F-dim, row-major
    rows = []
    for g in cat.generators:
        src, dst = g.src, g.dst
        fcols = F.gen_matrix(g.name).sparse_cols()
        grows = G.gen_matrix(g.name).sparse_rows()
        for a in range(G.dim(dst)):
            for b in range(F.dim(src)):
                #  (θ_{dst} F(f))[a,b] = Σ_l θ_dst[a,l] F(f)[l,b]
                row = {offs[dst] + a * F.dim(dst) + l: coeff
                       for l, coeff in fcols[b].items()}
                #  −(G(f) θ_{src})[a,b] = −Σ_k G(f)[a,k] θ_src[k,b]
                for k, coeff in grows[a].items():
                    pos = offs[src] + k * F.dim(src) + b
                    row[pos] = field.sub(row.get(pos, zero), coeff)
                rows.append(row)
    basis = []
    for vec in kernel_basis(rows, field, total).rows:
        family = {}
        for obj in cat.objects:
            gd, fd = G.dim(obj), F.dim(obj)
            block = range(offs[obj], offs[obj] + gd * fd)
            column = Matrix.from_rows(field, [{0: vec.get(k, zero)} for k in block], 1)
            family[obj] = uncurry(column, gd, fd)
        basis.append(family)
    return EndSpace(cat, F, G, basis)


def pairing_to_nat(P: CoendPresentation, xi: Matrix) -> dict:
    """Natural family θ_C = curry(ξ∘λ_C) from a functional ξ on the coend."""
    if xi.rows != 1 or xi.cols != P.quotient_dim:
        raise ValueError("functional must be 1 x quotient_dim")
    return {obj: curry(xi @ P.lam(obj), fd, gd) for obj, fd, gd in P.object_index}


def nat_to_pairing(P: CoendPresentation, family: dict) -> Matrix:
    """Inverse of pairing_to_nat: solve ξ∘λ_C = uncurry(θ_C) for ξ.

    The uncurried family is a functional on the ambient sum; it descends
    to the quotient exactly when the family is natural, which is verified.
    """
    blocks = {obj: uncurry(family[obj], 1, gd) for obj, _, gd in P.object_index}
    return P.push_to_quotient(P.assemble_on_blocks(blocks, 1),
                              "nat_to_pairing functional")


def coevaluation(P: CoendPresentation, obj) -> Matrix:
    """η_C = curry(λ_C): F(C) → Nat^∨(F,G) ⊗ G(C), e_k ↦ Σ_j λ_C(e_k⊗e_j^∨)⊗e_j."""
    fd, gd = P.block_dims(obj)
    return curry(P.lam(obj), fd, gd)


def cocomposition(P_FG: CoendPresentation, P_GH: CoendPresentation,
                  P_FH: CoendPresentation) -> Matrix:
    """Δ: Nat^∨(F,H) → Nat^∨(F,G) ⊗ Nat^∨(G,H).

    Blockwise Δ∘λ_C = (λ_C⊗λ_C)∘(id_{FC} ⊗ coeval_{GC} ⊗ id_{HC^∨}) with
    the standard coevaluation of G(C) inserted in the middle.  That
    composite contracts the G(C) index, so each block is computed as

        block[r·q_GH + s][i·hd + l] = Σ_j λ_FG[r][i·gd + j] · λ_GH[s][j·hd + l]

    over the nonzeros of the two λ_C, without building either Kronecker
    factor.  Each block is added straight into the sparse rows of the
    ambient map, at the block's offset; the candidate descends through
    ``push_to_quotient`` and is verified on every block.
    """
    field = P_FH.field
    add, mul = field.add, field.mul
    zero = field.zero()
    q_gh = P_GH.quotient_dim
    rows = [{} for _ in range(P_FG.quotient_dim * q_gh)]
    for obj, _, hd in P_FH.object_index:
        gd = P_FG.block_dims(obj)[1]
        off = P_FH.offsets[obj]
        # nonzeros of λ_GH at G-index j, as (s, l, value)
        gh_nz = [[] for _ in range(gd)]
        for s, row in enumerate(P_GH.lam(obj).sparse_rows()):
            for col, y in row.items():
                j, l = divmod(col, hd)
                gh_nz[j].append((s, l, y))
        for r, row in enumerate(P_FG.lam(obj).sparse_rows()):
            for col, x in row.items():
                i, j = divmod(col, gd)
                for s, l, y in gh_nz[j]:
                    arow = rows[r * q_gh + s]
                    c = off + i * hd + l
                    arow[c] = add(arow.get(c, zero), mul(x, y))
    ambient_map = Matrix.from_rows(field, rows, P_FH.ambient_dim)
    return P_FH.push_to_quotient(ambient_map, "cocomposition")


def pairing_bijection_report(P: CoendPresentation, N: EndSpace) -> Report:
    """Verify pairing_to_nat is a linear bijection onto N = Nat(F, G).

    Rank check both ways: the images of the coordinate functionals span a
    space of dimension quotient_dim inside the naturality solution space,
    whose dimension must agree; and the two directions invert each other
    on bases.
    """
    field = P.field
    report = Report()
    q = P.quotient_dim
    rows = []
    families = []
    for k in range(q):
        xi = Matrix.from_rows(field, [{k: field.one()}], q)
        fam = pairing_to_nat(P, xi)
        families.append((xi, fam))
        rows.append([x for obj, _, _ in P.object_index for x in fam[obj].entries()])
    image_rank = rref(Matrix(field, rows, cols=P.ambient_dim))[2] if q else 0
    report.add(Check("pairing_rank_injective", image_rank == q, str(image_rank)))
    report.add(Check("pairing_rank_onto", image_rank == N.dim,
                     "%d vs %d" % (image_rank, N.dim)))
    round_ok = all(nat_to_pairing(P, fam) == xi for xi, fam in families)
    report.add(Check("pairing_roundtrip_functionals", round_ok, "mismatch"))
    back_ok = True
    for fam in N.basis:
        xi = nat_to_pairing(P, fam)
        if pairing_to_nat(P, xi) != fam:
            back_ok = False
    report.add(Check("pairing_roundtrip_families", back_ok, "mismatch"))
    return report


def counit(P: CoendPresentation) -> Matrix:
    """ε: End^∨(F) → K with ε∘λ_C the evaluation form on F(C)⊗F(C)^∨."""
    if P.F is not P.G and P.F.on_objects != P.G.on_objects:
        raise ValueError("counit needs an End presentation (F = G)")
    blocks = {obj: standard_pairing(fd, P.field).eval
              for obj, fd, _ in P.object_index}
    ambient_map = P.assemble_on_blocks(blocks, 1)
    return P.push_to_quotient(ambient_map, "counit")
