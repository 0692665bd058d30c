"""The predual of the natural-transformation space, computed exactly.

``CoendPresentation(cat, F, G)``, which ``natvee`` returns for two
functors over one field, realizes Nat^∨(F, G) as an explicit quotient of
the direct sum ⊕_C F(C)⊗G(C)^∨ by the span of one relation vector per
generator and basis pair: the block of e_i ⊗ G(f)^∨ e_j^∨ at the source
minus the block of F(f) e_i ⊗ e_j^∨ at the target.  Relations from
generating morphisms suffice: the relation vector of a composite splits
as a sum of generator relations, and identities contribute zero
(unit-tested).  Each relation has at most dim G(C) + dim F(C') nonzeros
in an ambient space of dimension Σ_C dim F(C)·dim G(C), so the
presentation builds them as sparse rows and hands them to
``SubspaceBasis``, which keeps its rank rows sparse; ``quotient`` reads
them as they are, and only the projection and the maps out of the
quotient are dense ``Matrix`` values.

Only the presentation eliminates the relations.  ``nat_space`` reads
Nat(F, G), the dual of Nat^∨(F, G), off it as the row space of ``proj``,
whose row c is e_c − Σ_p rel_p[c]·e_p, the kernel vector of the relation
echelon at the free column c: a functional on the ambient sum that kills
the relations is a natural family, θ_C = curry of its block at C.  One
helper, ``_natural_family``, reads θ off an ambient functional, for a
row of ``proj`` and for ``pairing_to_nat``'s ξ∘proj alike.  The pairing
between the two is the tensor–hom adjunction: ``pairing_to_nat`` curries
ξ∘λ_C and ``nat_to_pairing`` uncurries θ_C (``linalg.curry``/``uncurry``),
and the coevaluation η_C is curry(λ_C).

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
from .linalg import Matrix, SubspaceBasis, curry, kron, quotient, rref, uncurry
from .moncat import standard_pairing
from .report import Check, Report, VerificationError


class CoendPresentation:
    """Nat^∨(F, G) with its block inclusions λ_C and quotient data, all
    derived from the category and the two functors: ``object_index``
    (object, F-dim, G-dim), the block ``offsets`` in the ambient sum, the
    ``relation_span``, and ``proj`` with ``free``, the ambient columns of
    the quotient basis."""

    def __init__(self, category, F, G):
        self.field = F.field
        self.F = F
        self.G = G
        self.object_index = [(obj, F.dim(obj), G.dim(obj)) for obj in category.objects]
        self._block_dims = {obj: (fd, gd) for obj, fd, gd in self.object_index}
        self.offsets, self.ambient_dim = {}, 0
        for obj, fd, gd in self.object_index:
            self.offsets[obj] = self.ambient_dim
            self.ambient_dim += fd * gd
        self.relation_span = SubspaceBasis(
            self.field, self.ambient_dim, _relation_rows(category, F, G, self.offsets))
        self.proj, self.free = quotient(self.ambient_dim, self.relation_span)
        self.quotient_dim = self.proj.codomain_dim

    def block_dims(self, obj):
        return self._block_dims[obj]

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


def _relation_rows(cat: PresentedCategory, F: FiberFunctor, G: FiberFunctor, offs):
    """One coend relation per generator f: C→C' and basis pair (i, j), as
    a sparse row ``{ambient index: value}``, with the blocks at ``offs``."""
    field = F.field
    zero = field.zero()
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
    return rows


def natvee(cat: PresentedCategory, F: FiberFunctor,
           G: FiberFunctor) -> CoendPresentation:
    """Compute Nat^∨(F, G) as an explicit quotient presentation."""
    if F.field != G.field:
        raise ValueError("functors live over different fields")
    return CoendPresentation(cat, F, G)


class EndSpace:
    """Nat(F, G) as a basis of natural families (object ↦ matrix)."""

    def __init__(self, basis):
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)


def nat_space(cat: PresentedCategory, F: FiberFunctor, G: FiberFunctor) -> EndSpace:
    """Nat(F, G), read off Nat^∨(F, G) = ``natvee(cat, F, G)`` by ``_nat_of``."""
    return _nat_of(natvee(cat, F, G))


def _nat_of(P: CoendPresentation) -> EndSpace:
    """Nat(F, G) as the row space of P's projection, in RREF: the kernel of
    the relations.  The relation of (f: C→C', i, j) paired with a kernel
    vector v is (G(f)∘θ_C − θ_{C'}∘F(f))[j, i] for θ = ``_natural_family``
    of v, so the kernel is the natural families."""
    kernel = SubspaceBasis(P.field, P.ambient_dim, P.proj.sparse_rows())
    return EndSpace([_natural_family(P, Matrix.from_rows(P.field, [v], P.ambient_dim))
                     for v in kernel.rows])


def _natural_family(P: CoendPresentation, functional: Matrix) -> dict:
    """θ_C = curry of the block at C of a functional on ⊕_C F(C)⊗G(C)^∨."""
    family = {}
    for obj, fd, gd in P.object_index:
        off = P.offsets[obj]
        family[obj] = curry(functional.select_cols(range(off, off + fd * gd)), fd, gd)
    return family


def pairing_to_nat(P: CoendPresentation, xi: Matrix) -> dict:
    """Natural family θ_C = curry(ξ∘λ_C) from a functional ξ on the coend:
    the family of the functional ξ∘proj on the ambient sum."""
    if xi.rows != 1 or xi.cols != P.quotient_dim:
        raise ValueError("functional must be 1 x quotient_dim")
    return _natural_family(P, xi @ P.proj)


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
