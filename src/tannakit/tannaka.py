"""Structure maps on End^∨(F) and the reconstruction pipeline.

Always: End^∨(F) is a coalgebra (cocomposition + counit).  With valid
tensor data it becomes a bialgebra: the multiplication is induced
blockwise by λ_{C⊗D}∘(s_{C,D}⊗s_{C,D}^{-∨}) after reordering the four
tensor factors with the middle-swap index map (never built as a matrix),
and the unit is λ_I.  With valid duality data it becomes a Hopf
algebra: the antipode acts on the block at C by moving it to the block
at C^∧ through the canonical identifications ι_C = curry(ε_C): F(C) →
F(C^∧)^∨ and ι'_C = uncurry(η_C): F(C)^∨ → F(C^∧) of the evaluated
counit and unit of the duality, followed by the factor swap.  ρ̃'s
blocks are uncurry(ρ_V).

Every map defined on generators (m, a, ε, Δ, ρ̃) is built on the
ambient space and descends through ``CoendPresentation.push_to_quotient``,
which checks that it kills the relation span; a failure raises instead of
silently producing wrong structure constants.  The unit lands in the
quotient through λ_I and needs no descent.

Δ and ε are built by ``_endvee_coalgebra`` alone and verified once per
builder: ``endvee_coalgebra`` checks their laws, and ``endvee_bialgebra``
without a given coalgebra leaves them to its bialgebra check.  A family
of coactions is stated a comodule family once, by ``comodule_report``:
``lift_functor`` returns it and ``rho_tilde`` requires it.  For the
universal coactions η_C = curry(λ_C) the report verifies Δ and ε too,
on every block λ_C, and the blocks span the quotient.  ``rho_tilde``
checks the coalgebra laws only when ρ̃ is not injective: an injective ρ̃
that respects Δ and ε carries B's laws back to End^∨.  Comodule maps are
natural transformations, since block b of ρ₂∘f = (id⊗f)∘ρ₁ is
ρ₂_b∘f = f∘ρ₁_b, so ``comodule_morphism_space`` is ``coend.nat_space``
for fᵀ on one object with one generator per basis vector of the
coalgebra, read off the projection of that category's Nat^∨.
"""

from .catpres import (FiberFunctor, Generator, PresentedCategory,
                      duality_pairing_vec)
from .coend import (CoendPresentation, cocomposition, coevaluation, counit,
                    nat_space, natvee)
from .hopf import (AlgebraData, BialgebraData, CoalgebraData, ComoduleData,
                   HopfData, check_comodule_morphism, convolve_functionals)
from .linalg import (Matrix, SubspaceBasis, curry, inverse, kron, kron_apply,
                     middle_swap, rank, swap_perm, uncurry)
from .report import Check, Report, VerificationError, check_equal


def _endvee_coalgebra(P: CoendPresentation) -> CoalgebraData:
    """Δ = cocomposition, ε = counit, not yet verified."""
    return CoalgebraData(P.quotient_dim, cocomposition(P, P, P), counit(P))


def endvee_coalgebra(P: CoendPresentation) -> CoalgebraData:
    """Δ = cocomposition, ε = counit; the coalgebra axioms are re-verified."""
    coalg = _endvee_coalgebra(P)
    coalg.checks().require("endvee_coalgebra")
    return coalg


def _tagged(report: Report, tag) -> Report:
    """The checks of ``report`` renamed ``law:tag``."""
    out = Report()
    for check in report.checks:
        out.add(Check("%s:%s" % (check.name, tag), check.passed, check.residue))
    return out


def endvee_bialgebra(cat, F, T, P: CoendPresentation,
                     coalgebra: CoalgebraData = None) -> BialgebraData:
    """Multiplication and unit λ_I (f⊗f^{-∨} is the identity on the line
    F(I)) from tensor data, verified well defined with ``coalgebra``."""
    field = P.field
    amb = P.ambient_dim
    q = P.quotient_dim
    rows = [{} for _ in range(q)]
    for c, dc, _ in P.object_index:
        for d, dd, _ in P.object_index:
            smap = T.s_map(c, d)
            sinv = inverse(smap)
            if sinv is None:
                raise VerificationError("comparison s at (%s, %s) is singular" % (c, d))
            mid = middle_swap(dc, dc, dd, dd)
            block = (P.lam(T.obj(c, d))
                     @ kron(smap, sinv.transpose())).select_cols(mid)
            offc, offd = P.offsets[c], P.offsets[d]
            for row, block_row in zip(rows, block.sparse_rows()):
                for src, x in block_row.items():
                    a, b = divmod(src, dd * dd)
                    row[(offc + a) * amb + offd + b] = x
    m = P.push_to_quotient(Matrix.from_rows(field, rows, amb * amb), "multiplication")
    if inverse(T.f_unit) is None:
        raise VerificationError("unit comparison f is singular")
    if coalgebra is None:
        coalgebra = _endvee_coalgebra(P)
    big = BialgebraData(coalgebra, AlgebraData(q, m, P.lam(T.unit)))
    big.checks().require("endvee_bialgebra")
    return big


def endvee_antipode(cat, F, T, D, P: CoendPresentation,
                    bialgebra: BialgebraData) -> HopfData:
    """Antipode on ``bialgebra``: a∘λ_C = λ_{C^∧}∘swap∘(ι_C ⊗ ι'_C)."""
    blocks = {}
    for obj, d, _ in P.object_index:
        dual = D.dual(obj)
        ddual = F.dim(dual)
        eta_vec, eps_vec = duality_pairing_vec(cat, F, T, D, obj)
        iota, iota_p = curry(eps_vec, d, ddual), uncurry(eta_vec, ddual, d)
        blocks[obj] = (P.lam(dual).select_cols(swap_perm(ddual, ddual))
                       @ kron(iota, iota_p))
    ambient_map = P.assemble_on_blocks(blocks, P.quotient_dim)
    antipode = P.push_to_quotient(ambient_map, "antipode")
    hopf = HopfData(bialgebra, antipode)
    hopf.checks().require("endvee_antipode")
    return hopf


def comodule_report(cat, F, coactions, B: CoalgebraData) -> Report:
    """Each coaction is a comodule over B, and each generator image a
    comodule map: the comodule laws per object (named ``law:object``) and
    the comodule-morphism square per generator."""
    report = Report()
    for obj in cat.objects:
        report.extend(_tagged(coactions[obj].checks(B), obj))
    for g in cat.generators:
        ok = check_comodule_morphism(F.gen_matrix(g.name), coactions[g.src],
                                     coactions[g.dst], B)
        report.add(Check("comodule_morphism:%s" % g.name, ok, "square fails"))
    return report


def lift_functor(cat, F, P: CoendPresentation):
    """Comodule structure on every F(C) via the coevaluation, with checks.

    Returns (coactions, report): one ComoduleData per object, and the
    ``comodule_report`` of the family.  Violations never happen for a
    valid presentation; a failing entry localizes an engine bug.

    End^∨'s own coalgebra laws are not checked here, because the report
    implies them (Joyal & Street: End^∨ is the universal coalgebra over
    which every F(C) is a comodule).  ``coaction_coassoc:C`` says that
    Δ∘λ_C is the cocomposition formula on block C, and ``coaction_counit:C``
    that ε∘λ_C is the evaluation; the λ_C images span the quotient, so
    once every object passes, (Δ⊗id)Δ = (id⊗Δ)Δ and both counit laws
    hold.  A wrong Δ or ε therefore fails the report instead of raising.
    """
    coalg = _endvee_coalgebra(P)
    coactions = {obj: ComoduleData(P.quotient_dim, fd, coevaluation(P, obj))
                 for obj, fd, _ in P.object_index}
    return coactions, comodule_report(cat, F, coactions, coalg)


def rho_tilde(B: CoalgebraData, cat, F, coactions, P: CoendPresentation = None):
    """Reconstruction morphism ρ̃: End^∨(U) → B for comodules (U = F).

    ``coactions`` maps each object to its ComoduleData over B; every
    coaction must satisfy the comodule laws and every generator image
    must be a comodule morphism (checked, not assumed: a failing
    ``comodule_report`` raises ``VerificationError`` carrying it).
    Blocks: ρ̃∘λ_V = (id_B ⊗ eval_V)∘(ρ_V ⊗ id_{V^∨}) = uncurry(ρ_V).

    Those premises are exactly what makes the ambient map kill every
    relation, so it always descends; a failure to descend raises
    ``VerificationError``.  Returns (rho_tilde_map, report); the report
    carries the well-definedness check and both coalgebra-morphism
    identities.

    End^∨'s own coalgebra laws are checked, unreported, only when ρ̃ is
    not injective; a failure raises ``VerificationError`` with ρ̃'s checks
    and then End^∨'s laws as ``law:endvee``.  An injective ρ̃ needs no such
    check: the reported identities pull B's laws back, (ρ̃⊗ρ̃⊗ρ̃)∘(Δ⊗id)∘Δ
    = (Δ_B⊗id)∘Δ_B∘ρ̃ = (id⊗Δ_B)∘Δ_B∘ρ̃ = (ρ̃⊗ρ̃⊗ρ̃)∘(id⊗Δ)∘Δ with ρ̃⊗ρ̃⊗ρ̃
    injective, and ρ̃∘(ε⊗id)∘Δ = (ε_B⊗id)∘Δ_B∘ρ̃ = ρ̃, likewise on the right.
    """
    for obj in cat.objects:
        if coactions[obj].space_dim != F.dim(obj):
            raise VerificationError("coaction at %r has wrong dimension" % obj)
    comodule_report(cat, F, coactions, B).require("rho_tilde")
    if P is None:
        P = natvee(cat, F, F)
    blocks = {obj: uncurry(coactions[obj].rho, B.dim, d)
              for obj, d, _ in P.object_index}
    ambient_map = P.assemble_on_blocks(blocks, B.dim)
    rt = P.push_to_quotient(ambient_map, "rho_tilde")
    report = Report()
    report.add(Check("rho_tilde_well_defined", True))
    endv = _endvee_coalgebra(P)
    report.add(check_equal("rho_tilde_respects_delta",
                           B.delta @ rt, kron_apply(rt, rt, endv.delta)))
    report.add(check_equal("rho_tilde_respects_eps", B.eps @ rt, endv.eps))
    if rank(rt) < P.quotient_dim:
        laws = _tagged(endv.checks(), "endvee")
        if not laws.passed:
            report.extend(laws).require("rho_tilde")
    return rt, report


def rep_of_comodule(com: ComoduleData, chi: Matrix) -> Matrix:
    """Action of a character through the coaction: θ(χ) = (χ⊗id)∘ρ."""
    if chi.rows != 1 or chi.cols != com.coalgebra_dim:
        raise ValueError("character must be a functional on the coalgebra")
    return kron_apply(chi, Matrix.identity(com.field, com.space_dim), com.rho)


def check_rep_correspondence(comodules, chars, B: BialgebraData) -> Report:
    """θ(ε) = id and the contravariant law θ(f)∘θ(g) = θ(g∗f), exactly."""
    report = Report()
    for name, com in comodules.items():
        theta_eps = rep_of_comodule(com, B.eps)
        report.add(check_equal("theta_eps_identity:%s" % name, theta_eps,
                               Matrix.identity(B.field, com.space_dim)))
        for i, f in enumerate(chars):
            for j, g in enumerate(chars):
                lhs = rep_of_comodule(com, f) @ rep_of_comodule(com, g)
                conv = convolve_functionals(g, f, B.coalgebra)
                rhs = rep_of_comodule(com, conv)
                report.add(check_equal(
                    "theta_contravariant:%s:%d,%d" % (name, i, j), lhs, rhs))
    return report


def intertwines_all(f: Matrix, com1: ComoduleData, com2: ComoduleData,
                    chars) -> bool:
    """Does f intertwine θ(χ) for every character χ?"""
    for chi in chars:
        if not (rep_of_comodule(com2, chi) @ f == f @ rep_of_comodule(com1, chi)):
            return False
    return True


def comodule_morphism_space(com1: ComoduleData, com2: ComoduleData):
    """Basis of { f : ρ₂∘f = (id⊗f)∘ρ₁ }, in RREF of f's row-major entries.

    Block b of the law is ρ₂_b∘f = f∘ρ₁_b, with ρ_b the b-th block row of
    ρ; transposed, fᵀ∘ρ₂_bᵀ = ρ₁_bᵀ∘fᵀ.  So fᵀ is a natural
    transformation between two functors on one object with a generator
    per basis vector of B, sent to ρ₂_bᵀ and ρ₁_bᵀ, and its entry f[i][j]
    is the ambient index i·d₁ + j of that system.
    """
    if com1.coalgebra_dim != com2.coalgebra_dim:
        raise ValueError("comodules over different coalgebras")
    blocks = range(com1.coalgebra_dim)
    cat = PresentedCategory(["*"], [Generator(str(b), "*", "*") for b in blocks])

    def block_rows(com):
        d = com.space_dim
        return FiberFunctor(com.field, {"*": d},
                            {str(b): com.rho.select_rows(range(b * d, (b + 1) * d)).transpose()
                             for b in blocks})

    return [family["*"].transpose() for family
            in nat_space(cat, block_rows(com2), block_rows(com1)).basis]


def morphism_image_span(cat, F, src, dst):
    """Span of F-images of all paths src → dst in the presentation.

    Left composition by a generator b → c sends the paths src → b to paths
    src → c, so only the spans out of src are closed: one per object,
    seeded with the identity at src and grown by the generator images
    until none grows; termination is forced by the dimension bound on
    each span.  Each span holds the row-major entries of its matrices as
    sparse rows.
    """
    field = F.field
    zero = field.zero()
    d_src = F.dim(src)

    def flatten(m):
        return dict(enumerate(m.entries()))

    def unflatten(row, obj):
        return Matrix(field, [[row.get(r * d_src + c, zero) for c in range(d_src)]
                              for r in range(F.dim(obj))], cols=d_src)

    spans = {obj: SubspaceBasis(field, F.dim(obj) * d_src, []) for obj in cat.objects}
    spans[src] = SubspaceBasis(field, d_src * d_src,
                               [flatten(Matrix.identity(field, d_src))])
    changed = True
    while changed:
        changed = False
        for g in cat.generators:
            gm = F.gen_matrix(g.name)
            images = [flatten(gm @ unflatten(row, g.src)) for row in spans[g.src].rows]
            span = spans[g.dst]
            grown = SubspaceBasis(field, span.ambient_dim, span.rows + images)
            if grown.dim > span.dim:
                spans[g.dst] = grown
                changed = True
    return [unflatten(row, dst) for row in spans[dst].rows]
