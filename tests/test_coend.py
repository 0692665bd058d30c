import tracemalloc
from fractions import Fraction

import pytest

from tannakit import (GF, FiberFunctor, Generator, Matrix, PresentedCategory,
                      QQ, VerificationError, cocomposition, counit, kron,
                      load_document, nat_space, natvee, pairing_bijection_report,
                      rref, standard_pairing)
from tannakit import coend
from tannakit.catpres import path_eval
from tannakit.coend import coevaluation, nat_to_pairing, pairing_to_nat
from tannakit.fields import InputError
from tannakit.linalg import SubspaceBasis, inverse

from conftest import (FIXTURES, bare_object, cyclic_document, dense_nat_space,
                      kills_relations, load_fixture, rand_invertible, rand_matrix,
                      relation_vectors, run_cli)


def single_object(dim, rng=None, gens=0):
    names = ["f%d" % i for i in range(gens)]
    cat = PresentedCategory(["c"], [Generator(n, "c", "c") for n in names])
    mats = {n: rand_matrix(rng, QQ, dim, dim) for n in names} if rng else {}
    F = FiberFunctor(QQ, {"c": dim}, mats)
    return cat, F


def test_natvee_no_generators():
    cat, F = single_object(3)
    P = natvee(cat, F, F)
    assert P.quotient_dim == 9
    assert P.lam("c") == Matrix.identity(QQ, 9)


def test_natvee_z2_regular_with_rank_oracle():
    doc = load_fixture("z2_regular")
    ambient, vectors = relation_vectors(doc.category, doc.functor, doc.functor)
    assert ambient == 4
    # independent oracle: rref rank of the raw relation vectors
    span_rank = rref(Matrix(QQ, vectors, cols=4))[2]
    assert span_rank == 2
    P = natvee(doc.category, doc.functor, doc.functor)
    assert P.quotient_dim == 4 - span_rank == 2


def test_natvee_character_category():
    doc = load_fixture("z2_character")
    P = natvee(doc.category, doc.functor, doc.functor)
    assert P.quotient_dim == 2
    assert P.lam("one").sparse_cols() == [{0: Fraction(1)}]
    assert P.lam("sigma").sparse_cols() == [{1: Fraction(1)}]


def test_dinaturality_on_composite_paths():
    # generator relations suffice: dinaturality extends to all composites,
    # the identity (k = 0) and the generator itself (k = 1) included
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    F = doc.functor
    for k in range(5):
        path = doc.category.path(["g"] * k, at="star")
        m = path_eval(doc.category, F, path)
        lhs = P.lam("star") @ kron(Matrix.identity(QQ, 2), m.transpose())
        rhs = P.lam("star") @ kron(m, Matrix.identity(QQ, 2))
        assert lhs == rhs


def test_generator_relations_span_composite_relations(rng):
    # the relation vector of a composite decomposes as a sum of generator
    # relations, so the generator span already contains it
    cat = PresentedCategory(["a", "b", "c"],
                            [Generator("g", "a", "b"), Generator("h", "b", "c")])
    F = FiberFunctor(QQ, {"a": 2, "b": 2, "c": 2},
                     {"g": rand_matrix(rng, QQ, 2, 2),
                      "h": rand_matrix(rng, QQ, 2, 2)})
    ambient, vectors = relation_vectors(cat, F, F)
    span = SubspaceBasis(QQ, ambient, Matrix(QQ, vectors, cols=ambient).sparse_rows())
    # composite h∘g: a → c; its relation vectors live in the same span
    comp_cat = PresentedCategory(["a", "b", "c"], [Generator("hg", "a", "c")])
    comp_F = FiberFunctor(QQ, F.on_objects,
                          {"hg": F.gen_matrix("h") @ F.gen_matrix("g")})
    _, composite = relation_vectors(comp_cat, comp_F, comp_F)
    assert any(any(v) for v in composite)
    both = Matrix(QQ, vectors + composite, cols=ambient).sparse_rows()
    assert SubspaceBasis(QQ, ambient, both) == span


def test_universality_of_quotient(rng):
    # any functional vanishing on the relation span factors through proj
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    h = rand_matrix(rng, QQ, 1, P.quotient_dim) @ P.proj
    assert kills_relations(P, h)
    on_free = Matrix(QQ, [[h.data[0][c] for c in P.free]], cols=P.quotient_dim)
    assert on_free @ P.proj == h


def test_push_to_quotient_reads_domain_from_columns(rng):
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    xi = rand_matrix(rng, QQ, 1, P.quotient_dim)
    assert P.push_to_quotient(xi @ P.proj, "h") == xi
    xi2 = rand_matrix(rng, QQ, 1, P.quotient_dim ** 2)
    assert P.push_to_quotient(xi2 @ kron(P.proj, P.proj), "h2") == xi2
    bump = Matrix.zeros(QQ, 1, P.ambient_dim)
    bump.data[0][P.relation_span.pivots()[0]] = QQ.one()
    with pytest.raises(VerificationError):
        P.push_to_quotient(bump, "bump")
    with pytest.raises(ValueError):
        P.push_to_quotient(Matrix.zeros(QQ, 1, P.ambient_dim + 1), "bad")


def test_nat_space_no_constraints():
    cat, F = single_object(3)
    assert nat_space(cat, F, F).dim == 9


def test_nat_space_z2_commutant():
    doc = load_fixture("z2_regular")
    N = nat_space(doc.category, doc.functor, doc.functor)
    assert N.dim == 2
    swap = doc.functor.gen_matrix("g")
    for fam in N.basis:
        theta = fam["star"]
        assert theta @ swap == swap @ theta


def test_nat_space_zero_target():
    cat = PresentedCategory(["c"], [])
    F = FiberFunctor(QQ, {"c": 3}, {})
    G = FiberFunctor(QQ, {"c": 0}, {})
    assert nat_space(cat, F, G).dim == 0
    P = natvee(cat, F, G)
    assert P.quotient_dim == 0


def test_relations_are_built_once(monkeypatch):
    """``nat`` and ``nat_space`` read Nat(F, G) off the one presentation of
    Nat^∨(F, G), so each builds the coend relation rows once."""
    built = []
    relation_rows = coend._relation_rows

    def counting(*args):
        built.append(args)
        return relation_rows(*args)

    monkeypatch.setattr(coend, "_relation_rows", counting)
    code, _, _ = run_cli(["nat", "--fixture", "z2_regular", "--json"])
    assert (code, len(built)) == (0, 1)
    doc = load_fixture("z2_regular")
    assert nat_space(doc.category, doc.functor, doc.functor).dim == 2
    assert len(built) == 2


def test_pairing_counit_gives_identity():
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    eps = counit(P)
    fam = pairing_to_nat(P, eps)
    assert fam["star"] == Matrix.identity(QQ, 2)


def test_pairing_zero():
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    fam = pairing_to_nat(P, Matrix.zeros(QQ, 1, P.quotient_dim))
    assert fam["star"] == Matrix.zeros(QQ, 2, 2)


def test_pairing_roundtrip():
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    N = nat_space(doc.category, doc.functor, doc.functor)
    assert pairing_bijection_report(P, N).passed


def test_nat_to_pairing_rejects_a_family_of_the_wrong_shape():
    # θ_one must be 1×1; a 1×2 block would spill into the block of sigma
    doc = load_fixture("z2_character")
    P = natvee(doc.category, doc.functor, doc.functor)
    family = {"one": Matrix.from_ints(QQ, [[1, 5]]),
              "sigma": Matrix.from_ints(QQ, [[0]])}
    for order in (family, dict(reversed(family.items()))):
        with pytest.raises(ValueError):
            nat_to_pairing(P, order)


def test_pairing_to_nat_lands_in_nat_space():
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    swap = doc.functor.gen_matrix("g")
    for k in range(P.quotient_dim):
        xi = Matrix.zeros(QQ, 1, P.quotient_dim)
        xi.data[0][k] = QQ.one()
        theta = pairing_to_nat(P, xi)["star"]
        assert theta @ swap == swap @ theta


def random_presentation(rng):
    """A random category of 1–3 objects and 0–4 generators, with two
    functors F ≠ G of random dimensions and random generator images."""
    objs = ["o%d" % i for i in range(rng.randint(1, 3))]
    gens = []
    for i in range(rng.randint(0, 4)):
        gens.append(Generator("f%d" % i, rng.choice(objs), rng.choice(objs)))
    cat = PresentedCategory(objs, gens)
    dims_f = {o: rng.randint(1, 3) for o in objs}
    dims_g = {o: rng.randint(1, 3) for o in objs}
    F = FiberFunctor(QQ, dims_f,
                     {g.name: rand_matrix(rng, QQ, dims_f[g.dst], dims_f[g.src])
                      for g in gens})
    G = FiberFunctor(QQ, dims_g,
                     {g.name: rand_matrix(rng, QQ, dims_g[g.dst], dims_g[g.src])
                      for g in gens})
    return cat, F, G


def test_dimension_duality_random_relation_free(rng):
    for _ in range(15):
        cat, F, G = random_presentation(rng)
        P = natvee(cat, F, G)
        N = nat_space(cat, F, G)
        assert P.quotient_dim == N.dim
        assert pairing_bijection_report(P, N).passed


def assert_nat_space_matches_dense_system(cat, F, G):
    """``nat_space`` spans the solutions of the dense naturality system;
    the two bases differ in order, so their spans are compared, each
    family flattened to the row-major entries of its θ_C in object order."""
    width = sum(F.dim(obj) * G.dim(obj) for obj in cat.objects)

    def span(families):
        return SubspaceBasis(F.field, width, [
            dict(enumerate(x for obj in cat.objects for x in fam[obj].entries()))
            for fam in families])

    N = nat_space(cat, F, G)
    dense = dense_nat_space(cat, F, G)
    assert N.dim == len(dense)
    assert span(N.basis) == span(dense)


@pytest.mark.parametrize("name", FIXTURES)
def test_nat_space_matches_dense_system_on_fixtures(name):
    doc = load_fixture(name)
    assert_nat_space_matches_dense_system(doc.category, doc.functor, doc.functor)


@pytest.mark.parametrize("p", [None, 101], ids=["Q", "F101"])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_nat_space_matches_dense_system_on_cyclic(n, p):
    doc = load_document(cyclic_document(n, p, diag=list(range(1, n + 1))))
    assert_nat_space_matches_dense_system(doc.category, doc.functor, doc.functor)


def test_nat_space_matches_dense_system_random(rng):
    for _ in range(15):
        assert_nat_space_matches_dense_system(*random_presentation(rng))


# -- coevaluation, cocomposition, counit --------------------------------


def test_coevaluation_one_dim():
    cat, F = single_object(1)
    P = natvee(cat, F, F)
    eta = coevaluation(P, "c")
    assert eta == Matrix.from_ints(QQ, [[1]])


def test_coevaluation_character_category():
    doc = load_fixture("z2_character")
    P = natvee(doc.category, doc.functor, doc.functor)
    # η_1(1) = x_1⊗1 and η_σ(s) = x_σ⊗s in the quotient coordinates
    eta_one = coevaluation(P, "one")
    eta_sigma = coevaluation(P, "sigma")
    assert eta_one.sparse_cols() == [{0: Fraction(1)}]
    assert eta_sigma.sparse_cols() == [{1: Fraction(1)}]


def test_coevaluation_counit_law_regular():
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    eta = coevaluation(P, "star")
    eps = counit(P)
    recovered = kron(eps, Matrix.identity(QQ, 2)) @ eta
    assert recovered == Matrix.identity(QQ, 2)


def test_cocomposition_one_dim():
    cat, F = single_object(1)
    P = natvee(cat, F, F)
    delta = cocomposition(P, P, P)
    assert delta == Matrix.from_ints(QQ, [[1]])


def test_cocomposition_character_grouplike():
    doc = load_fixture("z2_character")
    P = natvee(doc.category, doc.functor, doc.functor)
    delta = cocomposition(P, P, P)
    # both generators are grouplike: Δ(x_C) = x_C⊗x_C
    x1 = Matrix.from_ints(QQ, [[1], [0]])
    xs = Matrix.from_ints(QQ, [[0], [1]])
    assert delta @ x1 == kron(x1, x1)
    assert delta @ xs == kron(xs, xs)


def test_cocomposition_coassociative_regular():
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    delta = cocomposition(P, P, P)
    ident = Matrix.identity(QQ, P.quotient_dim)
    assert kron(delta, ident) @ delta == kron(ident, delta) @ delta


def dense_cocomposition(P_FG, P_GH, P_FH):
    """Δ through the dense (λ⊗λ)∘(id⊗coeval⊗id), the reference for the
    contraction in ``cocomposition``."""
    field = P_FH.field
    blocks = {}
    for obj, fd, hd in P_FH.object_index:
        gd = P_FG.block_dims(obj)[1]
        insert = kron(kron(Matrix.identity(field, fd),
                           standard_pairing(gd, field).coeval),
                      Matrix.identity(field, hd))
        blocks[obj] = kron(P_FG.lam(obj), P_GH.lam(obj)) @ insert
    ambient = P_FH.assemble_on_blocks(blocks,
                                      P_FG.quotient_dim * P_GH.quotient_dim)
    return P_FH.push_to_quotient(ambient, "dense cocomposition")


def involution_functor(rng, field, plus, minus, isolated_dim):
    """An involution at "c" with ``plus`` eigenvalues 1 and ``minus``
    eigenvalues −1 in a random basis; "e" has no generators."""
    d = plus + minus
    diag = Matrix.identity(field, d)
    for i in range(plus, d):
        diag.data[i][i] = field.neg(field.one())
    basis = rand_invertible(rng, field, d)
    s = basis @ diag @ inverse(basis)
    return FiberFunctor(field, {"c": d, "e": isolated_dim}, {"s": s})


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_cocomposition_matches_dense_on_distinct_functors(rng, field):
    cat = PresentedCategory(["c", "e"], [Generator("s", "c", "c")])
    F = involution_functor(rng, field, 2, 1, 1)
    G = involution_functor(rng, field, 1, 1, 2)
    H = involution_functor(rng, field, 2, 2, 3)
    for obj in cat.objects:
        fd, gd, hd = F.dim(obj), G.dim(obj), H.dim(obj)
        assert len({fd, gd, hd}) == 3
    P_FG, P_GH, P_FH = natvee(cat, F, G), natvee(cat, G, H), natvee(cat, F, H)
    for P in (P_FG, P_GH, P_FH):
        assert P.relation_span.dim > 0 and P.quotient_dim > 0
    delta = cocomposition(P_FG, P_GH, P_FH)
    assert delta.rows == P_FG.quotient_dim * P_GH.quotient_dim
    assert delta.cols == P_FH.quotient_dim
    assert delta != Matrix.zeros(field, delta.rows, delta.cols)
    assert delta == dense_cocomposition(P_FG, P_GH, P_FH)


def test_counit_values():
    cat, F = single_object(1)
    P = natvee(cat, F, F)
    assert counit(P) == Matrix.from_ints(QQ, [[1]])
    doc = load_fixture("z2_regular")
    P = natvee(doc.category, doc.functor, doc.functor)
    eps = counit(P)
    # ε([e_i⊗φ_j]) = δ_ij on ambient representatives
    amb = eps @ P.proj
    diag = Matrix.zeros(QQ, 1, 4)
    diag.data[0][0] = QQ.one()
    diag.data[0][3] = QQ.one()
    assert amb == diag


def test_counit_laws_all_fixtures():
    for name in ["trivial", "z2_character", "z2_regular"]:
        doc = load_fixture(name)
        P = natvee(doc.category, doc.functor, doc.functor)
        delta = cocomposition(P, P, P)
        eps = counit(P)
        ident = Matrix.identity(QQ, P.quotient_dim)
        assert kron(eps, ident) @ delta == ident
        assert kron(ident, eps) @ delta == ident


def test_cocomposition_refuses_an_oversized_delta_before_building_its_rows():
    # K^40: End^∨ has dimension 1600, so Δ's ambient map is 1600² × 1600
    cat, F = bare_object(40, GF(101))
    P = natvee(cat, F, F)
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as info:
            cocomposition(P, P, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.source == "document"
    assert str(info.value).startswith("a 2560000 x 1600 matrix exceeds")
    assert peak < 1 << 20
