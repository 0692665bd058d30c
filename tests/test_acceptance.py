"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every assertion is an exact matrix identity (zero tolerance); each test
prints its own pass line so `pytest tests/test_acceptance.py -v -s` reads
as a criterion checklist.  Fixture set: trivial, z2_character, z2_regular,
comatrix2, z2_function, z2_function_f2, z2_graded.
"""

import random

from tannakit import (AlgebraData, BialgebraData, CoalgebraData, ComoduleData,
                      FiberFunctor, GF, Generator, Matrix, PresentedCategory,
                      QQ, characters, check_comodule, check_comodule_morphism,
                      check_rep_correspondence, check_triangles,
                      cocomposition, coherence_equal, comodule_morphism_space,
                      convolution_group, counit, dual_map, endvee_antipode,
                      endvee_bialgebra, endvee_coalgebra, eval_in_vec,
                      grouplike_group, grouplikes, intertwines_all, kron,
                      lift_functor, morphism_image_span, nat_space, natvee,
                      pairing_bijection_report, rank, rho_tilde, rref,
                      standard_pairing)
from tannakit.hopf import enumerate_linear_maps

from conftest import (FIXTURES, kills_relations, load_fixture, rand_matrix,
                      random_expr_pair, relation_vectors)


def _endvee(name):
    doc = load_fixture(name)
    return doc, natvee(doc.category, doc.functor, doc.functor)


def _coalgebra_from(doc):
    return CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                         doc.coalgebra["eps"])


def _comodules_from(doc, B):
    return {obj: ComoduleData(B.dim, doc.functor.dim(obj), rho)
            for obj, rho in doc.comodules.items()}


def test_criterion_1_coherence():
    """500 random expression pairs, words of length ≤ 6: the permutation
    criterion agrees with exact matrix evaluation at three random
    dimension assignments with dims in {2, 3}.  Evaluation runs over F_2,
    where the 0/1 permutation matrices compare position by position, so
    equality is the same as over any field."""
    f2 = GF(2)
    rng = random.Random(13)
    disagreements = 0
    for _ in range(500):
        e1, e2 = random_expr_pair(rng)
        expected = coherence_equal(e1, e2)
        for _ in range(3):
            dims = {a: rng.choice([2, 3]) for a in ("a", "b")}
            got = eval_in_vec(e1, dims, field=f2) == eval_in_vec(e2, dims, field=f2)
            if got != expected:
                disagreements += 1
    assert disagreements == 0
    print("criterion 1 (coherence, 500 pairs x 3 dims): PASS")


def test_criterion_2_duality():
    for n in range(6):
        assert check_triangles(standard_pairing(n))
    rng = random.Random(17)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        f = rand_matrix(rng, QQ, rows, cols)
        assert dual_map(f, standard_pairing(rows), standard_pairing(cols)) \
            == f.transpose()
    for _ in range(25):
        a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        f = rand_matrix(rng, QQ, b, a)
        g = rand_matrix(rng, QQ, c, b)
        pa, pb, pc = standard_pairing(a), standard_pairing(b), standard_pairing(c)
        assert dual_map(g @ f, pc, pa) == dual_map(f, pb, pa) @ dual_map(g, pc, pb)
    print("criterion 2 (duality: triangles n<=5, 100 transposes, functoriality): PASS")


def test_criterion_3_predual_dimension_identity():
    for name in FIXTURES:
        doc, P = _endvee(name)
        N = nat_space(doc.category, doc.functor, doc.functor)
        assert P.quotient_dim == N.dim
        assert pairing_bijection_report(P, N).passed
    rng = random.Random(19)
    for _ in range(50):
        n_obj = rng.randint(1, 3)
        objs = ["o%d" % i for i in range(n_obj)]
        gens = [Generator("f%d" % i, rng.choice(objs), rng.choice(objs))
                for i in range(rng.randint(0, 4))]
        cat = PresentedCategory(objs, gens)
        df = {o: rng.randint(1, 3) for o in objs}
        dg = {o: rng.randint(1, 3) for o in objs}
        F = FiberFunctor(QQ, df, {g.name: rand_matrix(rng, QQ, df[g.dst], df[g.src])
                                  for g in gens})
        G = FiberFunctor(QQ, dg, {g.name: rand_matrix(rng, QQ, dg[g.dst], dg[g.src])
                                  for g in gens})
        P = natvee(cat, F, G)
        N = nat_space(cat, F, G)
        assert P.quotient_dim == N.dim
        assert pairing_bijection_report(P, N).passed
    print("criterion 3 (predual dimension identity + pairing bijection): PASS")


def test_criterion_4_coalgebra_structure():
    for name in FIXTURES:
        doc, P = _endvee(name)
        coalg = endvee_coalgebra(P)
        assert coalg.checks().passed
    # the z2 regular-representation fixture has dim End^∨(F) = 2, with the
    # relation rank certified by an independent echelon computation
    doc, P = _endvee("z2_regular")
    ambient, vectors = relation_vectors(doc.category, doc.functor, doc.functor)
    oracle_rank = rref(Matrix(QQ, vectors, cols=ambient))[2]
    assert ambient == 4 and oracle_rank == 2
    assert P.quotient_dim == 2
    print("criterion 4 (End coalgebra axioms on all fixtures, dim oracle): PASS")


def test_criterion_5_lifting():
    for name in FIXTURES:
        doc, P = _endvee(name)
        coalg = endvee_coalgebra(P)
        coactions, report = lift_functor(doc.category, doc.functor, P)
        assert report.passed
        for com in coactions.values():
            assert check_comodule(com, coalg)
        for g in doc.category.generators:
            assert check_comodule_morphism(doc.functor.gen_matrix(g.name),
                                           coactions[g.src], coactions[g.dst],
                                           coalg)
    print("criterion 5 (comodule laws and morphism squares, all fixtures): PASS")


def test_criterion_6_bialgebra_hopf():
    doc, P = _endvee("z2_character")
    coalg = endvee_coalgebra(P)
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P,
                           coalgebra=coalg)
    assert big.checks().passed          # includes all four Def-style diagrams
    hopf = endvee_antipode(doc.category, doc.functor, doc.tensor, doc.duality,
                           P, bialgebra=big)
    assert hopf.checks().passed         # both antipode identities
    gls = grouplikes(coalg)
    assert len(gls) == 2
    gtable, greport = grouplike_group(hopf, gls)
    assert greport.passed
    assert sorted(tuple(r) for r in gtable) == [(0, 1), (1, 0)]   # ≅ Z/2
    chars = characters(big)
    assert len(chars) == 2
    ctable, creport = convolution_group(chars, hopf)
    assert creport.passed
    assert sorted(tuple(r) for r in ctable) == [(0, 1), (1, 0)]   # ≅ Z/2
    print("criterion 6 (bialgebra + Hopf + grouplike/character groups Z/2): PASS")


def test_criterion_7_reconstruction():
    # every comodule fixture: rho_tilde is an exact coalgebra morphism
    for name in ["comatrix2", "z2_function", "z2_function_f2"]:
        doc = load_fixture(name)
        B = _coalgebra_from(doc)
        rt, report = rho_tilde(B, doc.category, doc.functor,
                               _comodules_from(doc, B))
        assert report.passed
    # dim-4 comatrix coalgebra: bijective, hence a coalgebra isomorphism
    doc = load_fixture("comatrix2")
    B = _coalgebra_from(doc)
    rt, report = rho_tilde(B, doc.category, doc.functor, _comodules_from(doc, B))
    assert report.passed and rank(rt) == 4 == B.dim == rt.cols
    # function-coalgebra fixture with the regular comodule: surjective
    doc = load_fixture("z2_function")
    B = _coalgebra_from(doc)
    rt, report = rho_tilde(B, doc.category, doc.functor, _comodules_from(doc, B))
    assert report.passed and rank(rt) == B.dim
    print("criterion 7 (rho_tilde coalgebra morphism; bijective/surjective): PASS")


def test_criterion_8_rep_comod():
    # characters exist on the character fixture (lifted) and the F2 fixture
    doc, P = _endvee("z2_character")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    coactions, _ = lift_functor(doc.category, doc.functor, P)
    chars = characters(big)
    assert check_rep_correspondence(coactions, chars, big).passed
    doc = load_fixture("z2_function_f2")
    B = _coalgebra_from(doc)
    big = BialgebraData(B, AlgebraData(B.dim, doc.coalgebra["m"],
                                       doc.coalgebra["u"]))
    coms = _comodules_from(doc, B)
    chars = characters(big)
    assert check_rep_correspondence(coms, chars, big).passed
    # exhaustive iff over F2: comodule morphism ⟺ intertwines every θ
    f2 = doc.field
    for src in coms:
        for dst in coms:
            m1, m2 = coms[src], coms[dst]
            for f in enumerate_linear_maps(f2, m2.space_dim, m1.space_dim):
                assert check_comodule_morphism(f, m1, m2, B) \
                    == intertwines_all(f, m1, m2, chars)
    print("criterion 8 (theta correspondence + exhaustive iff over F2): PASS")


def test_criterion_9_fullness_witness():
    doc, P = _endvee("z2_regular")
    coactions, _ = lift_functor(doc.category, doc.functor, P)
    com = coactions["star"]
    comodule_maps = comodule_morphism_space(com, com)
    image_span = morphism_image_span(doc.category, doc.functor, "star", "star")
    assert len(comodule_maps) == len(image_span) == 2
    # containment: every functor image of a path is a comodule morphism,
    # so equal dimensions force equality of the two solution spaces
    coalg = endvee_coalgebra(P)
    for m in image_span:
        assert check_comodule_morphism(m, com, com, coalg)
    print("criterion 9 (fullness witness: solution space dims agree): PASS")


def test_criterion_10_well_definedness_regression():
    for name in FIXTURES:
        doc, P = _endvee(name)
        field = P.field
        # Δ candidate on the ambient: blocks (λ_C⊗λ_C)∘(id⊗coeval⊗id)
        blocks = {}
        for obj, fd, gd in P.object_index:
            coeval = Matrix.zeros(field, gd * gd, 1)
            for i in range(gd):
                coeval.data[i * gd + i][0] = field.one()
            insert = kron(kron(Matrix.identity(field, fd), coeval),
                          Matrix.identity(field, gd))
            blocks[obj] = kron(P.lam(obj), P.lam(obj)) @ insert
        delta_amb = P.assemble_on_blocks(blocks, P.quotient_dim ** 2)
        assert kills_relations(P, delta_amb)
        delta = cocomposition(P, P, P)
        assert delta @ P.proj == delta_amb
        # ε candidate on the ambient: the diagonal evaluation rows
        blocks = {}
        for obj, fd, gd in P.object_index:
            ev = Matrix.zeros(field, 1, fd * gd)
            for i in range(min(fd, gd)):
                ev.data[0][i * gd + i] = field.one()
            blocks[obj] = ev
        eps_amb = P.assemble_on_blocks(blocks, 1)
        assert kills_relations(P, eps_amb)
        assert counit(P) @ P.proj == eps_amb
        # m, u, a descend on the Hopf fixtures (verified at construction,
        # re-checked here through the pushed maps)
        if doc.tensor is not None:
            big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
            if doc.duality is not None:
                hopf = endvee_antipode(doc.category, doc.functor, doc.tensor,
                                       doc.duality, P, bialgebra=big)
                assert hopf.checks().passed
        # rho_tilde candidate kills the relation span on comodule fixtures
        if doc.coalgebra is not None and doc.comodules is not None:
            B = _coalgebra_from(doc)
            coms = _comodules_from(doc, B)
            id_b = Matrix.identity(field, B.dim)
            blocks = {}
            for obj, d, _ in P.object_index:
                ev = Matrix.zeros(field, 1, d * d)
                for i in range(d):
                    ev.data[0][i * d + i] = field.one()
                blocks[obj] = kron(id_b, ev) @ kron(coms[obj].rho,
                                                    Matrix.identity(field, d))
            rt_amb = P.assemble_on_blocks(blocks, B.dim)
            assert kills_relations(P, rt_amb)
            rt, report = rho_tilde(B, doc.category, doc.functor, coms, P=P)
            assert report.passed and rt @ P.proj == rt_amb
    print("criterion 10 (quotient-defined maps kill the relation span): PASS")
