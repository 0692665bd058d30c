import io
import os
from fractions import Fraction

import pytest

import tannakit
from tannakit import (GF, CoalgebraData, ComoduleData, Matrix, QQ,
                      VerificationError, characters, check_comodule,
                      check_rep_correspondence, comodule_morphism_space,
                      endvee_antipode, endvee_bialgebra, endvee_coalgebra,
                      intertwines_all, kron, lift_functor, load_document,
                      morphism_image_span, natvee, rank, rho_tilde,
                      standard_pairing, tannaka)
from tannakit.catpres import PresentationError
from tannakit.cli import load_fixture_text
from tannakit.coend import pairing_to_nat
from tannakit.hopf import convolve_functionals, enumerate_linear_maps
from tannakit.linalg import SubspaceBasis, uncurry
from tannakit.tannaka import rep_of_comodule

from conftest import (FIXTURES, bare_object, cyclic_document,
                      dense_comodule_maps, load_fixture, rand_matrix,
                      rand_sparse_matrix)


def endvee(name):
    doc = load_fixture(name)
    P = natvee(doc.category, doc.functor, doc.functor)
    return doc, P


def test_readme_library_sketch_runs_on_a_shipped_fixture(monkeypatch):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        sketch = fh.read().split("```python\n", 1)[1].split("```", 1)[0]

    def open_fixture(path):
        assert path == "my_category.json"
        return io.StringIO(load_fixture_text("z2_character"))

    # each builder is counted under both names it is called by: the
    # package namespace the sketch imports and the module other builders use
    calls = {}
    for name in ("endvee_coalgebra", "endvee_bialgebra"):
        def counted(*args, _build=getattr(tannaka, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(tannaka, name, counted)
        monkeypatch.setattr(tannakit, name, counted)

    names = {"open": open_fixture}
    exec(sketch, names)
    assert names["P"].quotient_dim == 2
    assert names["hopf"].dim == 2
    assert names["report"].passed
    # the sketch's own coalgebra and the one lift_functor builds; no
    # builder rebuilds what it was handed
    assert calls == {"endvee_coalgebra": 2, "endvee_bialgebra": 1}


def test_endvee_coalgebra_fixtures():
    for name in ["trivial", "z2_character", "z2_regular"]:
        doc, P = endvee(name)
        coalg = endvee_coalgebra(P)
        assert coalg.checks().passed


def test_endvee_coalgebra_one_dim():
    doc, P = endvee("trivial")
    coalg = endvee_coalgebra(P)
    assert coalg.delta == Matrix.from_ints(QQ, [[1]])
    assert coalg.eps == Matrix.from_ints(QQ, [[1]])


def test_endvee_bialgebra_character_category():
    doc, P = endvee("z2_character")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    assert big.checks().passed
    # m is the multiplication of the character group: x_a·x_b = x_{ab}
    x1 = Matrix.from_ints(QQ, [[1], [0]])
    xs = Matrix.from_ints(QQ, [[0], [1]])
    assert big.m @ kron(x1, x1) == x1
    assert big.m @ kron(x1, xs) == xs
    assert big.m @ kron(xs, x1) == xs
    assert big.m @ kron(xs, xs) == x1
    assert big.u == x1


def test_endvee_bialgebra_trivial():
    doc, P = endvee("trivial")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    assert big.m == Matrix.from_ints(QQ, [[1]])
    assert big.u == Matrix.from_ints(QQ, [[1]])


def test_endvee_antipode_character_category():
    doc, P = endvee("z2_character")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    hopf = endvee_antipode(doc.category, doc.functor, doc.tensor,
                           doc.duality, P, bialgebra=big)
    assert hopf.checks().passed
    # each grouplike is its own inverse
    assert hopf.antipode == Matrix.identity(QQ, 2)


def test_endvee_antipode_trivial():
    doc, P = endvee("trivial")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    hopf = endvee_antipode(doc.category, doc.functor, doc.tensor,
                           doc.duality, P, bialgebra=big)
    assert hopf.antipode == Matrix.identity(QQ, 1)


def test_endvee_bialgebra_singular_unit_raises():
    doc, P = endvee("z2_character")
    doc.tensor.f_unit = Matrix.from_ints(QQ, [[0]])
    with pytest.raises(VerificationError):
        endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)


def test_endvee_antipode_singular_unit_raises():
    doc, P = endvee("z2_character")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    doc.tensor.f_unit = Matrix.from_ints(QQ, [[0]])
    with pytest.raises(PresentationError):
        endvee_antipode(doc.category, doc.functor, doc.tensor, doc.duality,
                        P, bialgebra=big)


def test_lift_trivial():
    doc, P = endvee("trivial")
    coactions, report = lift_functor(doc.category, doc.functor, P)
    assert report.passed
    assert coactions["I"].rho == Matrix.from_ints(QQ, [[1]])


def test_lift_z2_regular():
    doc, P = endvee("z2_regular")
    coactions, report = lift_functor(doc.category, doc.functor, P)
    assert report.passed
    coalg = endvee_coalgebra(P)
    assert check_comodule(coactions["star"], coalg)


def test_lift_character_category():
    doc, P = endvee("z2_character")
    coactions, report = lift_functor(doc.category, doc.functor, P)
    assert report.passed
    # ρ_σ(s) = x_σ⊗s: the coaction of the sign object hits the second
    # coordinate of End^∨
    assert coactions["sigma"].rho == Matrix.from_ints(QQ, [[0], [1]])
    assert coactions["one"].rho == Matrix.from_ints(QQ, [[1], [0]])


def comodules_from(doc, B):
    return {obj: ComoduleData(B.dim, doc.functor.dim(obj), rho)
            for obj, rho in doc.comodules.items()}


def test_rho_tilde_comatrix_bijective():
    doc = load_fixture("comatrix2")
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    rt, report = rho_tilde(B, doc.category, doc.functor, comodules_from(doc, B))
    assert report.passed
    assert rt.rows == 4 and rt.cols == 4
    assert rank(rt) == 4
    # basis bijection: each λ(e_j⊗φ_i) goes to a distinct basis tensor
    cols = [tuple(sorted(col.items())) for col in rt.sparse_cols()]
    assert len(set(cols)) == 4


def test_rho_tilde_trivial_coalgebra():
    # B = K with its one-dimensional comodule: ρ̃ is the identity on K
    from tannakit import FiberFunctor, PresentedCategory
    cat = PresentedCategory(["pt"], [])
    F = FiberFunctor(QQ, {"pt": 1}, {})
    B = CoalgebraData(1, Matrix.from_ints(QQ, [[1]]), Matrix.from_ints(QQ, [[1]]))
    coactions = {"pt": ComoduleData(1, 1, Matrix.from_ints(QQ, [[1]]))}
    rt, report = rho_tilde(B, cat, F, coactions)
    assert report.passed
    assert rt == Matrix.from_ints(QQ, [[1]])


def test_rho_tilde_surjective_function_coalgebra():
    doc = load_fixture("z2_function")
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    rt, report = rho_tilde(B, doc.category, doc.functor, comodules_from(doc, B))
    assert report.passed
    assert rank(rt) == B.dim            # surjective
    assert rt.cols == 4 and rank(rt) < 4  # not injective


def test_rho_tilde_rejects_bad_comodule():
    doc = load_fixture("z2_function")
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    bad = {"B": ComoduleData(2, 2, Matrix.zeros(QQ, 4, 2))}
    with pytest.raises(VerificationError):
        rho_tilde(B, doc.category, doc.functor, bad)


def comatrix_formula(n, field):
    """Δ(e_i⊗e_j^∨) = Σ_k (e_i⊗e_k^∨)⊗(e_k⊗e_j^∨) and ε(e_i⊗e_j^∨) = δ_ij,
    written out entry by entry: the comatrix coalgebra of K^n."""
    dim = n * n
    one = field.one()
    delta = Matrix.zeros(field, dim * dim, dim)
    eps = Matrix.zeros(field, 1, dim)
    for i in range(n):
        eps.data[0][i * n + i] = one
        for j in range(n):
            for k in range(n):
                delta.data[(i * n + k) * dim + (k * n + j)][i * n + j] = one
    return delta, eps


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_bare_object_gives_comatrix_coalgebra_and_coefficient_map(field):
    # on one object with no generators End^∨ is the comatrix coalgebra of
    # F(V), and ρ̃ is the coefficient map (id_B⊗eval)∘(ρ⊗id) of the coaction
    for n in range(5):
        cat, F = bare_object(n, field)
        C = endvee_coalgebra(natvee(cat, F, F))
        assert (C.delta, C.eps) == comatrix_formula(n, field)
    doc = load_fixture("z2_function")
    delta, eps = (Matrix.from_strings(field, doc.coalgebra[k].to_strings())
                  for k in ("delta", "eps"))
    function_z2 = CoalgebraData(2, delta, eps)
    one = Matrix.identity(field, 1)
    for B in (function_z2, CoalgebraData(1, one, one)):
        rho = B.delta                    # B as a comodule over itself
        cat, F = bare_object(B.dim, field)
        rt, report = rho_tilde(B, cat, F, {"V": ComoduleData(B.dim, B.dim, rho)})
        assert [(c.name, c.passed) for c in report.checks] == [
            ("rho_tilde_well_defined", True), ("rho_tilde_respects_delta", True),
            ("rho_tilde_respects_eps", True)]
        ident = Matrix.identity(field, B.dim)
        assert rt == (kron(ident, standard_pairing(B.dim, field).eval)
                      @ kron(rho, ident))


def test_alpha_tilde_comodule_over_itself():
    # α̃ of B as a comodule over itself is ρ̃ over one bare object
    doc = load_fixture("z2_function")
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    cat, F = bare_object(B.dim)
    com = ComoduleData(B.dim, B.dim, B.delta)
    alpha, report = rho_tilde(B, cat, F, {"V": com})
    assert report.passed


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_coefficient_map_matches_dense_product(rng, field):
    for bdim, d in [(2, 2), (3, 2), (2, 4), (4, 3)]:
        for rho in (rand_matrix(rng, field, bdim * d, d, denom=True),
                    rand_sparse_matrix(rng, field, bdim * d, d, 0.3)):
            dense = (kron(Matrix.identity(field, bdim),
                          standard_pairing(d, field).eval)
                     @ kron(rho, Matrix.identity(field, d)))
            assert uncurry(rho, bdim, d) == dense


def test_convolution_of_functionals_matches_composition():
    # pairing_to_nat turns convolution into composition, in the
    # contravariant order θ(ξ1 ∗ ξ2) = θ(ξ2)∘θ(ξ1)
    doc, P = endvee("z2_regular")
    coalg = endvee_coalgebra(P)
    import random
    rng = random.Random(7)
    for _ in range(10):
        xi1 = Matrix(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(2)]])
        xi2 = Matrix(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(2)]])
        conv = convolve_functionals(xi1, xi2, coalg)
        lhs = pairing_to_nat(P, conv)["star"]
        rhs = pairing_to_nat(P, xi2)["star"] @ pairing_to_nat(P, xi1)["star"]
        assert lhs == rhs


def test_rep_of_comodule_counit_is_identity():
    doc, P = endvee("z2_character")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    coactions, _ = lift_functor(doc.category, doc.functor, P)
    for obj, com in coactions.items():
        assert rep_of_comodule(com, big.eps) == Matrix.identity(QQ, 1)


def test_rep_of_comodule_sign_action():
    doc, P = endvee("z2_character")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    coactions, _ = lift_functor(doc.category, doc.functor, P)
    chi = Matrix(QQ, [[Fraction(1), Fraction(-1)]])
    assert rep_of_comodule(coactions["sigma"], chi) == Matrix.from_ints(QQ, [[-1]])
    assert rep_of_comodule(coactions["one"], chi) == Matrix.from_ints(QQ, [[1]])


def test_rep_correspondence_all_character_fixtures():
    doc, P = endvee("z2_character")
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    coactions, _ = lift_functor(doc.category, doc.functor, P)
    chars = characters(big)
    assert len(chars) == 2
    assert check_rep_correspondence(coactions, chars, big).passed


def test_rep_correspondence_f2_fixture():
    doc = load_fixture("z2_function_f2")
    from tannakit import AlgebraData, BialgebraData
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    big = BialgebraData(B, AlgebraData(B.dim, doc.coalgebra["m"],
                                       doc.coalgebra["u"]))
    assert big.checks().passed
    coms = comodules_from(doc, B)
    chars = characters(big)
    assert len(chars) == 2
    assert check_rep_correspondence(coms, chars, big).passed


def test_theta_matrices_from_enumerated_characters():
    # each enumerated character acts on the regular comodule by the
    # expected matrix: the point evaluation at the identity acts as the
    # identity, the other as the swap
    doc = load_fixture("z2_function_f2")
    f2 = doc.field
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    from tannakit import AlgebraData, BialgebraData
    big = BialgebraData(B, AlgebraData(B.dim, doc.coalgebra["m"],
                                       doc.coalgebra["u"]))
    reg = comodules_from(doc, B)["reg"]
    ident = Matrix.identity(f2, 2)
    swap = Matrix.from_ints(f2, [[0, 1], [1, 0]])
    actions = sorted(
        (tuple(chi.data[0]), rep_of_comodule(reg, chi))
        for chi in characters(big))
    assert actions[0][1] == swap    # evaluation at the non-identity point
    assert actions[1][1] == ident   # evaluation at the identity point


def test_morphism_iff_intertwiner_exhaustive_f2():
    doc = load_fixture("z2_function_f2")
    from tannakit import AlgebraData, BialgebraData
    f2 = doc.field
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    big = BialgebraData(B, AlgebraData(B.dim, doc.coalgebra["m"],
                                       doc.coalgebra["u"]))
    coms = comodules_from(doc, B)
    chars = characters(big)
    from tannakit import check_comodule_morphism
    for src in coms:
        for dst in coms:
            m1, m2 = coms[src], coms[dst]
            for f in enumerate_linear_maps(f2, m2.space_dim, m1.space_dim):
                is_morph = check_comodule_morphism(f, m1, m2, B)
                inter = intertwines_all(f, m1, m2, chars)
                assert is_morph == inter


def test_comodule_morphism_space_z2_regular():
    doc, P = endvee("z2_regular")
    coactions, _ = lift_functor(doc.category, doc.functor, P)
    com = coactions["star"]
    basis = comodule_morphism_space(com, com)
    assert len(basis) == 2
    coalg = endvee_coalgebra(P)
    for f in basis:
        assert check_comodule(com, coalg)
        assert com.rho @ f == kron(Matrix.identity(QQ, coalg.dim), f) @ com.rho


def test_morphism_image_span_z2_regular():
    doc = load_fixture("z2_regular")
    span = morphism_image_span(doc.category, doc.functor, "star", "star")
    assert len(span) == 2
    # the span is {a·id + b·swap}
    flat = SubspaceBasis(QQ, 4, [dict(enumerate(m.entries())) for m in span])
    assert flat == SubspaceBasis(QQ, 4, [{0: QQ.one(), 3: QQ.one()},
                                         {1: QQ.one(), 2: QQ.one()}])


def test_fullness_witness_dimensions_agree():
    doc, P = endvee("z2_regular")
    coactions, _ = lift_functor(doc.category, doc.functor, P)
    mods = comodule_morphism_space(coactions["star"], coactions["star"])
    span = morphism_image_span(doc.category, doc.functor, "star", "star")
    assert len(mods) == len(span) == 2


def comodule_families(doc):
    """The lifted coactions of a document and, when it declares them, its
    comodules over the declared coalgebra."""
    P = natvee(doc.category, doc.functor, doc.functor)
    families = [lift_functor(doc.category, doc.functor, P)[0]]
    if doc.comodules is not None:
        B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                          doc.coalgebra["eps"])
        families.append(comodules_from(doc, B))
    return families


def assert_comodule_maps_match_dense_system(doc):
    for coms in comodule_families(doc):
        for com1 in coms.values():
            for com2 in coms.values():
                basis = comodule_morphism_space(com1, com2)
                assert basis == dense_comodule_maps(com1, com2)
                # the identity of a nonzero comodule is a comodule map
                assert basis or com1 is not com2 or com1.space_dim == 0


@pytest.mark.parametrize("name", FIXTURES)
def test_comodule_morphism_space_matches_dense_system_on_fixtures(name):
    assert_comodule_maps_match_dense_system(load_fixture(name))


@pytest.mark.parametrize("p", [None, 101], ids=["Q", "F101"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_comodule_morphism_space_matches_dense_system_on_cyclic(n, p):
    assert_comodule_maps_match_dense_system(load_document(cyclic_document(n, p)))


def test_rho_tilde_failure_carries_comodule_report():
    doc = load_fixture("z2_function")
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    bad = {"B": ComoduleData(2, 2, Matrix.zeros(QQ, 4, 2))}
    with pytest.raises(VerificationError) as err:
        rho_tilde(B, doc.category, doc.functor, bad)
    assert [(c.name, c.passed) for c in err.value.report.checks] == [
        ("coaction_coassoc:B", True), ("coaction_counit:B", False)]
