import io
import json
import os
import random
from fractions import Fraction
from itertools import permutations

import pytest

import tannakit
from tannakit import (GF, BialgebraData, CoalgebraData, ComoduleData,
                      Matrix, QQ, VerificationError, characters,
                      check_comodule, check_rep_correspondence,
                      comodule_morphism_space, endvee_antipode,
                      endvee_bialgebra, endvee_coalgebra, grouplikes,
                      intertwines_all, kron, lift_functor, load_document,
                      morphism_image_span, natvee, rank, rho_tilde,
                      standard_pairing, tannaka)
from tannakit.catpres import (PresentationError, validate_functor,
                              validate_tensor_data)
from tannakit.cli import load_fixture_text
from tannakit.coend import pairing_to_nat
from tannakit.hopf import convolve_functionals, enumerate_linear_maps
from tannakit.linalg import SubspaceBasis, inverse, swap_perm, uncurry
from tannakit.tannaka import rep_of_comodule

from conftest import (FIXTURES, FRT_R, SUPER_SWAP, SWAP, bare_object,
                      cyclic_document, dense_comodule_maps, graded_document,
                      group_graded_document, load_fixture, rand_matrix,
                      rand_sparse_matrix, random_z2_graded_document, run_cli,
                      schur_weyl_document)


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
    # only the sketch's own coalgebra: lift_functor's report verifies the
    # Δ and ε it builds, and no builder rebuilds what it was handed
    assert calls == {"endvee_coalgebra": 1, "endvee_bialgebra": 1}


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


@pytest.mark.parametrize("command, calls", [("characters", (2, 2)),
                                            ("reconstruct", (6, 4))])
def test_coalgebra_and_bialgebra_check_counts(monkeypatch, command, calls):
    # characters builds End^∨'s Δ and ε unverified and checks them once,
    # inside each bialgebra check (endvee_bialgebra's, then the Hopf
    # check's); reconstruct also reports each layer's checks
    counts = {CoalgebraData: 0, BialgebraData: 0}
    for cls in counts:
        def counted(self, _cls=cls, _checks=cls.checks):
            counts[_cls] += 1
            return _checks(self)
        monkeypatch.setattr(cls, "checks", counted)
    code, _, _ = run_cli([command, "--fixture", "z2_character", "--json"])
    assert code == 0
    assert (counts[CoalgebraData], counts[BialgebraData]) == calls


@pytest.mark.parametrize("p", [None, 7])
def test_endvee_unit_is_lambda_of_the_tensor_unit(p):
    # an invertible f makes F(I) a line, so f⊗f^{-∨} is the identity of
    # F(I)⊗F(I)^∨ and the unit λ_I∘(f⊗f^{-∨}) is λ_I for every f
    rng = random.Random(25 + (p or 0))
    kept = 0
    for _ in range(300):
        doc = load_document(random_z2_graded_document(rng, p))
        cat, F, T = doc.category, doc.functor, doc.tensor
        f = T.f_unit
        if f == Matrix.identity(F.field, 1):
            continue
        try:
            report = validate_functor(cat, F).extend(
                validate_tensor_data(cat, F, T))
        except PresentationError:
            continue
        if not report.passed:
            continue
        kept += 1
        P = natvee(cat, F, F)
        assert endvee_bialgebra(cat, F, T, P).u == (
            P.lam(T.unit) @ kron(f, inverse(f).transpose()))
    assert kept >= 20


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


# Documents whose lift must verify End^∨: every fixture, cyclic Z/2–Z/6,
# Schur–Weyl at k = 2 (not cocommutative) and Vec_S3 (not commutative)
LIFT_DOCUMENTS = (
    {name: json.loads(load_fixture_text(name)) for name in FIXTURES}
    | {"cyclic%d-%s" % (n, label): cyclic_document(n, p)
       for n in range(2, 7) for label, p in (("Q", None), ("F7", 7))}
    | {"schur-weyl-%s-%s" % (family, label): schur_weyl_document(2, p, r)
       for family, r in (("swap", SWAP), ("frt", FRT_R), ("super", SUPER_SWAP))
       for label, p in (("Q", None), ("F101", 101))}
    | {"vec-s3": group_graded_document(list(permutations(range(3))))})


@pytest.mark.parametrize("name", LIFT_DOCUMENTS)
def test_passing_lift_report_implies_the_coalgebra_laws(name):
    # the universal coaction laws say that Δ and ε agree with the
    # cocomposition formula and the evaluation on every block λ_C, which
    # is why lift_functor does not check End^∨'s coalgebra laws itself
    doc = load_document(LIFT_DOCUMENTS[name])
    P = natvee(doc.category, doc.functor, doc.functor)
    _, report = lift_functor(doc.category, doc.functor, P)
    assert report.passed
    assert endvee_coalgebra(P).checks().passed


def doubled(m):
    two = m.field.from_int(2)
    return Matrix(m.field, [[m.field.mul(two, x) for x in row] for row in m.data],
                  cols=m.cols)


def opposite(delta):
    q = delta.cols
    return delta.select_rows(swap_perm(q, q))


def perturbed(eps):
    field = eps.field
    row = list(eps.data[0])
    row[0] = field.add(row[0], field.one())
    return Matrix(field, [row], cols=eps.cols)


# Δ^op is no mutant on cyclic Z/4, whose End^∨ (functions on Z/4) is
# cocommutative
@pytest.mark.parametrize("name, builder, mutate, failing", [
    ("cyclic4-Q", "cocomposition", doubled, {"coaction_coassoc"}),
    ("schur-weyl-swap-Q", "cocomposition", doubled, {"coaction_coassoc"}),
    ("schur-weyl-swap-Q", "cocomposition", opposite, {"coaction_coassoc"}),
    ("cyclic4-Q", "cocomposition", opposite, set()),
    ("cyclic4-Q", "counit", perturbed, {"coaction_counit"}),
    ("schur-weyl-swap-Q", "counit", perturbed, {"coaction_counit"}),
], ids=["2delta-cyclic4", "2delta-schur-weyl", "delta-op-schur-weyl",
        "delta-op-cyclic4", "eps-cyclic4", "eps-schur-weyl"])
def test_broken_endvee_fails_the_lift_report(monkeypatch, name, builder, mutate,
                                             failing):
    build = getattr(tannaka, builder)
    monkeypatch.setattr(tannaka, builder, lambda *args: mutate(build(*args)))
    code, out, err = run_cli(["lift", "--json"], json.dumps(LIFT_DOCUMENTS[name]))
    assert (code, err) == (1 if failing else 0, "")
    assert {c["name"].split(":")[0] for c in json.loads(out)["checks"]
            if not c["passed"]} == failing


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


# Documents whose rho-tilde must verify End^∨: the comodule fixtures,
# cyclic Z/2–Z/6 and the trivial coaction on Z/4, where ρ̃ has rank 1
RHO_TILDE_DOCUMENTS = (
    {name: json.loads(load_fixture_text(name))
     for name in ("comatrix2", "z2_function", "z2_function_f2")}
    | {"cyclic%d-%s" % (n, label): cyclic_document(n, p)
       for n in range(2, 7) for label, p in (("Q", None), ("F7", 7))}
    | {"cyclic4-trivial": cyclic_document(4, trivial=True)})


@pytest.mark.parametrize("name", RHO_TILDE_DOCUMENTS)
def test_passing_rho_tilde_report_implies_the_coalgebra_laws(name):
    # an injective ρ̃ that respects Δ and ε pulls B's coalgebra laws back
    # to End^∨; otherwise rho_tilde checks End^∨'s laws itself
    doc = load_document(RHO_TILDE_DOCUMENTS[name])
    B = CoalgebraData(doc.coalgebra["dim"], doc.coalgebra["delta"],
                      doc.coalgebra["eps"])
    P = natvee(doc.category, doc.functor, doc.functor)
    _, report = rho_tilde(B, doc.category, doc.functor, comodules_from(doc, B), P)
    assert report.passed
    assert endvee_coalgebra(P).checks().passed


# on cyclic Z/4 ρ̃ is injective, so a broken Δ or ε fails the morphism
# check that compares with it; on z2_function ρ̃ is not, and End^∨'s own
# counit laws fail too, reported after ρ̃'s checks as ``law:endvee``
ENDVEE_LAWS = ["coassociativity:endvee", "counit_left:endvee",
               "counit_right:endvee"]


@pytest.mark.parametrize("name, builder, mutate, failing, tail", [
    ("cyclic4-Q", "cocomposition", doubled, {"rho_tilde_respects_delta"}, []),
    ("cyclic4-Q", "counit", perturbed, {"rho_tilde_respects_eps"}, []),
    ("z2_function", "cocomposition", doubled,
     {"rho_tilde_respects_delta", "counit_left:endvee", "counit_right:endvee"},
     ENDVEE_LAWS),
    ("z2_function", "counit", perturbed,
     {"rho_tilde_respects_eps", "counit_left:endvee", "counit_right:endvee"},
     ENDVEE_LAWS),
], ids=["2delta-cyclic4", "eps-cyclic4", "2delta-z2-function",
        "eps-z2-function"])
def test_broken_endvee_fails_rho_tilde(monkeypatch, name, builder, mutate,
                                       failing, tail):
    build = getattr(tannaka, builder)
    monkeypatch.setattr(tannaka, builder, lambda *args: mutate(build(*args)))
    code, out, err = run_cli(["rho-tilde", "--json"],
                             json.dumps(RHO_TILDE_DOCUMENTS[name]))
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    names = [c["name"] for c in checks]
    assert len(names) == len(set(names))
    assert {c["name"] for c in checks if not c["passed"]} == failing
    # B's own laws pass, and ρ̃'s three checks come before End^∨'s laws
    passed = {c["name"] for c in checks if c["passed"]}
    assert {"coassociativity", "counit_left", "counit_right"} <= passed
    assert names[-3 - len(tail):] == ["rho_tilde_well_defined",
                                      "rho_tilde_respects_delta",
                                      "rho_tilde_respects_eps"] + tail


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


def test_grouplike_table_of_vec_s3_is_its_cayley_table():
    # End^∨ of Vec_S3 is the group algebra Q[S_3], which is not
    # commutative, so the table tells m from its opposite: entry (i, j) is
    # the index of g_i∘g_j, and the grouplikes are the objects in order
    perms = list(permutations(range(3)))
    code, out, _ = run_cli(["reconstruct", "--json"],
                           json.dumps(group_graded_document(perms)))
    assert code == 0
    payload = json.loads(out)
    index = {g: i for i, g in enumerate(perms)}
    assert payload["grouplikes"] == [[str(int(i == j)) for j in range(6)]
                                     for i in range(6)]
    assert payload["grouplike_table"] == [[index[tuple(g[k] for k in h)]
                                           for h in perms] for g in perms]
    assert len(payload["characters"]) == 2


def test_monoid_table_gives_the_monoid_bialgebra():
    # M = {e, x} with x·x = x: End^∨ is the bialgebra Q[M], which has no
    # antipode since x is idempotent and not e, and its characters are the
    # monoid maps M → (Q, ·), χ(x) ∈ {0, 1}
    table = {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("x", "x"): "x"}
    doc = json.dumps(graded_document(["e", "x"], table, "e"))
    runs = {}
    for command in ("validate", "reconstruct", "characters"):
        code, out, err = run_cli([command, "--json"], doc)
        assert (code, err) == (0, "")
        runs[command] = json.loads(out)
        assert all(c["passed"] for c in runs[command]["checks"])
    assert len(runs["validate"]["checks"]) == 14
    rec = runs["reconstruct"]
    assert len(rec["checks"]) == 27
    assert (rec["quotient_dim"], rec["relation_rank"]) == (2, 0)
    assert rec["structure"]["m"] == [["1", "0", "0", "0"], ["0", "1", "1", "1"]]
    assert rec["structure"]["u"] == [["1"], ["0"]]
    assert "antipode" not in rec["structure"] and "grouplikes" not in rec
    assert runs["characters"]["characters"] == [["1", "0"], ["1", "1"]]


def closure(generators):
    """The group of permutations that ``generators`` generate, sorted."""
    n = len(generators[0])
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = tuple(g[i] for i in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return sorted(group)


def quaternion_group():
    """Q_8 as the permutations of {±1, ±i, ±j, ±k} by left multiplication."""
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    units = [tuple(s * int(k == axis) for k in range(4))
             for axis in range(4) for s in (1, -1)]
    return closure([tuple(units.index(mul(u, x)) for x in units)
                    for u in units])


# D_4 acting on the corners of a square: the rotation and a reflection
NONABELIAN_GROUPS = {"D4": closure([(1, 2, 3, 0), (0, 3, 2, 1)]),
                     "Q8": quaternion_group()}


@pytest.mark.parametrize("group", NONABELIAN_GROUPS)
def test_grouplike_table_of_vec_d4_and_q8_is_the_cayley_table(group):
    # End^∨ of Vec_G is the group algebra Q[G]: its grouplikes are the
    # objects in order, g_i·g_j = m(g_i⊗g_j) is the object g_i∘g_j, so the
    # table tells m from its opposite; the characters are those of
    # G/[G, G] = Z/2 × Z/2
    perms = NONABELIAN_GROUPS[group]
    n = len(perms)
    doc = load_document(group_graded_document(perms))
    P = natvee(doc.category, doc.functor, doc.functor)
    big = endvee_bialgebra(doc.category, doc.functor, doc.tensor, P)
    gls = [Matrix.column(QQ, v) for v in grouplikes(big.coalgebra)]
    assert gls == [Matrix.identity(QQ, n).select_cols([i]) for i in range(n)]
    index = {g: i for i, g in enumerate(perms)}
    cayley = [[index[tuple(g[k] for k in h)] for h in perms] for g in perms]
    assert n == 8 and cayley != [list(col) for col in zip(*cayley)]
    assert [[gls.index(big.m @ kron(a, b)) for b in gls] for a in gls] == cayley
    assert len(characters(big)) == 4
