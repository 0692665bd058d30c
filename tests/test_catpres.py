import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from tannakit import (FiberFunctor, Generator, Matrix, PresentedCategory, QQ,
                      check_triangles, kron, load_document)
from tannakit.catpres import (PresentationError, duality_pairing_vec, path_eval,
                              validate_duality_data, validate_functor,
                              validate_tensor_data)
from tannakit.linalg import inverse
from tannakit.moncat import DualPairing
from tannakit.report import check_equal

from conftest import (dense_swap, group_graded_document, load_fixture,
                      rand_matrix, random_z2_graded_document, scalar_text)


def z2_category():
    return PresentedCategory(
        ["star"], [Generator("g", "star", "star")],
        relations=[(None, None)].__class__([]))


def z2_with_relation():
    cat = PresentedCategory(["star"], [Generator("g", "star", "star")])
    cat.relations = [(cat.path(["g", "g"]), cat.path([], at="star"))]
    return cat


def swap_functor():
    return FiberFunctor(QQ, {"star": 2},
                        {"g": Matrix.from_ints(QQ, [[0, 1], [1, 0]])})


def test_path_eval_empty_and_single():
    cat = z2_with_relation()
    F = swap_functor()
    assert path_eval(cat, F, cat.path([], at="star")) == Matrix.identity(QQ, 2)
    assert path_eval(cat, F, cat.path(["g"])) == F.gen_matrix("g")


def test_path_eval_composition_order():
    cat = PresentedCategory(["a", "b", "c"],
                            [Generator("g", "a", "b"), Generator("h", "b", "c")])
    fg = Matrix.from_ints(QQ, [[1, 2], [0, 1]])
    fh = Matrix.from_ints(QQ, [[1, 0], [3, 1]])
    F = FiberFunctor(QQ, {"a": 2, "b": 2, "c": 2}, {"g": fg, "h": fh})
    assert path_eval(cat, F, cat.path(["g", "h"])) == fh @ fg


def test_path_composability_enforced():
    cat = PresentedCategory(["a", "b"], [Generator("g", "a", "b")])
    with pytest.raises(PresentationError):
        cat.path(["g", "g"])


def test_validate_functor_z2_swap():
    cat = z2_with_relation()
    assert validate_functor(cat, swap_functor()).passed


def test_validate_functor_violation_reported():
    cat = z2_with_relation()
    F = FiberFunctor(QQ, {"star": 2},
                     {"g": Matrix.from_ints(QQ, [[1, 1], [0, 1]])})
    report = validate_functor(cat, F)
    assert not report.passed
    bad = report.failures()[0]
    assert "relation" in bad.name
    assert bad.detail is not None and "lhs" in bad.detail


def test_validate_functor_no_relations_vacuous(rng):
    cat = PresentedCategory(["a"], [Generator("g", "a", "a")])
    F = FiberFunctor(QQ, {"a": 3}, {"g": rand_matrix(rng, QQ, 3, 3)})
    assert validate_functor(cat, F).passed


def test_derived_paths_agree_under_rewriting(rng):
    # substituting the relation g·g = id into longer words never changes
    # the evaluation of a valid functor
    cat = z2_with_relation()
    F = swap_functor()
    assert validate_functor(cat, F).passed
    for _ in range(20):
        word = ["g"] * rng.randint(0, 6)
        spot = rng.randint(0, len(word))
        rewritten = word[:spot] + ["g", "g"] + word[spot:]
        lhs = path_eval(cat, F, cat.path(word, at="star"))
        rhs = path_eval(cat, F, cat.path(rewritten, at="star"))
        assert lhs == rhs


# -- tensor data --------------------------------------------------------


def test_character_fixture_tensor_valid():
    doc = load_fixture("z2_character")
    assert validate_functor(doc.category, doc.functor).passed
    assert validate_tensor_data(doc.category, doc.functor, doc.tensor).passed


def test_scaled_sigma_sigma_is_a_cocycle_twist():
    # scaling s_{σ,σ} alone is a 2-cocycle twist: both sides of every
    # associativity diagram pick up the same factor and the unit diagrams
    # never see it, so the data stays valid (a genuinely different but
    # legitimate tensor structure)
    doc = load_fixture("z2_character")
    doc.tensor.s[("sigma", "sigma")] = Matrix.from_ints(QQ, [[2]])
    assert validate_tensor_data(doc.category, doc.functor, doc.tensor).passed


def test_perturbed_unit_s_fails_unit_diagram():
    doc = load_fixture("z2_character")
    doc.tensor.s[("sigma", "one")] = Matrix.from_ints(QQ, [[2]])
    report = validate_tensor_data(doc.category, doc.functor, doc.tensor)
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert any("unit_diagram" in n for n in names)


def test_unit_comparison_into_a_zero_space_is_not_invertible():
    # f: K → F(I) with dim F(I) = 0 has a right inverse, but is no isomorphism
    from tannakit.catpres import TensorData
    T = TensorData("I", {("I", "I"): "I"}, {("I", "I"): Matrix.zeros(QQ, 0, 0)},
                   Matrix.zeros(QQ, 0, 1))
    report = validate_tensor_data(PresentedCategory(["I"], []),
                                  FiberFunctor(QQ, {"I": 0}, {}), T)
    assert [c.name for c in report.failures()] == ["f_unit_invertible"]


def test_trivial_tensor_valid():
    doc = load_fixture("trivial")
    assert validate_tensor_data(doc.category, doc.functor, doc.tensor).passed


def test_tensor_naturality_with_generators():
    # one-object monoid category: star⊗star = star, F(star) = K, F(g) = 2;
    # with g⊗id and id⊗g both realized by the path [g], naturality makes
    # F(g⊗g) = F([g,g]) = 4 = F(g)·F(g) and everything validates
    cat = PresentedCategory(["star"], [Generator("g", "star", "star")])
    F = FiberFunctor(QQ, {"star": 1}, {"g": Matrix.from_ints(QQ, [[2]])})
    from tannakit.catpres import TensorData
    T = TensorData("star", {("star", "star"): "star"},
                   {("star", "star"): Matrix.from_ints(QQ, [[1]])},
                   Matrix.from_ints(QQ, [[1]]),
                   on_generators={("g", "star"): (cat.path(["g"]), cat.path(["g"]))})
    assert validate_tensor_data(cat, F, T).passed


def test_tensor_naturality_violation_detected():
    # declaring g⊗id to be the identity path breaks s-naturality: the
    # comparison square needs F(g⊗id) = F(g)⊗id = 2, not 1
    cat = PresentedCategory(["star"], [Generator("g", "star", "star")])
    F = FiberFunctor(QQ, {"star": 1}, {"g": Matrix.from_ints(QQ, [[2]])})
    from tannakit.catpres import TensorData
    T = TensorData("star", {("star", "star"): "star"},
                   {("star", "star"): Matrix.from_ints(QQ, [[1]])},
                   Matrix.from_ints(QQ, [[1]]),
                   on_generators={("g", "star"): (cat.path([], at="star"),
                                                  cat.path([], at="star"))})
    report = validate_tensor_data(cat, F, T)
    names = {c.name: c.passed for c in report.checks}
    assert not names["s_naturality:g,id_star"]


def sorted_word_tensor(letter_dims, symmetry):
    """Strict tensor structure on words of letters read up to order.

    C⊗D is the sorted concatenation of the two words ("I" is the empty
    word), F of a word is the tensor product of its letters' spaces in
    sorted order, and s_{C,D} is the permutation of tensor factors that
    sorts C·D stably.  The table covers words of up to three letters, which
    is all that validation of the one-letter objects reads.  Because
    C⊗D = D⊗C, every declared symmetry is the identity path on C⊗D, and
    its square holds exactly when s_{D,C}∘ψ = s_{C,D}.
    """
    from itertools import combinations_with_replacement, product
    from tannakit.catpres import TensorData
    from tannakit.catpres import Path

    letters = sorted(letter_dims)
    name = lambda word: "".join(sorted(word)) or "I"
    words = [w for k in range(4) for w in combinations_with_replacement(letters, k)]
    dims = {}
    for w in words:
        dims[name(w)] = 1
        for x in w:
            dims[name(w)] *= letter_dims[x]

    def flat(idx, factors):
        out = 0
        for i, x in zip(idx, factors):
            out = out * letter_dims[x] + i
        return out

    table, s = {}, {}
    for x in words:
        for y in words:
            if len(x) + len(y) > 3:
                continue
            table[(name(x), name(y))] = name(x + y)
            joined = x + y
            order = sorted(range(len(joined)), key=lambda i: joined[i])
            n = dims[name(joined)]
            sort = Matrix.zeros(QQ, n, n)
            for idx in product(*(range(letter_dims[c]) for c in joined)):
                src = flat(idx, joined)
                dst = flat([idx[i] for i in order], [joined[i] for i in order])
                sort.data[dst][src] = QQ.one()
            s[(name(x), name(y))] = sort
    cat = PresentedCategory(["I"] + letters, [])
    F = FiberFunctor(QQ, dims, {})
    sym = {(c, d): Path(table[(c, d)], table[(c, d)]) for c, d in symmetry}
    T = TensorData("I", table, s, Matrix.identity(QQ, 1), symmetry=sym)
    return cat, F, T


def test_symmetry_square_passes_for_the_factor_swap():
    # c and d of dimensions 2 and 3: s_{d,c} sorts d·c back to c·d, which
    # is exactly the inverse of the factor swap F(c)⊗F(d) → F(d)⊗F(c)
    cat, F, T = sorted_word_tensor({"c": 2, "d": 3}, [("c", "d"), ("d", "c")])
    report = validate_tensor_data(cat, F, T)
    names = {c.name: c.passed for c in report.checks}
    assert names["symmetry_diagram:c,d"] and names["symmetry_diagram:d,c"]
    assert report.passed


def test_symmetry_square_fails_for_the_identity_on_a_square():
    # the identity of F(c)⊗F(c) is not the factor swap once dim F(c) = 2
    cat, F, T = sorted_word_tensor({"c": 2, "d": 3}, [("c", "c")])
    report = validate_tensor_data(cat, F, T)
    assert [c.name for c in report.failures()] == ["symmetry_diagram:c,c"]
    s_cc = T.s_map("c", "c")
    dense = check_equal("symmetry_diagram:c,c", s_cc, s_cc @ dense_swap(QQ, 2, 2))
    assert report.failures()[0].residue == dense.residue


# -- duality data -------------------------------------------------------


def test_character_fixture_duality_valid():
    doc = load_fixture("z2_character")
    assert validate_duality_data(doc.category, doc.functor, doc.tensor,
                                 doc.duality).passed


def test_scaled_eta_fails_triangles():
    # scale the eta path evaluation directly: replace the identity eta path
    # with a doubling generator, so the evaluated unit is 2 and the
    # triangle composite is 2·id ≠ id
    doc = load_fixture("z2_character")
    cat = PresentedCategory(doc.category.objects
                            + [],
                            [Generator("double", "one", "one")])
    F = FiberFunctor(QQ, dict(doc.functor.on_objects),
                     {"double": Matrix.from_ints(QQ, [[2]])})
    doc.duality.eta = {"one": cat.path(["double"]),
                       "sigma": cat.path(["double"])}
    report = validate_duality_data(cat, F, doc.tensor, doc.duality)
    assert not report.passed
    assert any("triangle" in c.name for c in report.failures())


def test_trivial_duality_valid():
    doc = load_fixture("trivial")
    assert validate_duality_data(doc.category, doc.functor, doc.tensor,
                                 doc.duality).passed


def induced_pairing(cat, F, T, D, obj):
    """The evaluated duality at ``obj`` as a pairing: the primal slot is
    F(C^∧) and the dual slot F(C), so eval = eps_vec and coeval = eta_vec."""
    eta_vec, eps_vec = duality_pairing_vec(cat, F, T, D, obj)
    return DualPairing(F.dim(obj), eps_vec, eta_vec)


def test_induced_pairing_passes_moncat_triangles():
    doc = load_fixture("z2_character")
    for obj in doc.category.objects:
        p = induced_pairing(doc.category, doc.functor, doc.tensor,
                            doc.duality, obj)
        assert check_triangles(p)


def nontrivial_duality_setup(pairing_form=None, extra_gen=None):
    """Two objects dual to each other, with duality generators and an
    optional endomorphism generator.

    a ⊣ b via eta: I → b⊗a and eps: a⊗b → I as explicit generators on a
    five-object strict tensor table (I, a, b, ab, ba).  ``pairing_form``
    is an invertible 2×2 matrix E: the counit is the bilinear form E and
    the unit its inverse (flattened), which is exactly the condition for
    the triangles.
    """
    from tannakit.catpres import DualityData, TensorData
    if pairing_form is None:
        pairing_form = Matrix.identity(QQ, 2)
    einv = inverse(pairing_form)
    objs = ["I", "a", "b", "ab", "ba"]
    gens = [Generator("eta", "I", "ba"), Generator("eps", "ab", "I")]
    gen_mats = {
        # eta(1) = Σ H[a,j] w_a⊗e_j with H = E^{-1}; eps(e_i⊗w_b) = E[i,b]
        "eta": Matrix(QQ, [[einv.data[a][j]] for a in range(2) for j in range(2)]),
        "eps": Matrix(QQ, [[pairing_form.data[i][b]
                            for i in range(2) for b in range(2)]]),
    }
    if extra_gen is not None:
        gens.append(Generator("t", "a", "a"))
        gen_mats["t"] = extra_gen
    cat = PresentedCategory(objs, gens)
    table = {}
    for o in objs:
        table[("I", o)] = o
        table[(o, "I")] = o
    table[("a", "b")] = "ab"
    table[("b", "a")] = "ba"
    # unused products collapse to I; they are never evaluated
    for x in objs:
        for y in objs:
            table.setdefault((x, y), "I")
    dims = {"I": 1, "a": 2, "b": 2, "ab": 4, "ba": 4}
    F = FiberFunctor(QQ, dims, gen_mats)
    smaps = {}
    for x in objs:
        for y in objs:
            if dims[table[(x, y)]] == dims[x] * dims[y]:
                smaps[(x, y)] = Matrix.identity(QQ, dims[x] * dims[y])
    T = TensorData("I", table, smaps, Matrix.from_ints(QQ, [[1]]))
    D = DualityData({"a": "b", "b": "a"},
                    {"a": cat.path(["eta"])},
                    {"a": cat.path(["eps"])})
    return cat, F, T, D


def test_duality_pairing_vec_shapes():
    cat, F, T, D = nontrivial_duality_setup()
    eta_vec, eps_vec = duality_pairing_vec(cat, F, T, D, "a")
    assert eta_vec.rows == 4 and eta_vec.cols == 1
    assert eps_vec.rows == 1 and eps_vec.cols == 4
    p = induced_pairing(cat, F, T, D, "a")
    assert check_triangles(p)


def test_nonstandard_pairing_triangles():
    form = Matrix.from_ints(QQ, [[1, 2], [1, 3]])   # invertible, not diagonal
    cat, F, T, D = nontrivial_duality_setup(pairing_form=form)
    p = induced_pairing(cat, F, T, D, "a")
    assert check_triangles(p)


def test_counit_dinaturality_square_on_generator(rng):
    # ε is dinatural in every arrow, which the triangles imply: for
    # t: a → a the square eps∘(F(t)⊗id) = eps∘(id⊗F(t)^∧) holds exactly,
    # for a nontrivial pairing form and a random generator matrix, with
    # the mate F(t)^∧ = (id⊗eps)∘(id⊗F(t)⊗id)∘(eta⊗id)
    form = Matrix.from_ints(QQ, [[2, 1], [1, 1]])
    t_mat = rand_matrix(rng, QQ, 2, 2)
    cat, F, T, D = nontrivial_duality_setup(pairing_form=form, extra_gen=t_mat)
    eta_vec, eps_vec = duality_pairing_vec(cat, F, T, D, "a")
    ident = Matrix.identity(QQ, 2)
    gdual = (kron(ident, eps_vec) @ kron(kron(ident, t_mat), ident)
             @ kron(eta_vec, ident))
    assert eps_vec @ kron(t_mat, ident) == eps_vec @ kron(ident, gdual)
    p = induced_pairing(cat, F, T, D, "a")
    assert check_triangles(p)


def test_validate_duality_reports_missing_duals():
    cat, F, T, D = nontrivial_duality_setup()
    report = validate_duality_data(cat, F, T, D)
    assert not report.passed
    assert any("duality_declared" in c.name for c in report.failures())


def z2_graded_setup(scalar=2):
    """Objects I and x with x⊗x = I (a Z/2 grading), all of dimension 1,
    and generators t: x → x and u: I → I, both sent to ``scalar``.

    Every s and f is the identity, t⊗id_I = id_I⊗t = t, and the other
    tensor actions of t and u are u or t; each object is its own dual
    with unit and counit the empty path at I.
    """
    from tannakit.catpres import DualityData, TensorData
    cat = PresentedCategory(["I", "x"], [Generator("t", "x", "x"),
                                         Generator("u", "I", "I")])
    table = {("I", "I"): "I", ("I", "x"): "x", ("x", "I"): "x", ("x", "x"): "I"}
    c = Matrix.from_ints(QQ, [[scalar]])
    F = FiberFunctor(QQ, {"I": 1, "x": 1}, {"t": c, "u": c})
    one = Matrix.identity(QQ, 1)
    actions = {}
    for g, obj in [("t", "x"), ("t", "I"), ("u", "x"), ("u", "I")]:
        path = cat.path([{("t", "x"): "u", ("u", "x"): "t"}.get((g, obj), g)])
        actions[(g, obj)] = (path, path)
    T = TensorData("I", table, {pair: one for pair in table}, one,
                   on_generators=actions)
    at_unit = cat.path((), at="I")
    D = DualityData({"I": "I", "x": "x"}, {"I": at_unit, "x": at_unit},
                    {"I": at_unit, "x": at_unit})
    return cat, F, T, D


def test_s_naturality_names_identity_partners_as_empty_paths():
    cat, F, T, _ = z2_graded_setup()
    report = validate_tensor_data(cat, F, T)
    assert report.passed
    names = [c.name for c in report.checks if c.name.startswith("s_naturality")]
    assert names == ["s_naturality:t,id_I", "s_naturality:id_I,t",
                     "s_naturality:t,id_x", "s_naturality:id_x,t",
                     "s_naturality:u,id_I", "s_naturality:id_I,u",
                     "s_naturality:u,id_x", "s_naturality:id_x,u"]


def test_s_naturality_rejects_action_path_with_wrong_endpoints():
    cat, F, T, _ = z2_graded_setup()
    # t⊗id_x runs from x⊗x = I to I; the path t runs from x to x
    T.on_generators[("t", "x")] = (cat.path(["t"]), cat.path(["u"]))
    with pytest.raises(PresentationError, match="wrong endpoints"):
        validate_tensor_data(cat, F, T)


def test_duality_squares_pass_with_each_duality_evaluated_once(monkeypatch):
    import tannakit.catpres as catpres
    cat, F, T, D = z2_graded_setup()
    calls = []

    def counted(cat, F, T, D, obj):
        calls.append(obj)
        return duality_pairing_vec(cat, F, T, D, obj)

    monkeypatch.setattr(catpres, "duality_pairing_vec", counted)
    report = validate_duality_data(cat, F, T, D)
    assert report.passed
    assert [c.name for c in report.checks] == ["triangle_1:I", "triangle_2:I",
                                               "triangle_1:x", "triangle_2:x"]
    assert calls == ["I", "x"]


@pytest.mark.parametrize("p", [None, 5, 7])
def test_one_sided_s_naturality_implies_the_square_on_two_generators(p):
    # F(g⊗h) = F(id⊗h)∘F(g⊗id), so s∘(F(g)⊗F(h)) = F(g⊗h)∘s is the
    # composite of the two one-sided squares that validation checks
    rng = random.Random(21 + (p or 0))
    kept = 0
    for _ in range(300):
        doc = load_document(random_z2_graded_document(rng, p))
        cat, F, T = doc.category, doc.functor, doc.tensor
        try:
            report = validate_tensor_data(cat, F, T)
        except PresentationError:
            continue
        squares = [c for c in report.checks if c.name.startswith("s_naturality")]
        if (len(squares) < 2 * len(cat.generators) * len(cat.objects)
                or not all(c.passed for c in squares)):
            continue
        kept += 1
        for g in cat.generators:
            for h in cat.generators:
                gid = T.action(g.name, h.src)[0]
                idh = T.action(h.name, g.dst)[1]
                lhs = T.s_map(g.dst, h.dst) @ kron(F.gen_matrix(g.name),
                                                   F.gen_matrix(h.name))
                rhs = (path_eval(cat, F, idh) @ path_eval(cat, F, gid)
                       @ T.s_map(g.src, h.src))
                assert lhs == rhs
    assert kept >= 30


@pytest.mark.parametrize("p", [None, 5, 7])
def test_unit_diagrams_imply_the_associativity_squares_with_the_unit(p):
    # once f is invertible, F(I) has dimension 1 and the unit diagrams
    # make s_{C,I} = id⊗f⁻¹ and s_{I,C} = f⁻¹⊗id, so both sides of a
    # square with I in its triple are id⊗f⁻¹⊗id, f⁻¹⊗s_{B,C} or
    # s_{A,B}⊗f⁻¹; validation checks only the squares without I.  A strict
    # table with invertible s forces every object to dimension 0 or 1, so
    # Vec_S3 with random s covers what a document can express
    rng = random.Random(22 + (p or 0))

    def scalar():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    perms = list(permutations(range(3)))
    kept = failing = 0
    for _ in range(60):
        raw = group_graded_document(perms, p)
        tensor = raw["tensor"]
        f = scalar()
        tensor["f_unit"] = [[scalar_text(f, p)]]
        honest = rng.random() < 0.8
        for pair in tensor["s"]:
            at_unit = tensor["unit"] in pair.split(",")
            value = 1 / f if at_unit and honest else scalar()
            tensor["s"][pair] = [[scalar_text(value, p)]]
        doc = load_document(raw)
        F, T = doc.functor, doc.tensor
        report = validate_tensor_data(doc.category, F, T)
        premise = [c for c in report.checks if c.name == "f_unit_invertible"
                   or c.name.startswith("unit_diagram_")]
        if len(premise) != 1 + 2 * len(doc.category.objects) or not all(
                c.passed for c in premise):
            continue
        kept += 1
        failing += any(not c.passed for c in report.checks
                       if c.name.startswith("assoc_diagram"))
        for a, b, c in product(doc.category.objects, repeat=3):
            if T.unit not in (a, b, c):
                continue
            ida = Matrix.identity(F.field, F.dim(a))
            idc = Matrix.identity(F.field, F.dim(c))
            lhs = T.s_map(T.obj(a, b), c) @ kron(T.s_map(a, b), idc)
            rhs = T.s_map(a, T.obj(b, c)) @ kron(ida, T.s_map(b, c))
            assert lhs == rhs
    assert kept >= 30 and failing > 0


def test_duality_dims_fails_a_dual_of_another_dimension():
    # F(sigma) = 2 while its declared dual one has F(one) = 1: sigma fails
    # before any triangle is evaluated, and one keeps both triangles
    doc = load_fixture("z2_character")
    F = FiberFunctor(QQ, {"one": 1, "sigma": 2}, {})
    doc.duality.dual_of["sigma"] = "one"
    report = validate_duality_data(doc.category, F, doc.tensor, doc.duality)
    assert [(c.name, c.passed, c.residue) for c in report.checks] == [
        ("triangle_1:one", True, "0"), ("triangle_2:one", True, "0"),
        ("duality_dims:sigma", False, "shape")]
