import pytest

from tannakit import (Matrix, QQ, check_triangles, coherence_equal, dual_map,
                      eval_in_vec, kron, standard_pairing)
from tannakit.moncat import (MAX_EXPR_DEPTH, MAX_WORD_DIM, AdjacentSwap, Compose, DualPairing,
                             ExprError, Identity, evaluations_equal, format_expr,
                             parse_expr, perm_of, transport_pairing)

from conftest import dense_swap, rand_invertible, rand_matrix


W3 = ("x", "y", "z")


def test_perm_identity():
    assert perm_of(Identity(W3)) == (0, 1, 2)


def test_perm_hexagon_composite_is_cycle():
    # swap at 0 then swap at 1 moves the first letter to the last position,
    # the composite arrow of the hexagon diagram
    e = Compose(AdjacentSwap(W3, 0), AdjacentSwap(("y", "x", "z"), 1))
    assert perm_of(e) == (2, 0, 1)
    assert e.codomain == ("y", "z", "x")


def test_perm_braid_cube_is_identity():
    # (s_i s_{i+1})^3 = 1 on any 3-letter word
    e = Identity(W3)
    word = W3
    for _ in range(3):
        s0 = AdjacentSwap(word, 0)
        s1 = AdjacentSwap(s0.codomain, 1)
        e = Compose(e, Compose(s0, s1))
        word = s1.codomain
    assert perm_of(e) == (0, 1, 2)
    assert word == W3


def test_perm_respects_composition(rng):
    for _ in range(20):
        a = AdjacentSwap(W3, rng.randint(0, 1))
        b = AdjacentSwap(a.codomain, rng.randint(0, 1))
        comp = Compose(a, b)
        pa, pb = perm_of(a), perm_of(b)
        assert perm_of(comp) == tuple(pb[pa[i]] for i in range(3))


def test_coherence_swap_squared_is_identity():
    e = Compose(AdjacentSwap(("x", "y"), 0), AdjacentSwap(("y", "x"), 0))
    assert coherence_equal(e, Identity(("x", "y")))


def test_coherence_distinguishes():
    # on a repeated atom the boundary words agree but the permutations differ
    assert not coherence_equal(AdjacentSwap(("x", "x"), 0), Identity(("x", "x")))


def test_coherence_requires_same_boundary():
    with pytest.raises(ExprError):
        coherence_equal(AdjacentSwap(W3, 0), Identity(W3))


def test_eval_unit_factor_collapses():
    # swapping past a one-dimensional factor is the identity matrix
    e = AdjacentSwap(("u", "x"), 0)
    assert eval_in_vec(e, {"u": 1, "x": 4}) == Matrix.identity(QQ, 4)


def test_eval_swap_two_two():
    e = AdjacentSwap(("x", "y"), 0)
    cols = eval_in_vec(e, {"x": 2, "y": 2}).sparse_cols()
    for i in range(2):
        for j in range(2):
            assert cols[i * 2 + j] == {j * 2 + i: QQ.one()}


from conftest import random_expr_pair as random_pair


def test_coherence_matches_matrix_evaluation(rng):
    # soundness and completeness of the permutation criterion against the
    # exact-evaluation oracle, dims ≥ 2 for the completeness direction
    agree = 0
    for _ in range(120):
        e1, e2 = random_pair(rng)
        expected = coherence_equal(e1, e2)
        dims = {atom: rng.choice([2, 3]) for atom in sorted(set(e1.domain) | {"a", "b"})}
        got = eval_in_vec(e1, dims) == eval_in_vec(e2, dims)
        assert got == expected
        agree += 1
    assert agree == 120


def dense_eval(e, dims, field=QQ):
    """Reference evaluator: identities, dense swaps, kron and matrix products."""
    def word_dim(word):
        d = 1
        for atom in word:
            d *= dims[atom]
        return d
    if isinstance(e, Identity):
        return Matrix.identity(field, word_dim(e.word))
    if isinstance(e, AdjacentSwap):
        mid = dense_swap(field, dims[e.word[e.pos]], dims[e.word[e.pos + 1]])
        return kron(kron(Matrix.identity(field, word_dim(e.word[:e.pos])), mid),
                    Matrix.identity(field, word_dim(e.word[e.pos + 2:])))
    if isinstance(e, Compose):
        return dense_eval(e.then, dims, field) @ dense_eval(e.first, dims, field)
    return kron(dense_eval(e.left, dims, field), dense_eval(e.right, dims, field))


def test_eval_matches_dense_reference(rng):
    # the same 120 pairs and dims as test_coherence_matches_matrix_evaluation
    for _ in range(120):
        e1, e2 = random_pair(rng)
        dims = {atom: rng.choice([2, 3]) for atom in sorted(set(e1.domain) | {"a", "b"})}
        assert eval_in_vec(e1, dims) == dense_eval(e1, dims)
        assert eval_in_vec(e2, dims) == dense_eval(e2, dims)


def test_eval_rejects_bad_dimensions():
    e = AdjacentSwap(("a", "b"), 0)
    for bad in [0, -1, "2", 2.0]:
        with pytest.raises(ExprError):
            eval_in_vec(e, {"a": bad, "b": 2})
    with pytest.raises(ExprError):
        eval_in_vec(e, {"a": 2})


def test_eval_rejects_word_dimension_above_cap():
    word = ("a",) * 11                       # 2^11 = 2048 > MAX_WORD_DIM
    assert 2 ** 11 > MAX_WORD_DIM >= 3 ** 6
    with pytest.raises(ExprError):
        eval_in_vec(Identity(word), {"a": 2})
    assert eval_in_vec(Identity(("a",) * 10), {"a": 2}).rows == 1024


def test_coherence_soundness_at_dimension_one(rng):
    # equal expressions evaluate equal even when some dims are 1; unequal
    # ones may too, exactly when evaluations_equal reads it off perm_of
    swap, ident = AdjacentSwap(("a", "a"), 0), Identity(("a", "a"))
    assert evaluations_equal(swap, ident, {"a": 1})
    assert not evaluations_equal(swap, ident, {"a": 2})
    seen = set()
    for _ in range(120):
        e1, e2 = random_pair(rng)
        dims = {atom: rng.choice([1, 2, 3]) for atom in ("a", "b")}
        got = eval_in_vec(e1, dims) == eval_in_vec(e2, dims)
        assert evaluations_equal(e1, e2, dims) == got
        equal = coherence_equal(e1, e2)
        assert got or not equal
        seen.add((equal, got))
    assert seen == {(True, True), (False, True), (False, False)}


def test_swap_naturality(rng):
    # eval(ψ)∘(f⊗g) = (g⊗f)∘eval(ψ) for the adjacent swap
    f = rand_matrix(rng, QQ, 2, 2)
    g = rand_matrix(rng, QQ, 3, 3)
    psi_dom = eval_in_vec(AdjacentSwap(("x", "y"), 0), {"x": 2, "y": 3})
    psi_cod = psi_dom
    assert psi_cod @ kron(f, g) == kron(g, f) @ psi_dom


# -- pairings ----------------------------------------------------------


def test_standard_pairing_small():
    p1 = standard_pairing(1)
    assert p1.eval == Matrix.from_ints(QQ, [[1]])
    assert p1.coeval == Matrix.from_ints(QQ, [[1]])
    p2 = standard_pairing(2)
    assert [row[0] for row in p2.coeval.data] == [QQ.one(), QQ.zero(), QQ.zero(), QQ.one()]
    p0 = standard_pairing(0)
    assert p0.eval.cols == 0 and p0.coeval.rows == 0
    assert check_triangles(p0)


def test_snake_equations():
    for n in range(5):
        assert check_triangles(standard_pairing(n))


def test_triangles_fail_when_scaled():
    p = standard_pairing(2)
    scaled = DualPairing(2, p.eval, Matrix.from_ints(QQ, [[2], [0], [0], [2]]))
    assert not check_triangles(scaled)


def test_transported_pairing_valid(rng):
    p = standard_pairing(3)
    pmat = rand_invertible(rng, QQ, 3)
    q = transport_pairing(p, pmat)
    assert check_triangles(q)


def test_dual_map_identity():
    p = standard_pairing(2)
    assert dual_map(Matrix.identity(QQ, 2), p, p) == Matrix.identity(QQ, 2)


def test_dual_map_is_transpose():
    f = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    p = standard_pairing(2)
    assert dual_map(f, p, p) == Matrix.from_ints(QQ, [[1, 3], [2, 4]])


def test_dual_map_contravariant(rng):
    p2, p3, p4 = standard_pairing(2), standard_pairing(3), standard_pairing(4)
    f = rand_matrix(rng, QQ, 3, 2)   # f: K^2 → K^3
    g = rand_matrix(rng, QQ, 4, 3)   # g: K^3 → K^4
    lhs = dual_map(g @ f, p4, p2)
    rhs = dual_map(f, p3, p2) @ dual_map(g, p4, p3)
    assert lhs == rhs


def test_dual_map_involution(rng):
    f = rand_matrix(rng, QQ, 3, 3)
    p = standard_pairing(3)
    assert dual_map(dual_map(f, p, p), p, p) == f


def test_dual_map_nonstandard_pairing(rng):
    # transported pairings still satisfy contravariance
    pm = rand_invertible(rng, QQ, 2)
    p = transport_pairing(standard_pairing(2), pm)
    f = rand_matrix(rng, QQ, 2, 2)
    g = rand_matrix(rng, QQ, 2, 2)
    assert dual_map(g @ f, p, p) == dual_map(f, p, p) @ dual_map(g, p, p)


# -- text form ---------------------------------------------------------


def test_parse_format_roundtrip():
    for text in ["id[a,b]", "swap[a,b;0]", "(id[a] ; id[a])",
                 "(swap[a,b;0] * id[c])",
                 "((swap[a,b;0] ; swap[b,a;0]) * id[c])"]:
        expr = parse_expr(text)
        assert format_expr(expr) == text
        assert parse_expr(format_expr(expr)) == expr


def test_parse_empty_word():
    assert parse_expr("id[]").domain == ()


def test_parse_errors():
    for bad in ["swap[a,b]", "id[a", "(id[a] id[a])", "id[a] extra",
                "swap[a,b;x]", "swap[a,b;]", "swap[a,b;1.0]",
                "id[a,,b]", "id[a, ,b]", "id[a,]", "swap[,;0]"]:
        with pytest.raises(ExprError):
            parse_expr(bad)
    assert parse_expr("id[]").domain == parse_expr("id[ ]").domain == ()


def test_parse_nesting_is_bounded():
    expr = "id[a]"
    for _ in range(MAX_EXPR_DEPTH):
        expr = "(%s ; id[a])" % expr
    assert perm_of(parse_expr(expr)) == (0,)
    with pytest.raises(ExprError, match="nests deeper"):
        parse_expr("(%s ; id[a])" % expr)
