import ast
import os
from fractions import Fraction
from itertools import combinations

import pytest

import tannakit
from tannakit import GF, Matrix, QQ, kron, load_document, rank, rref
from tannakit.coend import cocomposition, natvee
from tannakit.linalg import (SubspaceBasis, curry, inverse, kernel_basis,
                             kron_apply, kron_perm, middle_swap, perm_matrix,
                             quotient, solve_matrix, swap_perm, uncurry)
from tannakit.report import check_equal

from conftest import (column_solve_matrix, cyclic_document, dense_kernel,
                      dense_kron, dense_product, dense_rref, dense_swap,
                      rand_invertible, rand_matrix, rand_sparse_matrix,
                      rand_unit_matrix, relation_vectors)


def minor_rank(m):
    """Independent rank oracle: largest k with a nonzero k×k minor,
    by Laplace expansion over all square submatrices."""
    def det(rows, cols):
        if len(rows) == 1:
            return m.data[rows[0]][cols[0]]
        total = Fraction(0)
        sign = 1
        for i, r in enumerate(rows):
            total += sign * m.data[r][cols[0]] * det(rows[:i] + rows[i + 1:], cols[1:])
            sign = -sign
        return total
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                if det(list(rows), list(cols)) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    ech, pivots, r = rref(m)
    assert ech == m and pivots == (0, 1) and r == 2


def test_rref_rank_one():
    m = Matrix.from_ints(QQ, [[1, 2], [2, 4]])
    ech, pivots, r = rref(m)
    assert ech == Matrix.from_ints(QQ, [[1, 2], [0, 0]])
    assert pivots == (0,) and r == 1


def test_rref_matches_minor_expansion_oracle(rng):
    for _ in range(5):
        m = rand_matrix(rng, QQ, 5, 7, lo=-2, hi=2, denom=True)
        assert rank(m) == minor_rank(m)


def test_rref_idempotent(rng):
    for _ in range(10):
        m = rand_matrix(rng, QQ, 4, 5)
        ech = rref(m)[0]
        again = rref(ech)[0]
        assert again == ech


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2)], ids=["Q", "F7", "F2"])
def test_rref_matches_dense_rref(rng, field):
    # rank-deficient products of a thin and a wide factor, sparse and dense
    for rows, cols, k, density in [(6, 9, 3, 0.3), (9, 6, 4, 0.5), (7, 7, 5, 1.0),
                                   (8, 12, 2, 0.2), (5, 4, 0, 1.0), (1, 6, 1, 1.0),
                                   (6, 1, 1, 1.0)]:
        for _ in range(3):
            left = rand_sparse_matrix(rng, field, rows, k, density, denom=True)
            right = rand_sparse_matrix(rng, field, k, cols, density, denom=True)
            m = left @ right
            got = rref(m)
            assert got == dense_rref(m)
            assert got[2] <= k
    for m in [Matrix.zeros(field, 0, 4), Matrix.zeros(field, 3, 0)]:
        assert rref(m) == dense_rref(m)
    # entries equal to 0, 1 and −1 written another way, and their products
    for rows, cols, k in [(5, 7, 3), (7, 5, 4), (6, 6, 6), (1, 4, 1)]:
        for _ in range(3):
            m = rand_unit_matrix(rng, field, rows, cols)
            assert rref(m) == dense_rref(m)
            m = (rand_unit_matrix(rng, field, rows, k)
                 @ rand_unit_matrix(rng, field, k, cols))
            assert rref(m) == dense_rref(m)


def relation_shaped(field, rng):
    """Relation matrices of cyclic Z/2…Z/6 (g conjugated by a monomial
    matrix, so Q entries have denominators), then with a zero row, a
    repeated row and a shuffle of the rows; a rank-0 and a full-rank
    matrix; and random rank-deficient ones."""
    p = None if field == QQ else field.p
    out = []
    for n in range(2, 7):
        perm = list(reversed(range(n)))
        diag = [2, -3, 1, 3, -1, -2][:n]
        doc = load_document(cyclic_document(n, p, perm, diag))
        ambient, vectors = relation_vectors(doc.category, doc.functor,
                                            doc.functor)
        out.append(Matrix(field, vectors, cols=ambient))
        rows = [list(v) for v in vectors]
        rows.insert(n, [field.zero()] * ambient)
        rows.append(list(rows[1]))
        rng.shuffle(rows)
        out.append(Matrix(field, rows, cols=ambient))
    out.append(Matrix.zeros(field, 4, 6))
    out.append(rand_invertible(rng, field, 5))
    for rows, cols, k in [(6, 9, 3), (9, 6, 4), (1, 5, 1)]:
        out.append(rand_sparse_matrix(rng, field, rows, k, 0.5, denom=True)
                   @ rand_sparse_matrix(rng, field, k, cols, 0.5, denom=True))
    return out


def nonzeros(field, vectors):
    """Dense vectors as sparse rows ``{col: value}``, zeros dropped."""
    zero = field.zero()
    return [{c: x for c, x in enumerate(v) if x != zero} for v in vectors]


def sparse_rows(m):
    return nonzeros(m.field, m.data)


def kernel_of(m):
    return kernel_basis(sparse_rows(m), m.field, m.cols)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_rref_matches_dense_rref_on_relation_shapes(rng, field):
    kinds = set()
    for m in relation_shaped(field, rng):
        got = rref(m)
        assert got == dense_rref(m)
        assert got[0].rows == m.rows
        r = got[2]
        kinds.add("zero" if r == 0 else
                  "full" if r == min(m.rows, m.cols) else "deficient")
    assert kinds == {"zero", "full", "deficient"}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_sparse_view_and_selections_match_dense_references(rng, field):
    shapes = relation_shaped(field, rng) + [Matrix.zeros(field, 0, 4),
                                            Matrix.zeros(field, 3, 0)]
    for m in shapes:
        assert Matrix.from_rows(field, m.sparse_rows(), m.cols) == m
        assert m.sparse_rows() == sparse_rows(m)
        assert m.sparse_cols() == m.transpose().sparse_rows()
        assert list(m.entries()) == [x for row in m.data for x in row]
        perm = list(range(m.cols))
        rng.shuffle(perm)
        assert m.select_cols(perm) == m @ perm_matrix(field, perm)
        rows = list(range(m.rows))
        rng.shuffle(rows)
        assert m.select_rows(rows) == perm_matrix(field, rows).transpose() @ m
        block = range(m.cols // 3, m.cols)
        assert m.select_cols(block) == Matrix(field, [row[block.start:] for row in m.data],
                                              cols=len(block))


def test_only_linalg_reads_the_dense_layout():
    """The dense list-of-lists layout of ``Matrix`` is linalg's decision:
    every other module goes through the sparse view and the selections."""
    package = os.path.dirname(os.path.abspath(tannakit.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "linalg.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "data"]
    assert found == []


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_linalg_hands_over_its_own_rows_without_a_copy(monkeypatch, field):
    """Results that linalg builds row by row skip ``Matrix.__init__``'s copy
    and ragged check, and ``check_equal`` builds no difference matrix."""
    m = Matrix.from_ints(field, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    doc = load_document(cyclic_document(4, None if field == QQ else 7))
    P = natvee(doc.category, doc.functor, doc.functor)
    copies = []
    init = Matrix.__init__

    def counted(self, *args, **kwargs):
        copies.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counted)
    m.select_rows([2, 0])
    m.select_cols(range(1, 3))
    m.select_cols([2, 0, 1])
    for v, w in ((3, 1), (1, 3)):
        assert uncurry(curry(m, v, w), 3, w) == m
    assert solve_matrix(m, m) == Matrix.identity(field, 3)
    assert inverse(m) @ m == Matrix.identity(field, 3)
    assert check_equal("law", m, m).passed
    assert not check_equal("law", m, Matrix.identity(field, 3)).passed
    cocomposition(P, P, P)
    assert copies == []
    with pytest.raises(TypeError):
        hash(Matrix.identity(QQ, 2))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_subspace_and_kernel_match_dense_references(rng, field):
    shapes = relation_shaped(field, rng) + [Matrix.zeros(field, 0, 4),
                                            Matrix.zeros(field, 3, 0)]
    for m in shapes:
        ech, pivots, rank_m = dense_rref(m)
        span = SubspaceBasis(field, m.cols, sparse_rows(m))
        assert span.rows == sparse_rows(ech)[:rank_m]
        assert span.pivots() == pivots
        vectors, kernel_pivots = dense_kernel(m)
        ker = kernel_of(m)
        assert ker.rows == nonzeros(field, vectors)
        assert ker.pivots() == kernel_pivots
        assert ker.dim == m.cols - rank_m
    # the same integer rows over Q and over F_7 are different subspaces
    assert (SubspaceBasis(QQ, 2, [{0: Fraction(1), 1: Fraction(2)}])
            != SubspaceBasis(GF(7), 2, [{0: 1, 1: 2}]))


def test_subspace_rejects_vectors_outside_the_ambient():
    for vectors in ([{0: 1, 3: 4}], [{3: 1}], [{-1: 1}]):
        with pytest.raises(ValueError):
            SubspaceBasis(QQ, 3, vectors)


def test_kernel_identity_and_zero():
    assert kernel_of(Matrix.identity(QQ, 3)).dim == 0
    assert kernel_of(Matrix.zeros(QQ, 3, 3)).dim == 3


def test_kernel_by_hand():
    # f(v) = v0 + v1; enumerate: f·(1,−1) = 0 spans the kernel
    f = Matrix.from_ints(QQ, [[1, 1]])
    ker = kernel_of(f)
    assert ker.dim == 1
    assert ker.rows[0] == {0: Fraction(1), 1: Fraction(-1)}


def test_rank_nullity(rng):
    for _ in range(10):
        m = rand_matrix(rng, QQ, 3, 5)
        assert rank(m) + kernel_of(m).dim == m.domain_dim


def test_kron_identity_and_scalar():
    assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)
    assert kron(Matrix.from_ints(QQ, [[2]]), Matrix.from_ints(QQ, [[3]])) \
        == Matrix.from_ints(QQ, [[6]])


def test_kron_interchange(rng):
    for _ in range(5):
        a, b, c, d = (rand_matrix(rng, QQ, 2, 2) for _ in range(4))
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_kron_transpose(rng):
    a = rand_matrix(rng, QQ, 2, 3)
    b = rand_matrix(rng, QQ, 3, 2)
    assert kron(a, b).transpose() == kron(a.transpose(), b.transpose())


def test_kron_index_convention():
    # e_i⊗e_j ↦ index i·n2 + j: check on elementary columns
    a = Matrix.zeros(QQ, 2, 1)
    a.data[1][0] = QQ.one()           # e_1 in K^2
    b = Matrix.zeros(QQ, 3, 1)
    b.data[2][0] = QQ.one()           # e_2 in K^3
    prod = kron(a, b)
    expected = Matrix.zeros(QQ, 6, 1)
    expected.data[1 * 3 + 2][0] = QQ.one()
    assert prod == expected


def test_swap_matrix_involution():
    s = perm_matrix(QQ, swap_perm(2, 3))
    t = perm_matrix(QQ, swap_perm(3, 2))
    assert t @ s == Matrix.identity(QQ, 6)


# -- permutations as index maps, against dense permutation matrices ----


def test_swap_perm_matches_dense_swap():
    for field in (QQ, GF(5)):
        for a in range(1, 5):
            for b in range(1, 5):
                assert perm_matrix(field, swap_perm(a, b)) == dense_swap(field, a, b)


def test_swap_perm_inverse():
    for a in range(1, 5):
        for b in range(1, 5):
            s, t = swap_perm(a, b), swap_perm(b, a)
            assert tuple(t[i] for i in s) == tuple(range(a * b))


def test_select_cols_matches_dense_product(rng):
    for field in (QQ, GF(7)):
        for a, b, left, right in [(2, 3, 1, 1), (3, 2, 2, 1), (2, 2, 1, 3), (1, 4, 2, 2)]:
            perm = middle_swap(left, a, b, right)
            n = left * a * b * right
            dense = kron(kron(Matrix.identity(field, left), dense_swap(field, a, b)),
                         Matrix.identity(field, right))
            A = rand_matrix(rng, field, rng.randint(1, 4), n, denom=True)
            assert A.select_cols(perm) == A @ dense


def test_kron_perm_matches_dense_kron():
    for field in (QQ, GF(3)):
        for p, dp in [(swap_perm(2, 3), dense_swap(field, 2, 3)),
                      (range(2), Matrix.identity(field, 2))]:
            for q, dq in [(swap_perm(2, 2), dense_swap(field, 2, 2)),
                          (range(3), Matrix.identity(field, 3)),
                          (swap_perm(1, 3), dense_swap(field, 1, 3))]:
                assert perm_matrix(field, kron_perm(p, q)) == kron(dp, dq)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2)], ids=["Q", "F7", "F2"])
def test_kron_apply_matches_dense_kron(rng, field):
    def check(a, b, m):
        ab = kron(a, b)
        assert ab == dense_kron(a, b)
        got = kron_apply(a, b, m)
        assert got == ab @ m == dense_product(ab, m)
        assert (got.rows, got.cols) == (a.rows * b.rows, m.cols)

    # (a.rows, a.cols, b.rows, b.cols, m.cols): square, thin, wide, 1×k
    # functionals on either side, and zero-row and zero-column shapes
    shapes = [(3, 2, 2, 3, 4), (4, 4, 1, 1, 2), (1, 1, 3, 2, 3), (1, 4, 1, 3, 1),
              (2, 3, 1, 2, 5), (1, 3, 4, 3, 2), (0, 2, 3, 2, 3), (2, 2, 0, 3, 2),
              (2, 0, 2, 2, 3), (3, 2, 2, 2, 0)]
    for ar, ac, br, bc, mc in shapes:
        for density in (1.0, 0.3):
            check(rand_sparse_matrix(rng, field, ar, ac, density, denom=True),
                  rand_sparse_matrix(rng, field, br, bc, density, denom=True),
                  rand_sparse_matrix(rng, field, ac * bc, mc, density, denom=True))
    # entries equal to 0, 1 and −1 written another way
    for ar, ac, br, bc, mc in shapes:
        check(rand_unit_matrix(rng, field, ar, ac), rand_unit_matrix(rng, field, br, bc),
              rand_unit_matrix(rng, field, ac * bc, mc))
    # the coassociativity shapes (Δ⊗id)∘Δ and (id⊗Δ)∘Δ
    delta = rand_sparse_matrix(rng, field, 9, 3, 0.4, denom=True)
    ident = Matrix.identity(field, 3)
    assert kron_apply(delta, ident, delta) == kron(delta, ident) @ delta
    assert kron_apply(ident, delta, delta) == kron(ident, delta) @ delta


def test_kernels_compare_no_fraction_with_a_fraction(monkeypatch):
    """The kernels test a Q scalar by its truth value and against the int 1,
    never against another Fraction, whose ``__eq__`` runs the
    ``numbers.Rational`` check."""
    m = Matrix.from_rows(QQ, [{0: Fraction(1, 2), 3: Fraction(-2)}, {},
                              {1: Fraction(2, 2), 3: Fraction(3, 4)},
                              {0: Fraction(1), 2: Fraction(0, 5), 3: Fraction(-4)}], 4)
    ident = Matrix.identity(QQ, 2)
    x = Matrix.from_rows(QQ, [{0: Fraction(1)}, {1: Fraction(-1, 3)}] * 4, 2)
    fraction_eq = Fraction.__eq__
    compared = []

    def counting_eq(a, b):
        if isinstance(b, Fraction):
            compared.append((a, b))
        return fraction_eq(a, b)

    monkeypatch.setattr(Fraction, "__eq__", counting_eq)
    rows, cols = m.sparse_rows(), m.sparse_cols()
    product = m @ m
    kronecker = kron(m, ident)
    applied = (kron_apply(m, ident, x), kron_apply(ident, m, x))
    echelon = rref(m)
    kernel = kernel_basis(rows, QQ, m.cols)
    monkeypatch.undo()
    assert compared == []
    assert rows == sparse_rows(m)
    assert cols == sparse_rows(m.transpose())
    assert product == dense_product(m, m)
    assert kronecker == dense_kron(m, ident)
    assert applied == (dense_product(dense_kron(m, ident), x),
                       dense_product(dense_kron(ident, m), x))
    assert echelon == dense_rref(m)
    assert kernel.rows == nonzeros(QQ, dense_kernel(m)[0])


def test_kron_apply_rejects_shape_mismatch():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(QQ, 3)
    with pytest.raises(ValueError):
        kron_apply(a, b, Matrix.zeros(QQ, 5, 1))
    with pytest.raises(ValueError):
        kron_apply(a, b, Matrix.zeros(QQ, 0, 1))


def written_out_coeval(field, w):
    """1 ↦ Σ_j e_j^∨⊗e_j as a w²×1 column; transposed, the evaluation
    W⊗W^∨ → K."""
    co = Matrix.zeros(field, w * w, 1)
    for j in range(w):
        co.data[j * w + j][0] = field.one()
    return co


# (dim V, dim W, dim B), with each of them at 0
ADJUNCTION_DIMS = [(2, 3, 2), (3, 2, 1), (1, 1, 4), (4, 2, 3),
                   (0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0)]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_curry_and_uncurry_match_the_adjunction_composites(rng, field):
    for v, w, b in ADJUNCTION_DIMS:
        co = written_out_coeval(field, w)
        id_v, id_w = Matrix.identity(field, v), Matrix.identity(field, w)
        for density in (1.0, 0.3):
            h = rand_sparse_matrix(rng, field, b, v * w, density, denom=True)
            g = rand_sparse_matrix(rng, field, b * w, v, density, denom=True)
            # curry(h) = (h⊗id_W)∘(id_V⊗coeval_W): V → B⊗W
            assert curry(h, v, w) == kron(h, id_w) @ kron(id_v, co)
            # uncurry(g) = (id_B⊗eval_W)∘(g⊗id_{W^∨}): V⊗W^∨ → B
            assert uncurry(g, b, w) == (kron(Matrix.identity(field, b), co.transpose())
                                        @ kron(g, id_w))
            assert uncurry(curry(h, v, w), b, w) == h
            assert curry(uncurry(g, b, w), v, w) == g


def test_curry_and_uncurry_reject_shapes_that_do_not_factor():
    with pytest.raises(ValueError):
        curry(Matrix.zeros(QQ, 2, 5), 2, 2)
    with pytest.raises(ValueError):
        curry(Matrix.zeros(QQ, 2, 0), 1, 2)
    with pytest.raises(ValueError):
        uncurry(Matrix.zeros(QQ, 5, 2), 2, 2)
    with pytest.raises(ValueError):
        uncurry(Matrix.zeros(QQ, 0, 2), 1, 2)
    with pytest.raises(ValueError):
        uncurry(Matrix.zeros(QQ, 0, 2), -1, 0)


def assert_quotient_of(proj, free, rel):
    """proj is the identity on the free columns and kills the relation rows."""
    on_free = Matrix(QQ, [[row[c] for c in free] for row in proj.data],
                     cols=len(free))
    assert on_free == Matrix.identity(QQ, len(free))
    rows = Matrix.from_rows(QQ, rel.rows, rel.ambient_dim)
    assert proj @ rows.transpose() == Matrix.zeros(QQ, len(free), rel.dim)


def test_quotient_trivial():
    proj, free = quotient(3, SubspaceBasis(QQ, 3, []))
    assert proj == Matrix.identity(QQ, 3)
    assert free == (0, 1, 2)


def test_quotient_by_line():
    rel = SubspaceBasis(QQ, 2, [{0: Fraction(1), 1: Fraction(-1)}])
    proj, free = quotient(2, rel)
    assert proj.codomain_dim == 1 and free == (1,)
    line = Matrix.column(QQ, [Fraction(1), Fraction(-1)])
    assert proj @ line == Matrix.zeros(QQ, 1, 1)
    assert_quotient_of(proj, free, rel)


def test_quotient_kernel_is_relations(rng):
    for _ in range(5):
        vecs = [sparse_rows(rand_matrix(rng, QQ, 1, 6))[0] for _ in range(3)]
        rel = SubspaceBasis(QQ, 6, vecs)
        proj, free = quotient(6, rel)
        assert_quotient_of(proj, free, rel)
        assert kernel_of(proj) == rel
        assert proj.codomain_dim == 6 - rel.dim


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_quotient_rows_span_the_kernel(rng, field):
    """The rows of ``quotient``'s projection are the kernel vectors of the
    relation echelon, so their RREF is ``kernel_basis`` of the relations:
    ``coend`` reads Nat(F, G) off the projection of Nat^∨(F, G) this way."""
    systems = relation_shaped(field, rng) + [Matrix.zeros(field, 0, 5)]
    systems += [rand_sparse_matrix(rng, field, rows, cols, 0.3, denom=True)
                for rows, cols in [(3, 8), (8, 3), (6, 6), (12, 9)]]
    for m in systems:
        rows = sparse_rows(m)
        proj, _ = quotient(m.cols, SubspaceBasis(field, m.cols, rows))
        assert (SubspaceBasis(field, m.cols, proj.sparse_rows())
                == kernel_basis(rows, field, m.cols))


def test_solve_and_image():
    a = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    x = solve_matrix(a, Matrix.from_ints(QQ, [[5], [11]]))
    assert a @ x == Matrix.from_ints(QQ, [[5], [11]])
    assert solve_matrix(Matrix.from_ints(QQ, [[1, 1], [1, 1]]),
                        Matrix.from_ints(QQ, [[0], [1]])) is None


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_solve_matrix_matches_column_oracle(rng, field):
    cases = [(Matrix.zeros(field, 0, 3), Matrix.zeros(field, 0, 2)),
             (Matrix.zeros(field, 2, 0), Matrix.zeros(field, 2, 1)),
             (Matrix.zeros(field, 2, 0), Matrix.from_ints(field, [[0], [1]])),
             (Matrix.identity(field, 3), Matrix.zeros(field, 3, 0))]
    for _ in range(3):
        # invertible, singular (consistent or not), and d×1 with d = 2
        a = rand_invertible(rng, field, 4)
        cases.append((a, rand_matrix(rng, field, 4, 3, denom=True)))
        s = rand_matrix(rng, field, 4, 2, denom=True) @ rand_matrix(rng, field, 2, 5)
        cases.append((s, s @ rand_matrix(rng, field, 5, 3)))
        cases.append((s, rand_matrix(rng, field, 4, 2, denom=True)))
        d = rand_matrix(rng, field, 2, 1, denom=True)
        cases.append((d, d @ rand_matrix(rng, field, 1, 3)))
        cases.append((d, rand_matrix(rng, field, 2, 1)))
    solvable = set()
    for a, b in cases:
        got = solve_matrix(a, b)
        assert got == column_solve_matrix(a, b)
        if got is not None:
            assert (got.rows, got.cols) == (a.cols, b.cols)
            assert a @ got == b
        solvable.add(got is not None)
    assert solvable == {True, False}


def test_solve_matrix_rejects_row_mismatch():
    with pytest.raises(ValueError):
        solve_matrix(Matrix.identity(QQ, 2), Matrix.from_ints(QQ, [[1], [2], [3]]))
    with pytest.raises(ValueError):
        solve_matrix(Matrix.identity(QQ, 3), Matrix.from_ints(QQ, [[1], [2]]))


def test_matrix_rejects_cols_that_disagree_with_rows():
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2]], cols=3)
    assert Matrix(QQ, [[1, 2]], cols=2).cols == 2
    assert Matrix(QQ, [], cols=3).cols == 3


def test_solve_matrix_inverse():
    a = Matrix.from_ints(QQ, [[2, 1], [1, 1]])
    inv = solve_matrix(a, Matrix.identity(QQ, 2))
    assert a @ inv == Matrix.identity(QQ, 2)
    assert inverse(a) == inv
    assert inverse(Matrix.from_ints(QQ, [[1, 2], [2, 4]])) is None
    # a 1×4 matrix has a right inverse but is no isomorphism
    wide = Matrix.from_ints(QQ, [[1, 0, 0, 1]])
    assert solve_matrix(wide, Matrix.identity(QQ, 1)) is not None
    assert inverse(wide) is None
    assert inverse(Matrix.from_ints(QQ, [[1], [0]])) is None
    assert inverse(Matrix.zeros(QQ, 0, 0)) == Matrix.zeros(QQ, 0, 0)


def test_prime_field_linalg():
    f3 = GF(3)
    singular = Matrix.from_ints(f3, [[1, 2], [2, 1]])  # det = -3 = 0 mod 3
    assert rank(singular) == 1
    m = Matrix.from_ints(f3, [[1, 2], [0, 1]])
    assert rank(m) == 2
    inv = solve_matrix(m, Matrix.identity(f3, 2))
    assert m @ inv == Matrix.identity(f3, 2)


def test_degenerate_shapes():
    z = Matrix.zeros(QQ, 0, 3)
    assert z.transpose().rows == 3 and z.transpose().cols == 0
    assert rank(z) == 0
    assert kernel_of(z).dim == 3
    a = Matrix.zeros(QQ, 2, 0)
    assert (a @ z).rows == 2 and (a @ z).cols == 3
