from fractions import Fraction

import pytest

from tannakit import (GF, AlgebraData, BialgebraData, CoalgebraData,
                      ComoduleData, Matrix, QQ, UnsupportedCoalgebraError,
                      characters, check_comodule, check_comodule_morphism,
                      convolution_group, grouplike_group, grouplikes, kron)
from tannakit import hopf
from tannakit.hopf import (HopfData, convolution,
                           convolve_functionals, enumerate_linear_maps,
                           is_grouplike)
from tannakit.report import check_equal

from conftest import bare_endvee, dense_swap, rand_matrix


def group_algebra_z2(field=QQ):
    """K[ℤ/2]: grouplike basis {x_0, x_1}, multiplication by the group law."""
    delta = Matrix.zeros(field, 4, 2)
    delta.data[0][0] = field.one()
    delta.data[3][1] = field.one()
    eps = Matrix(field, [[field.one(), field.one()]])
    m = Matrix.zeros(field, 2, 4)
    m.data[0][0] = field.one()   # x0·x0 = x0
    m.data[1][1] = field.one()   # x0·x1 = x1
    m.data[1][2] = field.one()   # x1·x0 = x1
    m.data[0][3] = field.one()   # x1·x1 = x0
    u = Matrix(field, [[field.one()], [field.zero()]])
    big = BialgebraData(CoalgebraData(2, delta, eps), AlgebraData(2, m, u))
    return HopfData(big, Matrix.identity(field, 2))


def function_coalgebra_z2(field=QQ):
    delta = Matrix.zeros(field, 4, 2)
    one = field.one()
    delta.data[0][0] = one
    delta.data[3][0] = one
    delta.data[1][1] = one
    delta.data[2][1] = one
    eps = Matrix(field, [[one, field.zero()]])
    return CoalgebraData(2, delta, eps)


def test_group_algebra_axioms():
    H = group_algebra_z2()
    assert H.checks().passed


def test_incompatible_structures_fail_delta_m():
    # on K^3 with basis x_0, x_1, x_2: the group law of ℤ/3 as the algebra
    # and its dual Δ(x_g) = Σ_{a+b=g} x_a⊗x_b as the coalgebra are each
    # valid, but in the same basis they are not a bialgebra
    n = 3
    one = QQ.one()
    delta = Matrix.zeros(QQ, n * n, n)
    m = Matrix.zeros(QQ, n, n * n)
    for a in range(n):
        for b in range(n):
            delta.data[a * n + b][(a + b) % n] = one
            m.data[(a + b) % n][a * n + b] = one
    eps = Matrix.zeros(QQ, 1, n)
    eps.data[0][0] = one
    u = Matrix.zeros(QQ, n, 1)
    u.data[0][0] = one
    coalg, alg = CoalgebraData(n, delta, eps), AlgebraData(n, m, u)
    assert coalg.checks().passed and alg.checks().passed
    report = BialgebraData(coalg, alg).checks()
    got = {c.name: c for c in report.checks}["bialgebra_delta_m"]
    ident = Matrix.identity(QQ, n)
    dense_rhs = (kron(m, m) @ kron(kron(ident, dense_swap(QQ, n, n)), ident)
                 @ kron(delta, delta))
    expected = check_equal("bialgebra_delta_m", delta @ m, dense_rhs)
    assert not got.passed and not expected.passed
    assert got.residue == expected.residue


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_algebra_laws_match_the_dense_products(rng, field):
    # a random m is not associative and a random u is no unit; the laws,
    # checked as the coalgebra laws of (mᵀ, uᵀ), must report them exactly
    # as the dense products m∘(m⊗id), m∘(id⊗m), m∘(u⊗id), m∘(id⊗u) do.
    # Entries in {−1, 0, 1} make residues ±r tie, so the entry order counts.
    n = 3
    ident = Matrix.identity(field, n)
    for _ in range(20):
        m = rand_matrix(rng, field, n, n * n, lo=-1, hi=1)
        u = rand_matrix(rng, field, n, 1, lo=-1, hi=1)
        expected = [
            check_equal("associativity", m @ kron(m, ident), m @ kron(ident, m)),
            check_equal("unit_left", m @ kron(u, ident), ident),
            check_equal("unit_right", m @ kron(ident, u), ident)]
        got = AlgebraData(n, m, u).checks().checks
        assert [c.to_json() for c in got] == [c.to_json() for c in expected]
        assert not any(c.passed for c in got)


def test_coalgebra_axiom_violation_detected():
    delta = Matrix.zeros(QQ, 4, 2)
    delta.data[0][0] = QQ.one()
    delta.data[1][1] = QQ.one()   # Δ(x1) = x0⊗x1: fails counit on the left? no —
    eps = Matrix(QQ, [[QQ.one(), QQ.one()]])
    C = CoalgebraData(2, delta, eps)
    report = C.checks()
    assert not report.passed


def test_comatrix_coalgebra_small():
    # the comatrix coalgebra is End^∨ of one object with no generators
    assert bare_endvee(1).checks().passed
    C = bare_endvee(2)
    assert C.dim == 4
    assert C.checks().passed
    assert bare_endvee(0).dim == 0


def test_comodule_over_itself():
    C = function_coalgebra_z2()
    com = ComoduleData(2, 2, C.delta)
    assert check_comodule(com, C)


def test_zero_coaction_fails_counit():
    C = function_coalgebra_z2()
    com = ComoduleData(2, 2, Matrix.zeros(QQ, 4, 2))
    assert not check_comodule(com, C)


def test_identity_is_comodule_morphism():
    C = function_coalgebra_z2()
    com = ComoduleData(2, 2, C.delta)
    assert check_comodule_morphism(Matrix.identity(QQ, 2), com, com, C)


def test_convolution_unit_law(rng):
    C = group_algebra_z2().bialgebra.coalgebra
    A = AlgebraData(2, group_algebra_z2().bialgebra.m, group_algebra_z2().bialgebra.u)
    for _ in range(10):
        f = rand_matrix(rng, QQ, 2, 2)
        unit = A.u @ C.eps
        assert convolution(f, unit, C, A) == f
        assert convolution(unit, f, C, A) == f


def test_convolution_antipode_law():
    H = group_algebra_z2()
    b = H.bialgebra
    ident = Matrix.identity(QQ, 2)
    u_eps = b.u @ b.eps
    assert convolution(ident, H.antipode, b.coalgebra, b.algebra) == u_eps
    assert convolution(H.antipode, ident, b.coalgebra, b.algebra) == u_eps


def test_convolution_scalar_case():
    one = Matrix.identity(QQ, 1)
    K, A = CoalgebraData(1, one, one), AlgebraData(1, one, one)
    f = Matrix.from_ints(QQ, [[3]])
    g = Matrix.from_ints(QQ, [[5]])
    assert convolution(f, g, K, A) == Matrix.from_ints(QQ, [[15]])


def test_grouplikes_grouplike_basis():
    H = group_algebra_z2()
    gls = grouplikes(H.bialgebra.coalgebra)
    assert gls == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_grouplikes_zero_coalgebra():
    C = CoalgebraData(0, Matrix.zeros(QQ, 0, 0), Matrix.zeros(QQ, 1, 0))
    assert grouplikes(C) == []


def test_grouplikes_comatrix_f3_vs_bruteforce():
    f3 = GF(3)
    C = bare_endvee(2, f3)
    found = grouplikes(C)

    # independent oracle: solve the quadratic system cell by cell
    def oracle():
        out = []
        for v0 in range(3):
            for v1 in range(3):
                for v2 in range(3):
                    for v3 in range(3):
                        v = [v0, v1, v2, v3]
                        # Δ(v) coefficients vs v⊗v coefficients
                        ok = True
                        for a in range(4):
                            for b in range(4):
                                lhs = sum(C.delta.data[a * 4 + b][i] * v[i]
                                          for i in range(4)) % 3
                                if lhs != (v[a] * v[b]) % 3:
                                    ok = False
                        if ok and sum(C.eps.data[0][i] * v[i] for i in range(4)) % 3 == 1:
                            out.append(v)
        return out

    assert found == oracle()
    # the dual algebra M_2(F_3) is simple, so it admits no algebra map to
    # the ground field and the comatrix coalgebra has no grouplikes
    assert found == []


def test_grouplikes_unsupported_over_q():
    C = bare_endvee(2, QQ)
    with pytest.raises(UnsupportedCoalgebraError):
        grouplikes(C)
    # the definition rejects a comatrix basis vector
    assert not is_grouplike(C, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)])


def _bruteforce_f3(dim, keep):
    """Every vector of F_3^dim, in lexicographic order, that keep accepts."""
    vecs = [[]]
    for _ in range(dim):
        vecs = [v + [x] for v in vecs for x in range(3)]
    return [v for v in vecs if keep(v)]


def test_grouplikes_and_characters_f3_vs_bruteforce():
    f3 = GF(3)
    b = group_algebra_z2(f3).bialgebra
    n = b.dim

    def apply(m, v):
        return [sum(m.data[r][i] * v[i] for i in range(len(v))) % 3
                for r in range(m.rows)]

    def is_grouplike(v):
        # Δ(v) = v⊗v and ε(v) = 1, coefficient by coefficient
        return (apply(b.delta, v) == [v[i] * v[j] % 3 for i in range(n) for j in range(n)]
                and apply(b.eps, v) == [1])

    def is_character(x):
        # x∘m = x⊗x on every pair of basis vectors, and x∘u = 1
        xm = [sum(x[r] * b.m.data[r][c] for r in range(n)) % 3 for c in range(n * n)]
        xu = sum(x[r] * b.u.data[r][0] for r in range(n)) % 3
        return xm == [x[i] * x[j] % 3 for i in range(n) for j in range(n)] and xu == 1

    assert grouplikes(b.coalgebra) == _bruteforce_f3(n, is_grouplike) == [[0, 1], [1, 0]]
    got = [chi.data[0] for chi in characters(b)]
    assert got == _bruteforce_f3(n, is_character) == [[1, 1], [1, 2]]


def test_unsupported_search_messages(monkeypatch):
    fp = group_algebra_z2(GF(3)).bialgebra
    q = group_algebra_z2(QQ).bialgebra
    comatrix = bare_endvee(2, QQ)
    monkeypatch.setattr(hopf, "ENUMERATION_BOUND", 8)
    cases = [
        (lambda: grouplikes(fp.coalgebra),
         "enumeration space 9 exceeds the bound"),
        (lambda: characters(fp),
         "enumeration space 9 exceeds the bound"),
        (lambda: characters(q),
         "value-pattern space 3^2 exceeds the bound"),
        (lambda: grouplikes(comatrix),
         "over Q only diagonal monomial comultiplications are solved"),
        (lambda: characters(BialgebraData(comatrix, AlgebraData(
            4, Matrix.zeros(QQ, 4, 16), Matrix.zeros(QQ, 4, 1)))),
         "over Q only grouplike-basis bialgebras are solved"),
    ]
    for search, message in cases:
        with pytest.raises(UnsupportedCoalgebraError) as exc:
            search()
        assert str(exc.value) == message
    # the bound is inclusive
    monkeypatch.setattr(hopf, "ENUMERATION_BOUND", 9)
    assert len(characters(q)) == 2


def test_search_over_a_large_prime_field_refuses_at_once():
    f = GF(2 ** 61 - 1)
    with pytest.raises(UnsupportedCoalgebraError) as exc:
        grouplikes(group_algebra_z2(f).bialgebra.coalgebra)
    assert str(exc.value) == "enumeration space %d exceeds the bound" % f.p ** 2


def test_group_tables_index_the_last_match():
    H = group_algebra_z2()
    x0, x1 = grouplikes(H.bialgebra.coalgebra)
    table, report = grouplike_group(H, [x0, x1, x0])
    assert table == [[2, 1, 2], [1, 2, 1], [2, 1, 2]]
    assert report.passed
    eps, sign = characters(H.bialgebra)
    assert eps == H.bialgebra.eps
    table, report = convolution_group([eps, sign, eps], H)
    assert table == [[2, 1, 2], [1, 2, 1], [2, 1, 2]]
    assert [(c.name, c.passed) for c in report.checks] == [
        ("counit_is_member", True), ("character_closure", True),
        ("antipode_gives_inverse", True)]


def test_grouplikes_linearly_independent():
    H = group_algebra_z2()
    gls = grouplikes(H.bialgebra.coalgebra)
    m = Matrix(QQ, gls)
    from tannakit import rank
    assert rank(m) == len(gls)


def test_grouplike_group_z2():
    H = group_algebra_z2()
    gls = grouplikes(H.bialgebra.coalgebra)
    table, report = grouplike_group(H, gls)
    assert report.passed
    assert table == [[0, 1], [1, 0]]


def test_characters_solved_over_q():
    H = group_algebra_z2()
    chars = characters(H.bialgebra)
    rows = sorted(tuple(c.data[0]) for c in chars)
    assert rows == [(Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1))]


def test_convolution_group_z2():
    H = group_algebra_z2()
    chars = characters(H.bialgebra)
    table, report = convolution_group(chars, H)
    assert report.passed
    # the two characters form ℤ/2 under convolution
    flat = sorted(tuple(row) for row in table)
    assert flat == [(0, 1), (1, 0)]


def test_characters_inverse_is_antipode_composition():
    H = group_algebra_z2()
    for chi in characters(H.bialgebra):
        inv = chi @ H.antipode
        assert convolve_functionals(chi, inv, H.bialgebra.coalgebra) == H.bialgebra.eps


def test_enumerate_linear_maps_count():
    f2 = GF(2)
    maps = list(enumerate_linear_maps(f2, 2, 1))
    assert len(maps) == 4
    assert len(set((tuple(tuple(r) for r in m.data)) for m in maps)) == 4
