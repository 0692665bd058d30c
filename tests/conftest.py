import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from tannakit import (FiberFunctor, Matrix, PresentedCategory, QQ,
                      endvee_coalgebra, kron, load_document, natvee, rref)
from tannakit.cli import load_fixture_text, main


FIXTURES = ["trivial", "z2_character", "z2_regular", "comatrix2",
            "z2_function", "z2_function_f2", "z2_graded", "s3_graded"]

DOCUMENT_COMMANDS = ("validate", "reconstruct", "lift", "rho-tilde", "nat",
                     "characters")


def load_fixture(name):
    return load_document(json.loads(load_fixture_text(name)))


def run_cli(argv, stdin=None):
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)`` run in-process
    with the text ``stdin`` (empty by default) as its standard input.

    A ``SystemExit`` (argparse's ``--help``) gives its code, as
    ``bench/worker.py`` maps it.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin or ""), out, err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def bare_object(dim, field=QQ):
    """One object "V" of dimension ``dim`` and no generators."""
    return PresentedCategory(["V"], []), FiberFunctor(field, {"V": dim}, {})


def bare_endvee(dim, field=QQ):
    """End^∨ of ``bare_object``: the comatrix coalgebra of K^dim."""
    cat, F = bare_object(dim, field)
    return endvee_coalgebra(natvee(cat, F, F))


@pytest.fixture
def rng():
    return random.Random(20260810)


def rand_matrix(rng, field, rows, cols, lo=-3, hi=3, denom=False):
    def entry():
        n = rng.randint(lo, hi)
        if denom and field == QQ:
            return Fraction(n, rng.randint(1, 3))
        return field.from_int(n)
    return Matrix(field, [[entry() for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


def dense_swap(field, a, b):
    """Dense commutation matrix V⊗W → W⊗V (dims a, b): e_j⊗e_k ↦ e_k⊗e_j.

    The reference that the index-map permutations of ``linalg`` are
    checked against.
    """
    out = Matrix.zeros(field, a * b, a * b)
    one = field.one()
    for j in range(a):
        for k in range(b):
            out.data[k * a + j][j * b + k] = one
    return out


def dense_rref(m):
    """Reduced row-echelon form by the dense row update over every column.

    The reference that ``linalg.rref`` is checked against; returns
    ``(echelon, pivots, rank)`` in the same form.
    """
    field = m.field
    zero = field.zero()
    data = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if data[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        inv = field.inv(data[r][c])
        data[r] = [field.mul(inv, x) for x in data[r]]
        for i in range(rows):
            if i != r and data[i][c] != zero:
                factor = data[i][c]
                data[i] = [field.sub(x, field.mul(factor, y))
                           for x, y in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return Matrix(field, data, cols=cols), tuple(pivots), len(pivots)


def dense_kernel(m):
    """Kernel vectors of m and their pivots, from ``dense_rref``: one vector
    per free column c (1 at c, −echelon[r][c] at each pivot p_r), then put
    in RREF.  The reference that ``linalg.kernel_basis`` is checked against.
    """
    field = m.field
    ech, pivots, _ = dense_rref(m)
    vectors = []
    for c in range(m.cols):
        if c in pivots:
            continue
        v = [field.zero()] * m.cols
        v[c] = field.one()
        for r, p in enumerate(pivots):
            v[p] = field.neg(ech.data[r][c])
        vectors.append(v)
    if not vectors:
        return [], ()
    ech, pivots, rank = dense_rref(Matrix(field, vectors, cols=m.cols))
    return ech.data[:rank], pivots


def column_solve_matrix(a, b):
    """One solution X of a X = b, or None, solved one column of b at a time.

    The reference that ``linalg.solve_matrix`` is checked against: column j
    is one rref of [a | b_j], with the free unknowns set to 0.
    """
    field = a.field
    out = Matrix.zeros(field, a.cols, b.cols)
    for j in range(b.cols):
        aug = Matrix(field, [row + [bx] for row, bx in
                             zip(a.data, b.select_cols([j]).entries())],
                     cols=a.cols + 1)
        ech, pivots, _ = rref(aug)
        if a.cols in pivots:
            return None
        for r, p in enumerate(pivots):
            out.data[p][j] = ech.data[r][a.cols]
    return out


def dense_comodule_maps(com1, com2):
    """Basis of { f : ρ₂∘f = (id⊗f)∘ρ₁ } from one dense system in the
    entries of f (row-major), one equation per entry of the law.

    The reference that ``tannaka.comodule_morphism_space`` is checked
    against; returns the kernel basis as d2×d1 matrices.
    """
    field = com1.field
    bd = com1.coalgebra_dim
    d1, d2 = com1.space_dim, com2.space_dim
    rows = []
    for b in range(bd):
        for r in range(d2):
            for c in range(d1):
                row = [field.zero()] * (d2 * d1)
                # (ρ₂ f)[b·d2+r, c] = Σ_k ρ₂[b·d2+r, k] f[k, c]
                for k in range(d2):
                    pos = k * d1 + c
                    row[pos] = field.add(row[pos], com2.rho.data[b * d2 + r][k])
                # −((id⊗f) ρ₁)[b·d2+r, c] = −Σ_k f[r, k] ρ₁[b·d1+k, c]
                for k in range(d1):
                    pos = r * d1 + k
                    row[pos] = field.sub(row[pos], com1.rho.data[b * d1 + k][c])
                rows.append(row)
    kernel, _ = dense_kernel(Matrix(field, rows, cols=d2 * d1))
    return [Matrix(field, [vec[r * d1:(r + 1) * d1] for r in range(d2)], cols=d1)
            for vec in kernel]


def dense_nat_space(cat, F, G):
    """Basis of Nat(F, G) from one dense system θ_{C'}∘F(f) = G(f)∘θ_C in
    the entries of the θ_C (row-major, block after block in object
    order), one equation per generator f: C → C' and entry of the square.

    The reference that ``coend.nat_space`` is checked against; returns
    the families (object ↦ G-dim × F-dim matrix) of the kernel basis.
    """
    field = F.field
    offs, total = {}, 0
    for obj in cat.objects:
        offs[obj] = total
        total += G.dim(obj) * F.dim(obj)
    rows = []
    for g in cat.generators:
        fm, gm = F.gen_matrix(g.name), G.gen_matrix(g.name)
        fd_src, fd_dst = F.dim(g.src), F.dim(g.dst)
        for a in range(G.dim(g.dst)):
            for b in range(fd_src):
                row = [field.zero()] * total
                # (θ_{C'} F(f))[a, b] = Σ_l θ_{C'}[a, l] F(f)[l, b]
                for l in range(fd_dst):
                    pos = offs[g.dst] + a * fd_dst + l
                    row[pos] = field.add(row[pos], fm.data[l][b])
                # −(G(f) θ_C)[a, b] = −Σ_k G(f)[a, k] θ_C[k, b]
                for k in range(G.dim(g.src)):
                    pos = offs[g.src] + k * fd_src + b
                    row[pos] = field.sub(row[pos], gm.data[a][k])
                rows.append(row)
    kernel, _ = dense_kernel(Matrix(field, rows, cols=total))
    return [{obj: Matrix(field, [vec[offs[obj] + r * F.dim(obj):
                                     offs[obj] + (r + 1) * F.dim(obj)]
                                 for r in range(G.dim(obj))], cols=F.dim(obj))
             for obj in cat.objects} for vec in kernel]


def relation_vectors(cat, F, G):
    """``(ambient, vectors)``: the coend relations of every generator
    f: C → C' and basis pair (i, j), as dense lists of length ``ambient``.

    Each is e_i ⊗ (row j of G(f)) in the block at C minus (column i of
    F(f)) ⊗ e_j in the block at C', written from the definition: the
    reference that ``CoendPresentation``'s relation span is checked
    against.
    """
    field = F.field
    offs, ambient = {}, 0
    for obj in cat.objects:
        offs[obj] = ambient
        ambient += F.dim(obj) * G.dim(obj)
    vectors = []
    for g in cat.generators:
        fm, gm = F.gen_matrix(g.name), G.gen_matrix(g.name)
        gd_src, gd_dst = G.dim(g.src), G.dim(g.dst)
        for i in range(F.dim(g.src)):
            for j in range(gd_dst):
                vec = [field.zero()] * ambient
                for k in range(gd_src):
                    pos = offs[g.src] + i * gd_src + k
                    vec[pos] = field.add(vec[pos], gm.data[j][k])
                for l in range(F.dim(g.dst)):
                    pos = offs[g.dst] + l * gd_dst + j
                    vec[pos] = field.sub(vec[pos], fm.data[l][i])
                vectors.append(vec)
    return ambient, vectors


def kills_relations(P, ambient_map):
    """Whether a map on the ambient sum of ``P`` vanishes on its relation span."""
    span = P.relation_span
    rels = Matrix.from_rows(P.field, span.rows, span.ambient_dim)
    return (ambient_map @ rels.transpose()
            == Matrix.zeros(P.field, ambient_map.rows, span.dim))


def scalar_text(x, p=None):
    """A rational as a document scalar over Q, or (``p``) reduced mod p."""
    if p is None:
        return str(x)
    return str(x.numerator * pow(x.denominator, p - 2, p) % p)


def cyclic_document(n, p=None, perm=None, diag=None, trivial=False):
    """Z/n acting on K^n by g = M C M^{-1}, over Q or (``p``) F_p.

    C is the shift e_i ↦ e_{i+1 mod n} and M e_i = diag[i]·e_{perm[i]}
    (the identity by default), so g is monomial with entries
    diag[i+1]/diag[i].  The document also carries B = functions on Z/n
    (Δδ_k = Σ_{a+b=k} δ_a⊗δ_b, ε = δ_0) and the coaction
    ρ(v) = Σ_h δ_h ⊗ g^h v on F(star), or with ``trivial`` the coaction
    ρ(v) = 1_B ⊗ v, whose every block is the identity: then ρ̃ has
    rank 1 and is not injective for n > 1.
    """
    perm = list(range(n)) if perm is None else perm
    diag = [1] * n if diag is None else diag

    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        g[perm[j]][perm[i]] = Fraction(diag[j], diag[i])
    rho = []
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n):
        rho.extend([[scalar_text(x, p) for x in row] for row in power])
        if not trivial:
            power = [[sum(g[i][t] * power[t][j] for t in range(n))
                      for j in range(n)] for i in range(n)]
    delta = [[str(int((a + b) % n == k)) for k in range(n)]
             for a in range(n) for b in range(n)]
    return {
        "field": "Q" if p is None else {"Fp": p},
        "objects": ["star"],
        "generators": [{"name": "g", "src": "star", "dst": "star"}],
        "relations": [[["g"] * n, {"at": "star"}]],
        "functor": {"on_objects": {"star": n},
                    "on_generators": {"g": [[scalar_text(x, p) for x in row]
                                            for row in g]}},
        "coalgebra": {"dim": n, "delta": delta,
                      "eps": [[str(int(k == 0)) for k in range(n)]]},
        "comodules": {"star": rho},
    }


# Generators on K²⊗K², basis e_a⊗e_b at index 2a + b.  SWAP is the factor
# swap; FRT_R is the R-matrix Ř of GL_q(2) at q = 2 (Faddeev, Reshetikhin &
# Takhtajan 1990); SUPER_SWAP is the signed swap on K^{1|1} with e_1 odd,
# e_a⊗e_b ↦ (−1)^{|a||b|} e_b⊗e_a (Sergeev duality).
SWAP = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
FRT_R = [[2, 0, 0, 0], [0, 0, 1, 0], [0, 1, Fraction(3, 2), 0], [0, 0, 0, 2]]
SUPER_SWAP = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]


def schur_weyl_document(k, p=None, r=SWAP):
    """A generator r on K²⊗K² acting on the tensor powers (K²)^{⊗j},
    j = 0…k, over Q or (``p``) F_p.

    The objects are V_0…V_k with F(V_j) = (K²)^{⊗j}.  On V_j the generator
    ``s<j>_<i>`` (0 ≤ i < j−1) is id⊗r⊗id on factors i and i+1.  The
    relations are the braid relation for adjacent generators, commutation
    for the others, and s² = id when r² = id: for the swap, those of S_j.
    By Schur–Weyl duality End^∨ of the swap is the degree-≤k part of
    O(M_2), of dimension Σ_j C(j+3, 3); FRT_R gives the same dimensions
    (the degree-≤k part of A(R)), and SUPER_SWAP gives Σ_j dim S^j(K^{2|2}).
    None of the three is cocommutative.
    """
    r = Matrix(QQ, [[Fraction(x) for x in row] for row in r])
    involutive = r @ r == Matrix.identity(QQ, 4)
    generators, relations, matrices = [], [], {}
    for j in range(k + 1):
        obj = "V%d" % j
        names = ["s%d_%d" % (j, i) for i in range(j - 1)]
        for i, name in enumerate(names):
            g = kron(kron(Matrix.identity(QQ, 2 ** i), r),
                     Matrix.identity(QQ, 2 ** (j - i - 2)))
            generators.append({"name": name, "src": obj, "dst": obj})
            matrices[name] = [[scalar_text(x, p) for x in row] for row in g.data]
            if involutive:
                relations.append([[name, name], {"at": obj}])
        for (i, a), (l, b) in combinations(enumerate(names), 2):
            relations.append([[a, b, a], [b, a, b]] if l == i + 1
                             else [[a, b], [b, a]])
    return {
        "field": "Q" if p is None else {"Fp": p},
        "objects": ["V%d" % j for j in range(k + 1)],
        "generators": generators,
        "relations": relations,
        "functor": {"on_objects": {"V%d" % j: 2 ** j for j in range(k + 1)},
                    "on_generators": matrices},
    }


def graded_document(objects, table, unit, p=None):
    """Vec_M over Q or (``p``) F_p for a monoid M given by its table.

    One object of dimension 1 per element of M, named in ``objects``,
    with c⊗d = ``table[(c, d)]`` and tensor unit ``unit``; every s and
    f_unit is 1, and there are no generators and no duality section.
    End^∨ is the monoid bialgebra K[M].
    """
    one = [["1"]]
    return {
        "field": "Q" if p is None else {"Fp": p},
        "objects": list(objects),
        "generators": [],
        "relations": [],
        "functor": {"on_objects": {c: 1 for c in objects},
                    "on_generators": {}},
        "tensor": {
            "unit": unit,
            "on_objects": [[c, d, cd] for (c, d), cd in table.items()],
            "s": {"%s,%s" % pair: one for pair in table},
            "f_unit": one,
        },
    }


def group_graded_document(perms, p=None):
    """Vec_G over Q or (``p``) F_p for a group G of permutations.

    ``graded_document`` on one object ``g<i>`` per permutation
    ``perms[i]``, with g⊗h = g∘h, and the dual of g is g⁻¹ with unit and
    counit the empty path at the identity.  End^∨ is the group algebra
    K[G], so its grouplike table is the Cayley table of G in object order.
    """
    perms = [tuple(g) for g in perms]
    name = {g: "g%d" % i for i, g in enumerate(perms)}
    unit = name[tuple(range(len(perms[0])))]
    table = {(name[g], name[h]): name[tuple(g[i] for i in h)]
             for g in perms for h in perms}
    objects = [name[g] for g in perms]
    doc = graded_document(objects, table, unit, p)
    doc["duality"] = {
        "dual_of": {c: next(d for d in objects if table[(c, d)] == unit)
                    for c in objects},
        "eta": {c: {"at": unit} for c in objects},
        "eps": {c: {"at": unit} for c in objects}}
    return doc


def random_z2_graded_document(rng, p=None):
    """A random document on objects I and x with x⊗x = I, both of
    dimension 1, over Q or (``p``) F_p.

    It has two or three generators, each an endomorphism of I or of x
    with a scalar in {−1, 1, 2}.  Every tensor action path is a path of
    up to two generators at the right object, most often one with the
    value that s-naturality asks for, and now and then a generator at
    the wrong object.  s is a at every pair with I and b at (x, x), with
    f_unit = 1/a most of the time, so the unit diagrams usually hold.
    Seven documents in ten carry a duality section whose unit and
    counit paths are random paths at I.
    """
    def value(path):
        return scalar_text(prod((scalars[g] for g in path), start=Fraction(1)), p)

    def random_path(at, want):
        candidates = ([[]] + [[g] for g in on[at]]
                      + [[g, h] for g in on[at] for h in on[at]])
        good = [c for c in candidates if value(c) == want]
        if rng.random() < 0.01:
            other = on["x" if at == "I" else "I"]
            if other:
                return [rng.choice(other)]
        path = rng.choice(good if good and rng.random() < 0.95 else candidates)
        return path or {"at": at}

    tensor_table = {("I", "I"): "I", ("I", "x"): "x", ("x", "I"): "x", ("x", "x"): "I"}
    scalars, on = {}, {"I": [], "x": []}
    for i in range(rng.randint(2, 3)):
        obj = rng.choice(["I", "x"])
        scalars["g%d" % i] = Fraction(rng.choice([-1, 1, 2]))
        on[obj].append("g%d" % i)
    generators = [{"name": g, "src": obj, "dst": obj} for obj in ("I", "x")
                  for g in on[obj]]
    a, b = (Fraction(rng.choice([-1, 1, 2])) for _ in range(2))
    f_unit = 1 / a if rng.random() < 0.85 else Fraction(rng.choice([-1, 1, 2]))
    actions = []
    for gen in generators:
        want = value([gen["name"]])
        for obj in ("I", "x"):
            at = tensor_table[(gen["src"], obj)]
            actions.append({"gen": gen["name"], "object": obj,
                            "gen_tensor_id": random_path(at, want),
                            "id_tensor_gen": random_path(at, want)})
    doc = {
        "field": "Q" if p is None else {"Fp": p},
        "objects": ["I", "x"],
        "generators": generators,
        "relations": [],
        "functor": {"on_objects": {"I": 1, "x": 1},
                    "on_generators": {g: [[scalar_text(x, p)]]
                                      for g, x in scalars.items()}},
        "tensor": {
            "unit": "I",
            "on_objects": [[c, d, cd] for (c, d), cd in tensor_table.items()],
            "s": {"%s,%s" % pair: [[scalar_text(b if pair == ("x", "x") else a, p)]]
                  for pair in tensor_table},
            "f_unit": [[scalar_text(f_unit, p)]],
            "on_generators": actions,
        },
    }
    if rng.random() < 0.7:
        doc["duality"] = {"dual_of": {"I": "I", "x": "x"},
                          "eta": {c: random_path("I", "1") for c in ("I", "x")},
                          "eps": {c: random_path("I", "1") for c in ("I", "x")}}
    return doc


def rand_sparse_matrix(rng, field, rows, cols, density=0.3, denom=False):
    """A random matrix with about ``density`` of its entries nonzero."""
    m = rand_matrix(rng, field, rows, cols, denom=denom)
    zero = field.zero()
    for row in m.data:
        for j in range(cols):
            if rng.random() >= density:
                row[j] = zero
    return m


def rand_unit_matrix(rng, field, rows, cols):
    """A random matrix with about two thirds of its entries 0, 1 or −1, each
    written another way than ``zero()``, ``one()`` and ``neg(one())``, and
    the rest as in ``rand_matrix``: Fraction(0, 5), Fraction(2, 2) and
    Fraction(-3, 3) over Q, and the residues of p, p + 1 and −1 over GF(p),
    where over GF(2) −1 is 1."""
    m = rand_matrix(rng, field, rows, cols, denom=True)
    if field == QQ:
        units = [Fraction(0, 5), Fraction(2, 2), Fraction(-3, 3)]
    else:
        units = [field.from_int(n) for n in (field.p, field.p + 1, -1)]
    for row in m.data:
        for j in range(cols):
            if rng.random() < 2 / 3:
                row[j] = rng.choice(units)
    return m


def dense_product(a, b):
    """a @ b as Σ_k a[i][k]·b[k][j] over every k, zeros and ones included.

    The reference that ``Matrix.__matmul__`` is checked against.
    """
    field = a.field
    out = Matrix.zeros(field, a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            total = field.zero()
            for k in range(a.cols):
                total = field.add(total, field.mul(a.data[i][k], b.data[k][j]))
            out.data[i][j] = total
    return out


def dense_kron(a, b):
    """kron(a, b) entry by entry, [i·b.rows + k][j·b.cols + l] = a[i][j]·b[k][l].

    The reference that ``linalg.kron`` is checked against.
    """
    field = a.field
    return Matrix(field, [[field.mul(a.data[i][j], b.data[k][l])
                           for j in range(a.cols) for l in range(b.cols)]
                          for i in range(a.rows) for k in range(b.rows)],
                  cols=a.cols * b.cols)


def rand_invertible(rng, field, n):
    from tannakit.linalg import inverse
    while True:
        m = rand_matrix(rng, field, n, n)
        if inverse(m) is not None:
            return m


def random_expr(rng, word, depth):
    from tannakit.moncat import AdjacentSwap, Compose, Identity, Tensor
    if depth == 0 or len(word) < 2:
        if len(word) >= 2 and rng.random() < 0.7:
            return AdjacentSwap(word, rng.randrange(len(word) - 1))
        return Identity(word)
    kind = rng.random()
    if kind < 0.45:
        a = random_expr(rng, word, depth - 1)
        b = random_expr(rng, a.codomain, depth - 1)
        return Compose(a, b)
    if kind < 0.7 and len(word) >= 2:
        cut = rng.randint(1, len(word) - 1)
        return Tensor(random_expr(rng, word[:cut], depth - 1),
                      random_expr(rng, word[cut:], depth - 1))
    if len(word) >= 2:
        return AdjacentSwap(word, rng.randrange(len(word) - 1))
    return Identity(word)


def random_expr_pair(rng, max_len=6):
    atoms = ["a", "b"]
    while True:
        word = tuple(rng.choice(atoms) for _ in range(rng.randint(1, max_len)))
        e1 = random_expr(rng, word, 3)
        e2 = random_expr(rng, word, 3)
        if e1.codomain == e2.codomain:
            return e1, e2
