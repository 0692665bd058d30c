"""Finitely presented categories and fiber functors into exact vector spaces.

A presentation is a finite object set, named generating morphisms, and
relations between generator paths.  A fiber functor assigns a dimension
to each object and an exact matrix to each generator; it is a functor on
the presentation exactly when every relation evaluates to a matrix
identity, which ``validate_functor`` decides.

Optional strict-tensor data (a tensor table on objects, tensor action on
generators by paths, comparison isomorphisms s and f) and duality data
(right duals with unit/counit paths) are validated the same way: every
coherence diagram becomes an exact matrix identity.
"""

from .fields import field_from_config
from .linalg import Matrix, kron, permute_cols, solve_matrix, swap_perm
from .moncat import DualPairing
from .report import Check, Report, check_equal


class PresentationError(ValueError):
    pass


class Generator:
    __slots__ = ("name", "src", "dst")

    def __init__(self, name, src, dst):
        self.name = name
        self.src = src
        self.dst = dst

    def __repr__(self):
        return "%s: %s -> %s" % (self.name, self.src, self.dst)


class Path:
    """Composable sequence of generator names; empty = identity at ``src``."""

    __slots__ = ("src", "dst", "gens")

    def __init__(self, src, dst, gens=()):
        self.src = src
        self.dst = dst
        self.gens = tuple(gens)

    def __repr__(self):
        if not self.gens:
            return "id_%s" % self.src
        return ".".join(self.gens)

    def __eq__(self, other):
        return (isinstance(other, Path) and self.src == other.src
                and self.dst == other.dst and self.gens == other.gens)


class PresentedCategory:
    def __init__(self, objects, generators, relations=()):
        self.objects = list(objects)
        self.generators = list(generators)
        self._by_name = {}
        for g in self.generators:
            if g.name in self._by_name:
                raise PresentationError("duplicate generator name %r" % g.name)
            if g.src not in self.objects or g.dst not in self.objects:
                raise PresentationError("generator %r has unknown endpoint" % g.name)
            self._by_name[g.name] = g
        self.relations = [self._check_relation(lhs, rhs) for lhs, rhs in relations]

    def generator(self, name) -> Generator:
        if name not in self._by_name:
            raise PresentationError("unknown generator %r" % name)
        return self._by_name[name]

    def path(self, gens, at=None) -> Path:
        """Build a composable path from generator names (empty needs ``at``)."""
        gens = tuple(gens)
        if not gens:
            if at is None:
                raise PresentationError("empty path needs an object")
            if at not in self.objects:
                raise PresentationError("unknown object %r" % at)
            return Path(at, at)
        src = self.generator(gens[0]).src
        here = src
        for name in gens:
            g = self.generator(name)
            if g.src != here:
                raise PresentationError("path %r is not composable at %r"
                                        % (list(gens), name))
            here = g.dst
        return Path(src, here, gens)

    def _check_relation(self, lhs: Path, rhs: Path):
        if (lhs.src, lhs.dst) != (rhs.src, rhs.dst):
            raise PresentationError("relation sides %r = %r have different endpoints"
                                    % (lhs, rhs))
        return (lhs, rhs)


class FiberFunctor:
    """Object dimensions plus one exact matrix per generator."""

    def __init__(self, field, on_objects, on_generators):
        self.field = field
        self.on_objects = dict(on_objects)
        self.on_generators = dict(on_generators)

    def dim(self, obj) -> int:
        return self.on_objects[obj]

    def gen_matrix(self, name) -> Matrix:
        return self.on_generators[name]


def path_eval(cat: PresentedCategory, F: FiberFunctor, path: Path) -> Matrix:
    """Composite of generator images in path order (identity for empty)."""
    out = Matrix.identity(F.field, F.dim(path.src))
    for name in path.gens:
        g = cat.generator(name)
        m = F.gen_matrix(name)
        if m.domain_dim != F.dim(g.src) or m.codomain_dim != F.dim(g.dst):
            raise PresentationError("matrix for %r has shape %dx%d, expected %dx%d"
                                    % (name, m.rows, m.cols,
                                       F.dim(g.dst), F.dim(g.src)))
        out = m @ out
    return out


def validate_functor(cat: PresentedCategory, F: FiberFunctor) -> Report:
    """One check per relation; a violation records both evaluated matrices."""
    report = Report()
    for obj in cat.objects:
        if obj not in F.on_objects:
            report.add(Check("object_dim:%s" % obj, False, residue="missing"))
        elif F.dim(obj) < 0:
            report.add(Check("object_dim:%s" % obj, False, residue="negative"))
    for g in cat.generators:
        m = F.on_generators.get(g.name)
        ok = (m is not None and m.domain_dim == F.dim(g.src)
              and m.codomain_dim == F.dim(g.dst))
        if not ok:
            report.add(Check("generator_shape:%s" % g.name, False, residue="shape"))
    if not report.passed:
        return report
    for idx, (lhs, rhs) in enumerate(cat.relations):
        ml = path_eval(cat, F, lhs)
        mr = path_eval(cat, F, rhs)
        name = "relation:%d:%r=%r" % (idx, lhs, rhs)
        c = check_equal(name, ml, mr)
        if not c.passed:
            c.detail = {"lhs": ml.to_strings(), "rhs": mr.to_strings()}
        report.add(c)
    if not report.checks:
        report.add(Check("functor:no_relations", True))
    return report


class TensorData:
    """Strict tensor structure on the presentation plus comparison isos.

    ``on_objects[(C, D)]`` is the object C⊗D, ``unit`` the tensor unit;
    ``on_generators[(g, C)]`` is the pair of paths realizing g⊗id_C and
    id_C⊗g; ``s[(C, D)]`` is the invertible comparison
    F(C)⊗F(D) → F(C⊗D) and ``f_unit`` the invertible K → F(unit).
    """

    def __init__(self, unit, on_objects, s, f_unit, on_generators=None,
                 symmetry=None):
        self.unit = unit
        self.on_objects = dict(on_objects)
        self.s = dict(s)
        self.f_unit = f_unit
        self.on_generators = dict(on_generators or {})
        self.symmetry = dict(symmetry or {})

    def obj(self, c, d):
        if (c, d) not in self.on_objects:
            raise PresentationError("tensor table missing (%s, %s)" % (c, d))
        return self.on_objects[(c, d)]

    def s_map(self, c, d) -> Matrix:
        if (c, d) not in self.s:
            raise PresentationError("comparison s missing at (%s, %s)" % (c, d))
        return self.s[(c, d)]

    def gen_tensor_id(self, gname, obj) -> Path:
        return self.on_generators[(gname, obj)][0]

    def id_tensor_gen(self, gname, obj) -> Path:
        return self.on_generators[(gname, obj)][1]


def tensor_generator_eval(cat, F, T: TensorData, g: Generator, h: Generator) -> Matrix:
    """F(g⊗h) computed from the tensor action paths: (id_{g.dst}⊗h)∘(g⊗id_{h.src})."""
    first = T.gen_tensor_id(g.name, h.src)
    second = T.id_tensor_gen(h.name, g.dst)
    if first.src != T.obj(g.src, h.src) or first.dst != T.obj(g.dst, h.src):
        raise PresentationError("path for %s⊗id_%s has wrong endpoints" % (g.name, h.src))
    if second.src != T.obj(g.dst, h.src) or second.dst != T.obj(g.dst, h.dst):
        raise PresentationError("path for id_%s⊗%s has wrong endpoints" % (g.dst, h.name))
    return path_eval(cat, F, second) @ path_eval(cat, F, first)


def validate_tensor_data(cat, F, T: TensorData) -> Report:
    """Table laws, s-naturality, and the tensor-functor coherence diagrams."""
    report = Report()
    field = F.field
    objs = cat.objects

    for c in objs:
        ok_l = T.obj(T.unit, c) == c
        ok_r = T.obj(c, T.unit) == c
        report.add(Check("tensor_table_unit:%s" % c, ok_l and ok_r,
                         residue="0" if ok_l and ok_r else "table"))
    assoc_ok = True
    for a in objs:
        for b in objs:
            for c in objs:
                if T.obj(T.obj(a, b), c) != T.obj(a, T.obj(b, c)):
                    assoc_ok = False
                    report.add(Check("tensor_table_assoc:%s,%s,%s" % (a, b, c),
                                     False, residue="table"))
    if assoc_ok:
        report.add(Check("tensor_table_assoc", True))

    # s must be invertible with the right shape everywhere
    for c in objs:
        for d in objs:
            s = T.s_map(c, d)
            good_shape = (s.domain_dim == F.dim(c) * F.dim(d)
                          and s.codomain_dim == F.dim(T.obj(c, d)))
            inv = solve_matrix(s, Matrix.identity(field, s.rows)) if good_shape else None
            report.add(Check("s_invertible:%s,%s" % (c, d),
                             good_shape and inv is not None,
                             residue="0" if good_shape and inv is not None else "singular"))
    f = T.f_unit
    finv = solve_matrix(f, Matrix.identity(field, f.rows)) \
        if f.domain_dim == 1 and f.codomain_dim == F.dim(T.unit) else None
    report.add(Check("f_unit_invertible", finv is not None,
                     residue="0" if finv is not None else "singular"))
    if not report.passed:
        return report

    # unit diagrams: s_{C,I}∘(id⊗f) = id_{FC} and s_{I,C}∘(f⊗id) = id_{FC}
    for c in objs:
        idc = Matrix.identity(field, F.dim(c))
        lhs = T.s_map(c, T.unit) @ kron(idc, f)
        report.add(check_equal("unit_diagram_right:%s" % c, lhs, idc))
        lhs = T.s_map(T.unit, c) @ kron(f, idc)
        report.add(check_equal("unit_diagram_left:%s" % c, lhs, idc))

    # associativity diagram: s_{A⊗B,C}∘(s_{A,B}⊗id) = s_{A,B⊗C}∘(id⊗s_{B,C})
    for a in objs:
        for b in objs:
            for c in objs:
                ida = Matrix.identity(field, F.dim(a))
                idc = Matrix.identity(field, F.dim(c))
                lhs = T.s_map(T.obj(a, b), c) @ kron(T.s_map(a, b), idc)
                rhs = T.s_map(a, T.obj(b, c)) @ kron(ida, T.s_map(b, c))
                report.add(check_equal("assoc_diagram:%s,%s,%s" % (a, b, c), lhs, rhs))

    # s-naturality on generator pairs, including identity partners
    pairs = []
    for g in cat.generators:
        for obj in objs:
            pairs.append((g, _Id(obj)))
            pairs.append((_Id(obj), g))
        for h in cat.generators:
            pairs.append((g, h))
    for g, h in pairs:
        fg = _gen_or_id_matrix(cat, F, g)
        fh = _gen_or_id_matrix(cat, F, h)
        fgh = _tensor_eval_or_id(cat, F, T, g, h)
        lhs = T.s_map(g.dst, h.dst) @ kron(fg, fh)
        rhs = fgh @ T.s_map(g.src, h.src)
        report.add(check_equal("s_naturality:%s,%s" % (g.name, h.name), lhs, rhs))

    # symmetry square, only when the presentation declares ψ paths
    for (c, d), psi_path in T.symmetry.items():
        fpsi = path_eval(cat, F, psi_path)
        lhs = fpsi @ T.s_map(c, d)
        rhs = permute_cols(T.s_map(d, c), swap_perm(F.dim(c), F.dim(d)))
        report.add(check_equal("symmetry_diagram:%s,%s" % (c, d), lhs, rhs))
    return report


class _Id:
    """Stand-in for id_C in naturality pair enumeration."""

    def __init__(self, obj):
        self.name = "id_%s" % obj
        self.src = obj
        self.dst = obj
        self.obj = obj


def _gen_or_id_matrix(cat, F, g):
    if isinstance(g, _Id):
        return Matrix.identity(F.field, F.dim(g.obj))
    return F.gen_matrix(g.name)


def _tensor_eval_or_id(cat, F, T, g, h):
    if isinstance(g, _Id) and isinstance(h, _Id):
        return Matrix.identity(F.field, F.dim(T.obj(g.obj, h.obj)))
    if isinstance(g, _Id):
        return path_eval(cat, F, T.id_tensor_gen(h.name, g.obj))
    if isinstance(h, _Id):
        return path_eval(cat, F, T.gen_tensor_id(g.name, h.obj))
    return tensor_generator_eval(cat, F, T, g, h)


class DualityData:
    """Right duals: C ↦ C^∧ with unit/counit paths inside the presentation.

    ``eta[C]`` realizes η: I → C^∧⊗C and ``eps[C]`` realizes ε: C⊗C^∧ → I.
    """

    def __init__(self, dual_of, eta, eps):
        self.dual_of = dict(dual_of)
        self.eta = dict(eta)
        self.eps = dict(eps)

    def dual(self, obj):
        if obj not in self.dual_of:
            raise PresentationError("no dual declared for %r" % obj)
        return self.dual_of[obj]


def duality_pairing_vec(cat, F, T: TensorData, D: DualityData, obj):
    """Evaluated unit/counit of the duality at ``obj`` as Vec-level maps.

    Returns (eta_vec, eps_vec) with eta_vec: K → F(C^∧)⊗F(C) and
    eps_vec: F(C)⊗F(C^∧) → K, obtained from the paths by conjugating
    with the comparison isos s and f.
    """
    field = F.field
    dual = D.dual(obj)
    eta_path = D.eta[obj]
    eps_path = D.eps[obj]
    if eta_path.src != T.unit or eta_path.dst != T.obj(dual, obj):
        raise PresentationError("eta path for %r has wrong endpoints" % obj)
    if eps_path.src != T.obj(obj, dual) or eps_path.dst != T.unit:
        raise PresentationError("eps path for %r has wrong endpoints" % obj)
    s_da = T.s_map(dual, obj)
    s_ad = T.s_map(obj, dual)
    s_da_inv = solve_matrix(s_da, Matrix.identity(field, s_da.rows))
    f = T.f_unit
    f_inv = solve_matrix(f, Matrix.identity(field, f.rows))
    if s_da_inv is None or f_inv is None:
        raise PresentationError("comparison isos at %r are singular" % obj)
    eta_vec = s_da_inv @ path_eval(cat, F, eta_path) @ f
    eps_vec = f_inv @ path_eval(cat, F, eps_path) @ s_ad
    return eta_vec, eps_vec


def duality_as_pairing(cat, F, T, D, obj) -> DualPairing:
    """Package the evaluated duality at ``obj`` as a DualPairing.

    The primal slot is F(C^∧) and the dual slot F(C): eval = eps_vec,
    coeval = eta_vec, so the snake identities are exactly Def-style
    triangles of the right duality.
    """
    eta_vec, eps_vec = duality_pairing_vec(cat, F, T, D, obj)
    n = F.dim(obj)
    if F.dim(D.dual(obj)) != n:
        raise PresentationError("dual of %r has a different dimension" % obj)
    return DualPairing(n, eps_vec, eta_vec)


def dual_generator_map(cat, F, T, D, g: Generator) -> Matrix:
    """Image of a generator under the right-duality functor: F(Y^∧) → F(X^∧).

    For g: X → Y this is (id⊗eps_Y)∘(id⊗F(g)⊗id)∘(eta_X⊗id).
    """
    field = F.field
    eta_x, _ = duality_pairing_vec(cat, F, T, D, g.src)
    _, eps_y = duality_pairing_vec(cat, F, T, D, g.dst)
    fx_dual = F.dim(D.dual(g.src))
    fy_dual = F.dim(D.dual(g.dst))
    id_xd = Matrix.identity(field, fx_dual)
    id_yd = Matrix.identity(field, fy_dual)
    step1 = kron(eta_x, id_yd)                       # F(Y^∧) → F(X^∧)⊗F(X)⊗F(Y^∧)
    step2 = kron(kron(id_xd, F.gen_matrix(g.name)), id_yd)
    step3 = kron(id_xd, eps_y)                       # → F(X^∧)
    return step3 @ step2 @ step1


def validate_duality_data(cat, F, T, D: DualityData) -> Report:
    """Triangle identities per object plus the duality square per generator."""
    report = Report()
    field = F.field
    for obj in cat.objects:
        if obj not in D.dual_of or obj not in D.eta or obj not in D.eps:
            report.add(Check("duality_declared:%s" % obj, False,
                             residue="missing"))
            continue
        dual = D.dual(obj)
        if F.dim(dual) != F.dim(obj):
            report.add(Check("duality_dims:%s" % obj, False, residue="shape"))
            continue
        p = duality_as_pairing(cat, F, T, D, obj)
        ident = Matrix.identity(field, p.space_dim)
        tri1 = kron(ident, p.eval) @ kron(p.coeval, ident)
        tri2 = kron(p.eval, ident) @ kron(ident, p.coeval)
        report.add(check_equal("triangle_1:%s" % obj, tri1, ident))
        report.add(check_equal("triangle_2:%s" % obj, tri2, ident))
    if not report.passed:
        return report
    # ε is dinatural in the generator: eps_Y∘(F(g)⊗id) = eps_X∘(id⊗F(g)^∧)
    for g in cat.generators:
        _, eps_x = duality_pairing_vec(cat, F, T, D, g.src)
        _, eps_y = duality_pairing_vec(cat, F, T, D, g.dst)
        gdual = dual_generator_map(cat, F, T, D, g)
        id_x = Matrix.identity(field, F.dim(g.src))
        id_yd = Matrix.identity(field, F.dim(D.dual(g.dst)))
        lhs = eps_y @ kron(F.gen_matrix(g.name), id_yd)
        rhs = eps_x @ kron(id_x, gdual)
        report.add(check_equal("duality_square:%s" % g.name, lhs, rhs))
    return report


# -- JSON document codec ------------------------------------------------


class JobDocument:
    """Parsed input: field, category, functor, optional structure sections."""

    def __init__(self, field, category, functor, tensor=None, duality=None,
                 coalgebra=None, comodules=None):
        self.field = field
        self.category = category
        self.functor = functor
        self.tensor = tensor
        self.duality = duality
        self.coalgebra = coalgebra
        self.comodules = comodules


def _decode_path(cat: PresentedCategory, raw) -> Path:
    if isinstance(raw, dict):
        return cat.path(raw.get("gens", ()), at=raw.get("at"))
    if isinstance(raw, list):
        if not raw:
            raise PresentationError('empty path must be {"at": object}')
        return cat.path(raw)
    raise PresentationError("cannot decode path %r" % (raw,))


def _decode_relation(cat, raw):
    lhs, rhs = raw
    left = _decode_path(cat, lhs) if not _is_bare_empty(lhs) else None
    right = _decode_path(cat, rhs) if not _is_bare_empty(rhs) else None
    if left is None and right is None:
        raise PresentationError("relation with two bare empty paths is ambiguous")
    if left is None:
        left = cat.path((), at=right.src)
    if right is None:
        right = cat.path((), at=left.src)
    return left, right


def _is_bare_empty(raw):
    return isinstance(raw, list) and not raw


def load_document(doc: dict) -> JobDocument:
    """Decode the shared JSON document schema into validated objects."""
    field = field_from_config(doc.get("field", "Q"))
    cat = PresentedCategory(
        doc.get("objects", []),
        [Generator(g["name"], g["src"], g["dst"]) for g in doc.get("generators", [])],
    )
    cat.relations = [_decode_relation(cat, r) for r in doc.get("relations", [])]

    fun = doc.get("functor")
    functor = None
    if fun is not None:
        on_objects = {k: int(v) for k, v in fun.get("on_objects", {}).items()}
        on_generators = {name: Matrix.from_strings(field, m)
                         for name, m in fun.get("on_generators", {}).items()}
        functor = FiberFunctor(field, on_objects, on_generators)

    tensor = None
    if "tensor" in doc:
        t = doc["tensor"]
        table = {}
        for entry in t.get("on_objects", []):
            a, b, c = entry
            table[(a, b)] = c
        smaps = {}
        for key, m in t.get("s", {}).items():
            a, b = key.split(",")
            smaps[(a.strip(), b.strip())] = Matrix.from_strings(field, m)
        on_gens = {}
        for entry in t.get("on_generators", []):
            key = (entry["gen"], entry["object"])
            on_gens[key] = (_decode_path(cat, entry["gen_tensor_id"]),
                            _decode_path(cat, entry["id_tensor_gen"]))
        symmetry = {}
        for key, p in t.get("symmetry", {}).items():
            a, b = key.split(",")
            symmetry[(a.strip(), b.strip())] = _decode_path(cat, p)
        tensor = TensorData(t["unit"], table, smaps,
                            Matrix.from_strings(field, t["f_unit"]),
                            on_generators=on_gens, symmetry=symmetry)

    duality = None
    if "duality" in doc:
        d = doc["duality"]
        duality = DualityData(
            d["dual_of"],
            {k: _decode_path(cat, v) for k, v in d.get("eta", {}).items()},
            {k: _decode_path(cat, v) for k, v in d.get("eps", {}).items()},
        )

    coalgebra = None
    if "coalgebra" in doc:
        c = doc["coalgebra"]
        coalgebra = {
            "dim": int(c["dim"]),
            "delta": Matrix.from_strings(field, c["delta"]),
            "eps": Matrix.from_strings(field, c["eps"]),
        }
        for extra in ("m", "u", "antipode"):
            if extra in c:
                coalgebra[extra] = Matrix.from_strings(field, c[extra])

    comodules = None
    if "comodules" in doc:
        comodules = {obj: Matrix.from_strings(field, m)
                     for obj, m in doc["comodules"].items()}

    return JobDocument(field, cat, functor, tensor=tensor, duality=duality,
                       coalgebra=coalgebra, comodules=comodules)
