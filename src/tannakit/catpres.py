"""Finitely presented categories and fiber functors into exact vector spaces.

A presentation is a finite object set, named generating morphisms, and
relations between generator paths.  A fiber functor assigns a dimension
to each object and an exact matrix to each generator; it is a functor on
the presentation exactly when every relation evaluates to a matrix
identity, which ``validate_functor`` decides.

Optional strict-tensor data (a tensor table on objects, tensor action on
generators by paths, comparison isomorphisms s and f) and duality data
(right duals with unit/counit paths) are validated the same way: every
coherence diagram becomes an exact matrix identity.  The associativity
square is checked only on triples without the unit: once f is
invertible, the unit diagrams imply the squares with the unit.  s is
checked natural in each variable, through the declared paths of g⊗id_C
and id_C⊗g; the square on two generators is the composite of two of
those.
A duality is checked by its triangle identities, which already imply
that ε is dinatural in every map.
"""

from .fields import InputError, field_from_config
from .linalg import Matrix, inverse, kron, swap_perm
from .moncat import DualPairing, snake_maps
from .report import Check, Report, check_equal


class PresentationError(InputError):
    source = "document"


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
        self._last = {obj: i for i, obj in enumerate(self.objects)}  # last index
        for i, obj in enumerate(self.objects):
            if self._last[obj] != i:
                raise PresentationError("duplicate object name %r" % obj)
        self.generators = list(generators)
        self._by_name = {}
        for g in self.generators:
            if g.name in self._by_name:
                raise PresentationError("duplicate generator name %r" % g.name)
            if not (self.has_object(g.src) and self.has_object(g.dst)):
                raise PresentationError("generator %r has unknown endpoint" % g.name)
            self._by_name[g.name] = g
        self.relations = [self._check_relation(lhs, rhs) for lhs, rhs in relations]

    def has_object(self, x) -> bool:
        """``x in objects`` by hash; an unhashable JSON list or dict is none."""
        try:
            return x in self._last
        except TypeError:
            return False

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
            if not self.has_object(at):
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
        if g.src not in F.on_objects or g.dst not in F.on_objects:
            continue
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

    def action(self, gname, obj):
        """The paths (g⊗id_C, id_C⊗g) of generator ``gname`` at ``obj``."""
        if (gname, obj) not in self.on_generators:
            raise PresentationError("tensor action of %s on %s missing" % (gname, obj))
        return self.on_generators[(gname, obj)]


def validate_tensor_data(cat, F, T: TensorData) -> Report:
    """Table laws, s-naturality, and the tensor-functor coherence diagrams."""
    report = Report()
    field = F.field
    objs = cat.objects

    for c in objs:
        report.add(Check("tensor_table_unit:%s" % c,
                         T.obj(T.unit, c) == c == T.obj(c, T.unit), "table"))
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
            inv = inverse(s) if good_shape else None
            report.add(Check("s_invertible:%s,%s" % (c, d), inv is not None,
                             "singular"))
    f = T.f_unit
    finv = (inverse(f) if f.domain_dim == 1 and f.codomain_dim == F.dim(T.unit)
            else None)
    report.add(Check("f_unit_invertible", finv is not None, "singular"))
    if not report.passed:
        return report

    # unit diagrams: s_{C,I}∘(id⊗f) = id_{FC} and s_{I,C}∘(f⊗id) = id_{FC}
    for c in objs:
        idc = Matrix.identity(field, F.dim(c))
        lhs = T.s_map(c, T.unit) @ kron(idc, f)
        report.add(check_equal("unit_diagram_right:%s" % c, lhs, idc))
        lhs = T.s_map(T.unit, c) @ kron(f, idc)
        report.add(check_equal("unit_diagram_left:%s" % c, lhs, idc))

    # associativity diagram: s_{A⊗B,C}∘(s_{A,B}⊗id) = s_{A,B⊗C}∘(id⊗s_{B,C}).
    # f is invertible here, so F(I) has dimension 1, and the unit diagrams
    # make s_{C,I} = id⊗f⁻¹ and s_{I,C} = f⁻¹⊗id: a square with the unit
    # in its triple has id⊗f⁻¹⊗id, f⁻¹⊗s_{B,C} or s_{A,B}⊗f⁻¹ on both
    # sides, so only the triples without the unit are checked
    rest = [c for c in objs if c != T.unit]
    for a in rest:
        for b in rest:
            for c in rest:
                ida = Matrix.identity(field, F.dim(a))
                idc = Matrix.identity(field, F.dim(c))
                lhs = T.s_map(T.obj(a, b), c) @ kron(T.s_map(a, b), idc)
                rhs = T.s_map(a, T.obj(b, c)) @ kron(ida, T.s_map(b, c))
                report.add(check_equal("assoc_diagram:%s,%s,%s" % (a, b, c), lhs, rhs))

    # s natural in each variable, with g⊗id_C and id_C⊗g the declared paths
    for g in cat.generators:
        fg = path_eval(cat, F, cat.path((g.name,)))
        for c in objs:
            idc = Matrix.identity(field, F.dim(c))
            gid, idg = T.action(g.name, c)
            if (gid.src, gid.dst) != (T.obj(g.src, c), T.obj(g.dst, c)):
                raise PresentationError("path for %s⊗id_%s has wrong endpoints"
                                        % (g.name, c))
            lhs = T.s_map(g.dst, c) @ kron(fg, idc)
            rhs = path_eval(cat, F, gid) @ T.s_map(g.src, c)
            report.add(check_equal("s_naturality:%s,id_%s" % (g.name, c), lhs, rhs))
            if (idg.src, idg.dst) != (T.obj(c, g.src), T.obj(c, g.dst)):
                raise PresentationError("path for id_%s⊗%s has wrong endpoints"
                                        % (c, g.name))
            lhs = T.s_map(c, g.dst) @ kron(idc, fg)
            rhs = path_eval(cat, F, idg) @ T.s_map(c, g.src)
            report.add(check_equal("s_naturality:id_%s,%s" % (c, g.name), lhs, rhs))

    # symmetry square, only when the presentation declares ψ paths
    for (c, d), psi_path in T.symmetry.items():
        if (psi_path.src, psi_path.dst) != (T.obj(c, d), T.obj(d, c)):
            raise PresentationError("symmetry path for (%s, %s) has wrong endpoints"
                                    % (c, d))
        fpsi = path_eval(cat, F, psi_path)
        lhs = fpsi @ T.s_map(c, d)
        rhs = T.s_map(d, c).select_cols(swap_perm(F.dim(c), F.dim(d)))
        report.add(check_equal("symmetry_diagram:%s,%s" % (c, d), lhs, rhs))
    return report


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
    dual = D.dual(obj)
    eta_path = D.eta[obj]
    eps_path = D.eps[obj]
    if eta_path.src != T.unit or eta_path.dst != T.obj(dual, obj):
        raise PresentationError("eta path for %r has wrong endpoints" % obj)
    if eps_path.src != T.obj(obj, dual) or eps_path.dst != T.unit:
        raise PresentationError("eps path for %r has wrong endpoints" % obj)
    s_da = T.s_map(dual, obj)
    s_ad = T.s_map(obj, dual)
    s_da_inv = inverse(s_da)
    f = T.f_unit
    f_inv = inverse(f)
    if s_da_inv is None or f_inv is None:
        raise PresentationError("comparison isos at %r are singular" % obj)
    eta_vec = s_da_inv @ path_eval(cat, F, eta_path) @ f
    eps_vec = f_inv @ path_eval(cat, F, eps_path) @ s_ad
    return eta_vec, eps_vec


def validate_duality_data(cat, F, T, D: DualityData) -> Report:
    """Triangle identities per object, each duality evaluated once.

    As a pairing the primal slot is F(C^∧) and the dual slot F(C) (eval =
    eps, coeval = eta), so the triangles are the snake identities of
    ``moncat.snake_maps``.  They imply that ε is dinatural in every map
    g: X → Y, ε_Y∘(F(g)⊗id) = ε_X∘(id⊗F(g)^∧) with F(g)^∧ the mate of F(g)
    under η_X and ε_Y, so that square is not checked.
    """
    report = Report()
    field = F.field
    for obj in cat.objects:
        if obj not in D.dual_of or obj not in D.eta or obj not in D.eps:
            report.add(Check("duality_declared:%s" % obj, False, "missing"))
            continue
        if F.dim(D.dual(obj)) != F.dim(obj):
            report.add(Check("duality_dims:%s" % obj, False, "shape"))
            continue
        eta_vec, eps_vec = duality_pairing_vec(cat, F, T, D, obj)
        snake1, snake2 = snake_maps(DualPairing(F.dim(obj), eps_vec, eta_vec))
        ident = Matrix.identity(field, F.dim(obj))
        report.add(check_equal("triangle_1:%s" % obj, snake1, ident))
        report.add(check_equal("triangle_2:%s" % obj, snake2, ident))
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


_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _typed(value, kind, what):
    """``value`` if it has the JSON type ``kind`` (a bool is no integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise PresentationError("%s must be %s, got %r"
                                % (what, _JSON_TYPES[kind], value))
    return value


def _key(section: dict, key, what):
    if key not in section:
        raise PresentationError("%s has no %r" % (what, key))
    return section[key]


def _matrix(field, raw, what) -> Matrix:
    rows = [_typed(row, list, what + " row") for row in _typed(raw, list, what)]
    if len({len(row) for row in rows}) > 1:
        raise PresentationError("%s has rows of different lengths" % what)
    return Matrix.from_strings(field, rows)


def _object_pair(key: str, what):
    parts = key.split(",")
    if len(parts) != 2:
        raise PresentationError("%s key %r is not 'C,D'" % (what, key))
    return parts[0].strip(), parts[1].strip()


def _decode_path(cat: PresentedCategory, raw) -> Path:
    if isinstance(raw, dict):
        gens = _typed(raw.get("gens", []), list, "path gens")
        return cat.path([_typed(g, str, "generator name") for g in gens],
                        at=raw.get("at"))
    if isinstance(raw, list):
        if not raw:
            raise PresentationError('empty path must be {"at": object}')
        return cat.path([_typed(g, str, "generator name") for g in raw])
    raise PresentationError("cannot decode path %r" % (raw,))


def _decode_relation(cat, raw):
    if len(_typed(raw, list, "relation")) != 2:
        raise PresentationError("relation %r does not have two sides" % (raw,))
    lhs, rhs = raw
    left = _decode_path(cat, lhs) if not _is_bare_empty(lhs) else None
    right = _decode_path(cat, rhs) if not _is_bare_empty(rhs) else None
    if left is None and right is None:
        raise PresentationError("relation with two bare empty paths is ambiguous")
    if left is None:
        left = cat.path((), at=right.src)
    if right is None:
        right = cat.path((), at=left.src)
    return cat._check_relation(left, right)


def _is_bare_empty(raw):
    return isinstance(raw, list) and not raw


def load_document(doc: dict) -> JobDocument:
    """Decode the shared JSON document schema into validated objects.

    A section or value of the wrong JSON type, a missing required key,
    ragged matrix rows, a non-integer dimension, or a tensor unit, tensor
    table entry or ``dual_of`` value that is not an object raises
    ``PresentationError``; a malformed field or scalar raises ``FieldError``.
    """
    field = field_from_config(doc.get("field", "Q"))
    objects = [_typed(o, str, "object")
               for o in _typed(doc.get("objects", []), list, "objects")]
    generators = []
    for g in _typed(doc.get("generators", []), list, "generators"):
        g = _typed(g, dict, "generator")
        generators.append(Generator(
            _typed(_key(g, "name", "generator"), str, "generator name"),
            _key(g, "src", "generator"), _key(g, "dst", "generator")))
    cat = PresentedCategory(objects, generators)
    cat.relations = [_decode_relation(cat, r)
                     for r in _typed(doc.get("relations", []), list, "relations")]

    fun = doc.get("functor")
    functor = None
    if fun is not None:
        fun = _typed(fun, dict, "functor")
        on_objects = {k: _typed(v, int, "dimension of %r" % k) for k, v
                      in _typed(fun.get("on_objects", {}), dict, "on_objects").items()}
        on_generators = {name: _matrix(field, m, "matrix of %r" % name) for name, m
                         in _typed(fun.get("on_generators", {}), dict,
                                   "on_generators").items()}
        for g in generators:    # [] also writes the 0 × d matrix into a 0-dim object
            m = on_generators.get(g.name)
            if m is not None and m.rows == 0 and on_objects.get(g.src, 0) > 0:
                on_generators[g.name] = Matrix.zeros(field, 0, on_objects[g.src])
        functor = FiberFunctor(field, on_objects, on_generators)

    tensor = None
    if "tensor" in doc:
        t = _typed(doc["tensor"], dict, "tensor")
        unit = _key(t, "unit", "tensor")
        if not cat.has_object(unit):
            raise PresentationError("tensor unit %r is not an object" % (unit,))
        table = {}
        for entry in _typed(t.get("on_objects", []), list, "tensor on_objects"):
            if len(_typed(entry, list, "tensor table entry")) != 3 \
                    or not all(map(cat.has_object, entry)):
                raise PresentationError("tensor table entry %r is not three objects"
                                        % (entry,))
            a, b, c = entry
            table[(a, b)] = c
        smaps = {_object_pair(key, "s"): _matrix(field, m, "s at %s" % key)
                 for key, m in _typed(t.get("s", {}), dict, "tensor s").items()}
        on_gens = {}
        for entry in _typed(t.get("on_generators", []), list, "tensor on_generators"):
            entry = _typed(entry, dict, "tensor action")
            key = tuple(_typed(_key(entry, k, "tensor action"), str, "tensor action " + k)
                        for k in ("gen", "object"))
            on_gens[key] = tuple(_decode_path(cat, _key(entry, k, "tensor action"))
                                 for k in ("gen_tensor_id", "id_tensor_gen"))
        symmetry = {_object_pair(key, "symmetry"): _decode_path(cat, p) for key, p
                    in _typed(t.get("symmetry", {}), dict, "tensor symmetry").items()}
        tensor = TensorData(unit, table, smaps,
                            _matrix(field, _key(t, "f_unit", "tensor"), "f_unit"),
                            on_generators=on_gens, symmetry=symmetry)

    duality = None
    if "duality" in doc:
        d = _typed(doc["duality"], dict, "duality")
        dual_of = _typed(_key(d, "dual_of", "duality"), dict, "dual_of")
        for obj, dual in dual_of.items():
            if not cat.has_object(dual):
                raise PresentationError("dual_of %r is %r, not an object" % (obj, dual))
        eta, eps = ({k: _decode_path(cat, v) for k, v
                     in _typed(d.get(key, {}), dict, key).items()}
                    for key in ("eta", "eps"))
        duality = DualityData(dual_of, eta, eps)

    coalgebra = None
    if "coalgebra" in doc:
        c = _typed(doc["coalgebra"], dict, "coalgebra")
        coalgebra = {"dim": _typed(_key(c, "dim", "coalgebra"), int, "coalgebra dim"),
                     "delta": _matrix(field, _key(c, "delta", "coalgebra"), "delta"),
                     "eps": _matrix(field, _key(c, "eps", "coalgebra"), "eps")}
        for extra in ("m", "u", "antipode"):
            if extra in c:
                coalgebra[extra] = _matrix(field, c[extra], extra)

    comodules = None
    if "comodules" in doc:
        comodules = {obj: _matrix(field, m, "comodule at %r" % obj) for obj, m
                     in _typed(doc["comodules"], dict, "comodules").items()}

    return JobDocument(field, cat, functor, tensor=tensor, duality=duality,
                       coalgebra=coalgebra, comodules=comodules)
