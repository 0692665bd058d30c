"""Symmetric monoidal expression calculus over strict words of atoms.

Expressions are built from identities and adjacent symmetries ψ with
composition and tensor; equality of two expressions with the same
boundary words is decided by comparing their underlying permutations,
and can be cross-checked by exact matrix evaluation in Vec.  That oracle
composes the expression's permutation of tensor basis vectors as an index
tuple and materializes one matrix per expression, after bounding the word
dimension by ``MAX_WORD_DIM``.

Also houses dual pairings (evaluation/coevaluation), whose two snake
composites are written once in ``snake_maps`` for both ``check_triangles``
and the triangle checks of ``catpres.validate_duality_data``, and the
dual of a linear map computed through pairings.  Both are the tensor–hom
adjunction (``linalg.curry``/``uncurry``): the standard evaluation is
the identity uncurried.

Canonical text form: words are comma-separated atom names in brackets,
expressions are ``id[a,b]``, ``swap[a,b;0]``, ``(e1 ; e2)`` for
composition and ``(e1 * e2)`` for tensor.
"""

from .fields import QQ, InputError
from .linalg import (Matrix, curry, kron, kron_perm, middle_swap, perm_matrix,
                     uncurry)

Word = tuple  # tuple of atom-name strings; the empty word is the unit

MAX_WORD_DIM = 1024  # largest word dimension eval_in_vec builds a matrix for
MAX_EXPR_DEPTH = 200  # deepest parenthesis nesting parse_expr accepts


class ExprError(InputError):
    source = "coherence"


class SymExpr:
    """Base class; subclasses carry domain/codomain words."""

    domain: Word
    codomain: Word

    def __eq__(self, other):
        return isinstance(other, SymExpr) and format_expr(self) == format_expr(other)

    def __hash__(self):
        return hash(format_expr(self))

    def __repr__(self):
        return format_expr(self)


class Identity(SymExpr):
    def __init__(self, word):
        self.word = tuple(word)
        self.domain = self.word
        self.codomain = self.word


class AdjacentSwap(SymExpr):
    def __init__(self, word, pos: int):
        word = tuple(word)
        if not (0 <= pos <= len(word) - 2):
            raise ExprError("swap position %d out of range for word of length %d"
                            % (pos, len(word)))
        self.word = word
        self.pos = pos
        self.domain = word
        out = list(word)
        out[pos], out[pos + 1] = out[pos + 1], out[pos]
        self.codomain = tuple(out)


class Compose(SymExpr):
    def __init__(self, first: SymExpr, then: SymExpr):
        if first.codomain != then.domain:
            raise ExprError("composition boundary mismatch: %s vs %s"
                            % (list(first.codomain), list(then.domain)))
        self.first = first
        self.then = then
        self.domain = first.domain
        self.codomain = then.codomain


class Tensor(SymExpr):
    def __init__(self, left: SymExpr, right: SymExpr):
        self.left = left
        self.right = right
        self.domain = left.domain + right.domain
        self.codomain = left.codomain + right.codomain


def perm_of(e: SymExpr):
    """Destination map of the expression: position i ↦ perm[i].

    Identities give the identity permutation, an adjacent swap the
    transposition (i, i+1), composition the product (second applied after
    first) and tensor the block-juxtaposed permutation.
    """
    if isinstance(e, Identity):
        return tuple(range(len(e.word)))
    if isinstance(e, AdjacentSwap):
        out = list(range(len(e.word)))
        out[e.pos], out[e.pos + 1] = out[e.pos + 1], out[e.pos]
        return tuple(out)
    if isinstance(e, Compose):
        p = perm_of(e.first)
        q = perm_of(e.then)
        return tuple(q[p[i]] for i in range(len(p)))
    if isinstance(e, Tensor):
        p = perm_of(e.left)
        q = perm_of(e.right)
        n = len(p)
        return p + tuple(n + j for j in q)
    raise ExprError("not a SymExpr: %r" % (e,))


def coherence_equal(e1: SymExpr, e2: SymExpr) -> bool:
    """Decide equality of two symmetry expressions with equal boundaries.

    Two composites of ψ's, identities, ⊗ and ∘ are equal exactly when
    they realize the same permutation of the letters.
    """
    if e1.domain != e2.domain or e1.codomain != e2.codomain:
        raise ExprError("expressions do not share boundary words")
    return perm_of(e1) == perm_of(e2)


def evaluations_equal(e1: SymExpr, e2: SymExpr, dims) -> bool:
    """Whether ``eval_in_vec`` gives e1 and e2 the same matrix, read off
    their permutations of the letters.

    A letter of dimension 1 carries the one index 0 wherever it goes, so
    the matrices differ exactly when the permutations send some letter of
    dimension at least 2 to different places.  With every dimension at
    least 2 this is ``coherence_equal``.
    """
    return all(a == b for a, b, atom in zip(perm_of(e1), perm_of(e2), e1.domain)
               if dims[atom] > 1)


def eval_in_vec(e: SymExpr, dims, field=QQ) -> Matrix:
    """Exact matrix of the expression once each atom gets a dimension.

    Raises ``ExprError`` before allocating anything when an atom has no
    positive integer dimension or the word dimension exceeds
    ``MAX_WORD_DIM``.
    """
    for atom in set(e.domain) | set(e.codomain):
        if atom not in dims:
            raise ExprError("no dimension assigned to atom %r" % atom, "--dims")
        d = dims[atom]
        if not isinstance(d, int) or d < 1:
            raise ExprError("dimension of atom %r must be a positive integer, got %r"
                            % (atom, d), "--dims")
    size = 1
    for atom in e.domain:
        size *= dims[atom]
        if size > MAX_WORD_DIM:
            raise ExprError("word dimension exceeds %d" % MAX_WORD_DIM, "--dims")
    return _eval(e, dims, field)


def _word_dim(word, dims):
    d = 1
    for atom in word:
        d *= dims[atom]
    return d


def _eval(e, dims, field):
    return perm_matrix(field, _basis_perm(e, dims))


def _basis_perm(e, dims):
    """Where the expression sends each basis vector of its domain word."""
    if isinstance(e, Identity):
        return tuple(range(_word_dim(e.word, dims)))
    if isinstance(e, AdjacentSwap):
        return middle_swap(_word_dim(e.word[:e.pos], dims), dims[e.word[e.pos]],
                           dims[e.word[e.pos + 1]], _word_dim(e.word[e.pos + 2:], dims))
    if isinstance(e, Compose):
        p = _basis_perm(e.first, dims)
        q = _basis_perm(e.then, dims)
        return tuple(q[i] for i in p)
    if isinstance(e, Tensor):
        return kron_perm(_basis_perm(e.left, dims), _basis_perm(e.right, dims))
    raise ExprError("not a SymExpr: %r" % (e,))


# -- dual pairings -----------------------------------------------------


class DualPairing:
    """Evaluation V^∨⊗V → K and coevaluation K → V⊗V^∨ for a space V.

    Validity means the two snake identities hold; ``check_triangles``
    decides that exactly.
    """

    __slots__ = ("space_dim", "eval", "coeval")

    def __init__(self, space_dim: int, eval: Matrix, coeval: Matrix):
        if eval.rows != 1 or eval.cols != space_dim * space_dim:
            raise ValueError("eval must be 1 x dim^2")
        if coeval.cols != 1 or coeval.rows != space_dim * space_dim:
            raise ValueError("coeval must be dim^2 x 1")
        self.space_dim = space_dim
        self.eval = eval
        self.coeval = coeval

    @property
    def field(self):
        return self.eval.field


def standard_pairing(dim: int, field=QQ) -> DualPairing:
    """The evaluation form φ⊗v ↦ φ(v) and the coevaluation 1 ↦ Σ e_i⊗e_i^∨.

    The evaluation is the identity uncurried, and the coevaluation its
    transpose: both are the flattened identity under the index convention.
    """
    ev = uncurry(Matrix.identity(field, dim), 1, dim)
    return DualPairing(dim, ev, ev.transpose())


def snake_maps(p: DualPairing):
    """The two snake composites (id⊗eval)∘(coeval⊗id) and
    (eval⊗id)∘(id⊗coeval); a valid pairing makes both the identity."""
    ident = Matrix.identity(p.field, p.space_dim)
    return (kron(ident, p.eval) @ kron(p.coeval, ident),
            kron(p.eval, ident) @ kron(ident, p.coeval))


def check_triangles(p: DualPairing) -> bool:
    """Both snake identities as exact matrix identities."""
    ident = Matrix.identity(p.field, p.space_dim)
    return snake_maps(p) == (ident, ident)


def dual_map(f: Matrix, p_dom: DualPairing, p_cod: DualPairing) -> Matrix:
    """Dual of f: Y → X through pairings, as a map X^∨ → Y^∨.

    The composite is (eval_X ⊗ id) ∘ (id ⊗ f ⊗ id) ∘ (id ⊗ coeval_Y),
    that is uncurry(coeval_Y)^T∘f^T∘curry(eval_X); with standard pairings
    on both sides this is the transpose of f.
    """
    if p_dom.space_dim != f.codomain_dim:
        raise ValueError("p_dom must pair the codomain of f")
    if p_cod.space_dim != f.domain_dim:
        raise ValueError("p_cod must pair the domain of f")
    dx, dy = p_dom.space_dim, p_cod.space_dim
    return (uncurry(p_cod.coeval, dy, dy).transpose() @ f.transpose()
            @ curry(p_dom.eval, dx, dx))


# -- canonical text form ----------------------------------------------


def format_word(word) -> str:
    return "[" + ",".join(word) + "]"


def format_expr(e: SymExpr) -> str:
    if isinstance(e, Identity):
        return "id" + format_word(e.word)
    if isinstance(e, AdjacentSwap):
        return "swap[" + ",".join(e.word) + ";" + str(e.pos) + "]"
    if isinstance(e, Compose):
        return "(" + format_expr(e.first) + " ; " + format_expr(e.then) + ")"
    if isinstance(e, Tensor):
        return "(" + format_expr(e.left) + " * " + format_expr(e.right) + ")"
    raise ExprError("not a SymExpr: %r" % (e,))


def parse_expr(text: str) -> SymExpr:
    """Parse the canonical text form; nesting beyond ``MAX_EXPR_DEPTH``
    raises ``ExprError``, so no recursion over the result can run out."""
    expr, rest = _parse(text.strip(), 0)
    if rest.strip():
        raise ExprError("trailing input: %r" % rest)
    return expr


def _parse(text, depth):
    text = text.lstrip()
    if text.startswith("("):
        if depth == MAX_EXPR_DEPTH:
            raise ExprError("expression nests deeper than %d" % MAX_EXPR_DEPTH)
        left, rest = _parse(text[1:], depth + 1)
        rest = rest.lstrip()
        for op, node in ((";", Compose), ("*", Tensor)):
            if rest.startswith(op):
                right, rest = _parse(rest[1:], depth + 1)
                rest = rest.lstrip()
                if not rest.startswith(")"):
                    raise ExprError("expected ')'")
                return node(left, right), rest[1:]
        raise ExprError("expected ';' or '*' inside parentheses")
    if text.startswith("id["):
        body, rest = _until_bracket(text[3:])
        word = _split_word(body)
        return Identity(word), rest
    if text.startswith("swap["):
        body, rest = _until_bracket(text[5:])
        if ";" not in body:
            raise ExprError("swap needs a position: swap[w;i]")
        wordpart, pos = body.rsplit(";", 1)
        try:
            pos = int(pos)
        except ValueError:
            raise ExprError("swap position must be an integer, got %r"
                            % pos) from None
        return AdjacentSwap(_split_word(wordpart), pos), rest
    raise ExprError("cannot parse expression at: %r" % text[:30])


def _until_bracket(text):
    if "]" not in text:
        raise ExprError("unterminated '['")
    idx = text.index("]")
    return text[:idx], text[idx + 1:]


def _split_word(body):
    body = body.strip()
    if not body:
        return ()
    word = tuple(atom.strip() for atom in body.split(","))
    if "" in word:
        raise ExprError("empty atom name in word [%s]" % body)
    return word
