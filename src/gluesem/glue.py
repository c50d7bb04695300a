"""Linear-logic formulas pairing projections with meaning terms.

The atom ``g.sig ~> M`` states that the semantic projection of node g yields
meaning M. Atoms carry the type of their meaning side as an index, so the
resource expecting a proposition is distinct from the one carrying an entity.

Connectives, loosest to tightest binding:

    forall X:e, H:proj(t). BODY    quantified meanings and projections
    A -o B                         linear implication, right associative
    A * B                          multiplicative conjunction

Projection positions accept a concrete reference ``g.sig`` (facets
``g.sig.VAR`` and ``g.sig.RESTR`` address a quantifier's variable and
restriction slots), a bound projection variable ``H``, or the template forms
``^.sig`` and ``(^ SUBJ).sig`` that lexical entries use before they are
attached to a concrete node.

A projection variable is a term of sort ProjType: a Bound here, and an
Eigen or MetaVar in the prover, as a meaning variable is. So one Binder
class serves both kinds of quantifier, and its type tells them apart.

Each formula has one shape. A tensor chain is one Tensor of its parts, and
a run of quantifiers is one Forall of its binders. Binders are nameless,
with one count for both kinds: a bound projection and a meaning variable, a
loose index of the atom terms below its quantifier, each count every
quantifier binder between them and their own, and a meaning index also
counts the term's lambdas. Which binder an index names is glue's business
alone: open_formula takes one value per binder of a run, in binding order.
Names are kept for printing, so alpha-equivalent formulas are ==.
curry settles every tensor once: tensor antecedents become implications, and
any other tensor is refused there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence, Union

from .errors import (
    AtomTypeMismatch,
    GlueFormulaError,
    GlueSyntaxError,
    OpenVariable,
    TensorInConclusion,
)
from .fstructure import FACETS, SemProjectionRef
from .terms import (
    Bound,
    Eigen,
    Term,
    Var,
    _shift,
    format_term,
    infer_type,
    normalize,
    open_bound,
    parse_term_prefix,
)
from .types import (
    IDENT_RE,
    ArrowType,
    ProjType,
    Scanner,
    SimpleType,
    format_type,
)


# ---------------------------------------------------------------------------
# projection references

@dataclass(frozen=True)
class PathRef:
    """Template projection: a path from the node an entry attaches to."""

    path: tuple[str, ...]
    facet: str = "MAIN"

    def __repr__(self):
        if not self.path:
            base = "^.sig"
        else:
            base = f"(^ {' '.join(self.path)}).sig"
        if self.facet == "MAIN":
            return base
        return f"{base}.{self.facet}"


# a Bound, Eigen or MetaVar in a projection position has a ProjType
Proj = Union[SemProjectionRef, PathRef, Term]


# ---------------------------------------------------------------------------
# formulas

# a kept hash holds within one process; formulas are never pickled
def _hash_once(cls):
    """Keep each node's hash: the generated one walks the whole formula."""
    walk = cls.__hash__

    def __hash__(self):
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = walk(self)
        return cached
    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True)
class GlueAtom:
    proj: Proj
    meaning: Term
    result_type: SimpleType

    def __repr__(self):
        return format_glue(self)


@_hash_once
@dataclass(frozen=True)
class Impl:
    left: "Formula"
    right: "Formula"

    def __repr__(self):
        return format_glue(self)


@_hash_once
@dataclass(frozen=True)
class Tensor:
    """A chain of two or more operands; the first is never a tensor."""

    parts: tuple["Formula", ...]

    def __repr__(self):
        return format_glue(self)


@dataclass(frozen=True)
class Binder:
    """Binds a meaning variable, or a projection one when ty is a ProjType."""

    name: str = field(compare=False)  # for printing only
    ty: SimpleType


@_hash_once
@dataclass(frozen=True)
class Forall:
    """A run of binders, outermost first; a quantified body joins it."""

    binders: tuple[Binder, ...]
    body: "Formula"

    def __post_init__(self):
        if isinstance(self.body, Forall):
            object.__setattr__(self, "binders",
                               self.binders + self.body.binders)
            object.__setattr__(self, "body", self.body.body)

    def __repr__(self):
        return format_glue(self)


Formula = Union[GlueAtom, Impl, Tensor, Forall]

# The binders around a subformula, nearest first, as the variables they bind.
Scope = tuple[Var, ...]


def _bind(binders: Sequence[Binder], scope: Scope) -> Scope:
    """The scope under a run of binders, outermost first."""
    return tuple(Var(b.name, b.ty) for b in reversed(binders)) + scope


# ---------------------------------------------------------------------------
# structural helpers

def map_atoms(f: Formula, fn: Callable[[GlueAtom, int], Formula],
              depth: int = 0) -> Formula:
    """Replace every atom a by fn(a, number of binders crossed to reach a).

    The connectives and binders are kept, and a subformula in which fn
    replaces nothing comes back as the same object.
    """
    if isinstance(f, GlueAtom):
        return fn(f, depth)
    if isinstance(f, Impl):
        left = map_atoms(f.left, fn, depth)
        right = map_atoms(f.right, fn, depth)
        return f if left is f.left and right is f.right else Impl(left, right)
    if isinstance(f, Tensor):
        parts = tuple(map_atoms(part, fn, depth) for part in f.parts)
        return f if all(map(operator.is_, parts, f.parts)) else Tensor(parts)
    if isinstance(f, Forall):
        body = map_atoms(f.body, fn, depth + len(f.binders))
        return f if body is f.body else Forall(f.binders, body)
    raise TypeError(f"not a formula: {f!r}")


def _atom(a: GlueAtom, proj: Proj, meaning: Term) -> GlueAtom:
    """a with proj and meaning, or a itself when both are a's own."""
    same = proj is a.proj and meaning is a.meaning
    return a if same else GlueAtom(proj, meaning, a.result_type)


def normalize_meanings(f: Formula) -> Formula:
    """f with the meaning of every atom normalized; a normal f is kept."""
    return map_atoms(f, lambda a, _: _atom(a, a.proj, normalize(a.meaning)))


def instantiate(f: Forall, value: Union[Term, Proj]) -> Formula:
    """Open the run's first binder, substituting value for its variable."""
    binder, rest = f.binders[0], f.binders[1:]
    body = Forall(rest, f.body) if rest else f.body
    ty = infer_type(value) if isinstance(value, Term) else None  # a reference
    if isinstance(binder.ty, ProjType):
        if ty is not None and not isinstance(ty, ProjType):
            raise TypeError(
                "projection binder instantiated with a meaning term")
        fits = f"indexes {format_type(binder.ty.index)} resources"
    elif ty is None or isinstance(ty, ProjType):
        raise TypeError("meaning binder instantiated with a projection")
    else:
        fits = f"has type {format_type(binder.ty)}"
    if ty is not None and ty != binder.ty:
        raise AtomTypeMismatch(f"{binder.name} {fits}, got {format_type(ty)}")
    return open_formula(body, (value,))


def open_formula(f: Formula, values: Sequence[Union[Term, Proj]]) -> Formula:
    """Open, in one pass, a run of binders just outside f.

    values holds one meaning or projection per binder of the run, in binding
    order, so the last replaces index 0. An atom with nothing to substitute
    stays the same object.
    """
    n, nearest = len(values), values[::-1]

    def atom(a: GlueAtom, depth: int) -> GlueAtom:
        proj = a.proj
        if isinstance(proj, Bound) and proj.index >= depth:
            i = proj.index - depth
            proj = nearest[i] if i < n else Bound(proj.index - n, proj.ty)
        return _atom(a, proj, open_bound(a.meaning, nearest, depth))
    return map_atoms(f, atom) if n else f


def atoms(f: Formula) -> Iterator[GlueAtom]:
    """The atoms of f, left to right, found without recursion."""
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, GlueAtom):
            yield f
        elif isinstance(f, Impl):
            stack += (f.right, f.left)
        elif isinstance(f, Tensor):
            stack += reversed(f.parts)
        elif isinstance(f, Forall):
            stack.append(f.body)


# ---------------------------------------------------------------------------
# currying

def curry(f: Formula) -> Formula:
    """Rewrite tensor antecedents into nested implications.

    A * B -o C becomes A -o B -o C, in any position. No other tensor has an
    implication form: one in conclusion position raises TensorInConclusion,
    and one right under a quantifier raises GlueFormulaError. So no tensor
    is left for the search, the oracle or check_proof. A quantifier in an
    implication's conclusion moves out: A -o forall xs. B becomes
    forall xs. A -o B, as xs cannot occur in A.
    """
    return _curry(f, ())


def _curry(f: Formula, scope: Scope) -> Formula:
    """scope names the enclosing binders in messages."""
    if isinstance(f, GlueAtom):
        return f
    if isinstance(f, Forall):
        if isinstance(f.body, Tensor):
            raise GlueFormulaError(
                "a tensor under a quantifier is not supported; restructure "
                f"the formula: {_fmt(f, 0, scope)}"
            )
        return Forall(f.binders, _curry(f.body, _bind(f.binders, scope)))
    if isinstance(f, Impl):
        parts = [_curry(part, scope) for part in operands(f.left)]
        out = _curry(f.right, scope)
        binders = out.binders if isinstance(out, Forall) else ()
        if binders:  # A -o forall xs. B is forall xs. A -o B: xs not in A
            parts = [_lift(part, len(binders)) for part in parts]
            out = out.body
        for part in reversed(parts):
            out = Impl(part, out)
        return Forall(binders, out) if binders else out
    if isinstance(f, Tensor):
        raise TensorInConclusion(
            f"tensor in conclusion position: {_fmt(f, 0, scope)}"
        )
    raise TypeError(f"not a formula: {f!r}")


def _lift(f: Formula, n: int) -> Formula:
    """f under n more binders."""
    def atom(a: GlueAtom, depth: int) -> GlueAtom:
        proj = a.proj
        if isinstance(proj, Bound) and proj.index >= depth:
            proj = Bound(proj.index + n, proj.ty)
        return _atom(a, proj, _shift(a.meaning, n, depth))
    return map_atoms(f, atom)


def operands(f: Formula) -> Iterator[Formula]:
    """The operands of a nest of tensors in order, or f when not a tensor."""
    if not isinstance(f, Tensor):
        yield f
        return
    for part in f.parts:
        yield from operands(part)


# ---------------------------------------------------------------------------
# parsing

class _GlueParser(Scanner):
    syntax_error = GlueSyntaxError

    def __init__(self, text: str, signature: Mapping[str, SimpleType]):
        super().__init__(text)
        self.sig = signature
        self.scope: Scope = ()
        self.unbound = None  # the first unbound projection variable

    def at_word(self, word: str) -> bool:
        self.skip_ws()
        end = self.pos + len(word)
        if self.text[self.pos:end] != word:
            return False
        return end >= len(self.text) or not (self.text[end].isalnum()
                                             or self.text[end] == "_")

    def formula(self) -> Formula:
        if not self.at_word("forall"):
            return self.impl()
        self.pos += len("forall")
        binders = [self.binder()]
        while self.peek() == ",":
            self.pos += 1
            binders.append(self.binder())
        self.expect(".")
        outer = self.scope
        self.scope = _bind(binders, outer)
        self.deeper()
        body = self.formula()
        self.depth -= 1
        self.scope = outer
        return Forall(tuple(binders), body)

    def binder(self) -> Binder:
        name = self.ident()
        self.expect(":")
        if self.at_word("proj"):
            self.pos += len("proj")
            self.expect("(")
            index = self.type()
            self.expect(")")
            return Binder(name, ProjType(index))
        return Binder(name, self.type())

    def impl(self) -> Formula:
        left = self.tensor()
        self.skip_ws()
        if self.text.startswith("-o", self.pos):
            self.pos += 2
            self.deeper()
            left = Impl(left, self.impl())
            self.depth -= 1
        return left

    def tensor(self) -> Formula:
        first = self.unit()
        if self.peek() != "*":
            return first
        # a parenthesized tensor in first position joins the chain
        parts = list(first.parts) if isinstance(first, Tensor) else [first]
        while self.peek() == "*":
            self.pos += 1
            parts.append(self.unit())
        return Tensor(tuple(parts))

    def unit(self) -> Formula:
        # a parenthesized formula, unless this is the (^ PATH).sig form
        if self.peek() == "(":
            start = self.pos
            self.pos += 1
            if self.peek() != "^" or self.text.startswith(".", self.pos + 1):
                self.deeper()
                f = self.formula()
                self.depth -= 1
                self.expect(")")
                return f
            self.pos = start
        return self.atom()

    def atom(self) -> GlueAtom:
        proj = self.proj()
        self.expect("~>")
        scope = self.scope
        meaning = parse_term_prefix(self, self.sig, tuple(
            None if isinstance(b.ty, ProjType) else b for b in scope))
        result_type = infer_type(meaning)
        if isinstance(proj, Bound) and proj.index < len(scope):
            binder = scope[proj.index]
            if binder.ty.index != result_type:
                raise AtomTypeMismatch(
                    f"{binder.name} carries {format_type(binder.ty.index)} "
                    "resources but "
                    f"{format_term(open_bound(meaning, scope))} has type "
                    f"{format_type(result_type)}"
                )
        return GlueAtom(proj, meaning, result_type)

    def proj(self) -> Proj:
        ch = self.peek()
        if ch == "^":
            self.pos += 1
            return PathRef((), self.facet())
        if ch == "(":
            self.pos += 1
            self.expect("^")
            path = []
            while self.peek() != ")":
                path.append(self.ident())
            self.pos += 1
            return PathRef(tuple(path), self.facet())
        name = self.ident()
        if self.text.startswith(".", self.pos):
            return SemProjectionRef(name, self.facet())
        for index, binder in enumerate(self.scope):
            if isinstance(binder.ty, ProjType) and binder.name == name:
                return Bound(index, binder.ty)
        # reported when parsing ends, so a syntax error comes first
        self.unbound = self.unbound or name
        return Bound(len(self.scope), None)

    def facet(self) -> str:
        """Read .sig and an optional facet, .VAR or .RESTR."""
        self.expect(".")
        if not self.text.startswith("sig", self.pos):
            raise self.error("expected 'sig' after '.'")
        self.pos += 3
        if not self.text.startswith(".", self.pos):
            return "MAIN"
        m = IDENT_RE.match(self.text, self.pos + 1)
        if m and m.group() in FACETS:
            self.pos = m.end()
            return m.group()
        raise self.error("expected facet VAR or RESTR after '.'")


def parse_glue(text: str, signature: Mapping[str, SimpleType]) -> Formula:
    """Parse a formula and verify that it is closed and well typed."""
    parser = _GlueParser(text, signature)
    f = parser.finish(parser.formula())
    if parser.unbound is not None:
        raise OpenVariable(f"projection variable {parser.unbound} is not bound")
    return f


# ---------------------------------------------------------------------------
# printing

_PREC_FORALL = 0
_PREC_IMPL = 1
_PREC_TENSOR = 2


def format_glue(f: Formula) -> str:
    return _fmt(f, 0, ())


def _fmt(f: Formula, min_prec: int, scope: Scope) -> str:
    """Render f under the binders in scope.

    An atom's meaning shows the meaning variables in scope as free ones,
    whose names the term printer keeps.
    """
    if isinstance(f, GlueAtom):
        return (f"{format_proj(f.proj, scope)} ~> "
                f"{format_term(open_bound(f.meaning, scope))}")
    if isinstance(f, Forall):
        rendered = ", ".join(_fmt_binder(b) for b in f.binders)
        body = _fmt(f.body, _PREC_FORALL, _bind(f.binders, scope))
        text = f"forall {rendered}. {body}"
        return f"({text})" if min_prec > _PREC_FORALL else text
    if isinstance(f, Impl):
        text = (f"{_fmt(f.left, _PREC_IMPL + 1, scope)} -o "
                f"{_fmt(f.right, _PREC_IMPL, scope)}")
        return f"({text})" if min_prec > _PREC_IMPL else text
    if isinstance(f, Tensor):
        first, *rest = f.parts
        text = " * ".join([_fmt(first, _PREC_TENSOR, scope)]
                          + [_fmt(part, _PREC_TENSOR + 1, scope)
                             for part in rest])
        return f"({text})" if min_prec > _PREC_TENSOR else text
    raise TypeError(f"not a formula: {f!r}")


def _fmt_binder(b: Binder) -> str:
    ty_text = format_type(b.ty)
    if isinstance(b.ty, ArrowType):
        ty_text = f"({ty_text})"
    return f"{b.name}:{ty_text}"


def format_proj(p: Proj, outer: Scope = ()) -> str:
    """outer holds the enclosing binders, nearest first."""
    if isinstance(p, Bound):
        return outer[p.index].name if p.index < len(outer) else f"#{p.index}"
    return p.name if isinstance(p, Eigen) else repr(p)
