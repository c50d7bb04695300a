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

Each formula has one shape. A tensor chain is one Tensor of its parts, and
a run of quantifiers is one Forall of its binders. Binders are nameless: a
meaning variable is a loose index of the atom terms below its quantifier,
counting meaning binders and lambdas, and ProjVar's index counts projection
binders. Names are kept for printing, so alpha-equivalent formulas are ==.
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
    Term,
    Var,
    format_term,
    infer_type,
    normalize,
    open_bound,
    parse_term_prefix,
)
from .types import IDENT_RE, BaseType, Scanner, SimpleType, format_type


# ---------------------------------------------------------------------------
# projection references

@dataclass(frozen=True)
class ProjVar:
    """A bound projection; index 0 is the nearest projection binder."""

    index: int

    def __repr__(self):
        return f"#{self.index}"


@dataclass(frozen=True)
class ProjEigen:
    """Arbitrary projection introduced when proving a projection universal."""

    name: str
    uid: int
    index: SimpleType

    def __repr__(self):
        return f"{self.name}#{self.uid}"


@dataclass(frozen=True)
class ProjMeta:
    """Projection hole chosen during search; level gates eigen capture."""

    name: str
    uid: int
    level: int
    index: SimpleType

    def __repr__(self):
        return f"?{self.name}{self.uid}"


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


Proj = Union[SemProjectionRef, ProjVar, ProjEigen, ProjMeta, PathRef]


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
class MeaningBinder:
    name: str = field(compare=False)  # for printing only
    ty: SimpleType


@dataclass(frozen=True)
class ProjBinder:
    """Binds a projection variable; index is the meaning type it carries."""

    name: str = field(compare=False)  # for printing only
    index: SimpleType


Binder = Union[MeaningBinder, ProjBinder]


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

# The binders around a subformula, nearest first: each meaning binder as the
# variable its name reads as in term syntax, and the projection binders.
Scope = tuple[tuple[Var, ...], tuple[ProjBinder, ...]]


def _bind(binders: Sequence[Binder], scope: Scope) -> Scope:
    """The scope under a run of binders, outermost first."""
    meanings, projs = scope
    for b in binders:
        if isinstance(b, MeaningBinder):
            meanings = (Var(b.name, b.ty),) + meanings
        else:
            projs = (b,) + projs
    return meanings, projs


# ---------------------------------------------------------------------------
# structural helpers

def map_atoms(f: Formula, fn: Callable[[GlueAtom], Formula]) -> Formula:
    """Replace every atom a by fn(a), keeping the connectives and binders.

    A subformula in which fn replaces nothing comes back as the same object.
    """
    if isinstance(f, GlueAtom):
        return fn(f)
    if isinstance(f, Impl):
        left, right = map_atoms(f.left, fn), map_atoms(f.right, fn)
        return f if left is f.left and right is f.right else Impl(left, right)
    if isinstance(f, Tensor):
        parts = tuple(map_atoms(part, fn) for part in f.parts)
        return f if all(map(operator.is_, parts, f.parts)) else Tensor(parts)
    if isinstance(f, Forall):
        body = map_atoms(f.body, fn)
        return f if body is f.body else Forall(f.binders, body)
    raise TypeError(f"not a formula: {f!r}")


def normalize_meanings(f: Formula) -> Formula:
    """f with the meaning of every atom normalized; a normal f is kept."""
    def atom(a: GlueAtom) -> GlueAtom:
        meaning = normalize(a.meaning)
        return a if meaning is a.meaning else \
            GlueAtom(a.proj, meaning, a.result_type)
    return map_atoms(f, atom)


def instantiate(f: Forall, value: Union[Term, Proj]) -> Formula:
    """Open the run's first binder, substituting value for its variable."""
    binder, rest = f.binders[0], f.binders[1:]
    body = Forall(rest, f.body) if rest else f.body
    if isinstance(binder, MeaningBinder):
        if not isinstance(value, Term):
            raise TypeError("meaning binder instantiated with a projection")
        if infer_type(value) != binder.ty:
            raise AtomTypeMismatch(
                f"{binder.name} has type {format_type(binder.ty)}, got "
                f"{format_type(infer_type(value))}"
            )
        return open_formula(body, (value,), ())
    if isinstance(value, Term):
        raise TypeError("projection binder instantiated with a meaning term")
    declared = getattr(value, "index", None)
    if declared is not None and declared != binder.index:
        raise AtomTypeMismatch(
            f"{binder.name} indexes {format_type(binder.index)} resources, "
            f"got proj({format_type(declared)})"
        )
    return open_formula(body, (), (value,))


def open_formula(f: Formula, meanings: Sequence[Term],
                 projs: Sequence[Proj], m: int = 0, p: int = 0) -> Formula:
    """Open, in one pass, binders of both kinds outside f's own m and p.

    meanings[i] and projs[i] replace the variables of index i of each kind,
    0 the nearest. An atom with nothing to substitute stays the same object.
    """
    if not meanings and not projs:
        return f
    if isinstance(f, GlueAtom):
        proj = f.proj
        if isinstance(proj, ProjVar) and projs and proj.index >= p:
            i = proj.index - p
            proj = projs[i] if i < len(projs) \
                else ProjVar(proj.index - len(projs))
        meaning = open_bound(f.meaning, meanings, m)
        if proj is f.proj and meaning is f.meaning:
            return f
        return GlueAtom(proj, meaning, f.result_type)
    if isinstance(f, Impl):
        return Impl(open_formula(f.left, meanings, projs, m, p),
                    open_formula(f.right, meanings, projs, m, p))
    if isinstance(f, Tensor):
        return Tensor(tuple(open_formula(part, meanings, projs, m, p)
                            for part in f.parts))
    if isinstance(f, Forall):
        inner = sum(isinstance(b, MeaningBinder) for b in f.binders)
        return Forall(f.binders, open_formula(
            f.body, meanings, projs, m + inner, p + len(f.binders) - inner))
    raise TypeError(f"not a formula: {f!r}")


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
    is left for the search, the oracle or check_proof.
    """
    return _curry(f, ((), ()))


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
        for part in reversed(parts):
            out = Impl(part, out)
        return out
    if isinstance(f, Tensor):
        raise TensorInConclusion(
            f"tensor in conclusion position: {_fmt(f, 0, scope)}"
        )
    raise TypeError(f"not a formula: {f!r}")


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
        self.scope: Scope = ((), ())
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
            return ProjBinder(name, index)
        return MeaningBinder(name, self.type())

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
        meanings, projs = self.scope
        meaning = parse_term_prefix(self, self.sig, meanings)
        result_type = infer_type(meaning)
        if isinstance(proj, ProjVar) and proj.index < len(projs):
            binder = projs[proj.index]
            if binder.index != result_type:
                raise AtomTypeMismatch(
                    f"{binder.name} carries {format_type(binder.index)} "
                    "resources but "
                    f"{format_term(open_bound(meaning, meanings))} has type "
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
        projs = self.scope[1]
        for index, binder in enumerate(projs):
            if binder.name == name:
                return ProjVar(index)
        # reported when parsing ends, so a syntax error comes first
        self.unbound = self.unbound or name
        return ProjVar(len(projs))

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
    return _fmt(f, 0, ((), ()))


def _fmt(f: Formula, min_prec: int, scope: Scope) -> str:
    """Render f under the binders in scope.

    An atom's meaning shows the meaning variables in scope as free ones,
    whose names the term printer keeps.
    """
    if isinstance(f, GlueAtom):
        meanings, projs = scope
        return (f"{format_proj(f.proj, projs)} ~> "
                f"{format_term(open_bound(f.meaning, meanings))}")
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
    if isinstance(b, ProjBinder):
        return f"{b.name}:proj({format_type(b.index)})"
    ty_text = format_type(b.ty)
    if not isinstance(b.ty, BaseType):
        ty_text = f"({ty_text})"
    return f"{b.name}:{ty_text}"


def format_proj(p: Proj, outer: Sequence[ProjBinder] = ()) -> str:
    """outer holds the enclosing projection binders, nearest first."""
    if isinstance(p, ProjVar) and p.index < len(outer):
        return outer[p.index].name
    return p.name if isinstance(p, ProjEigen) else repr(p)
