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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Union

from .errors import (
    AtomTypeMismatch,
    GlueSyntaxError,
    OpenVariable,
    TensorInConclusion,
)
from .fstructure import FACETS, SemProjectionRef
from .terms import (
    Term,
    Var,
    canonical_key,
    format_term,
    infer_type,
    normalize,
    parse_term_prefix,
    subst_map,
    typecheck,
)
from .types import IDENT_RE, BaseType, Scanner, SimpleType, format_type
from .errors import UnboundVariable


# ---------------------------------------------------------------------------
# projection references

@dataclass(frozen=True)
class ProjVar:
    """Occurrence of a projection variable bound by a quantifier."""

    name: str

    def __repr__(self):
        return self.name


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

@dataclass(frozen=True)
class GlueAtom:
    proj: Proj
    meaning: Term
    result_type: SimpleType

    def __repr__(self):
        return format_glue(self)


@dataclass(frozen=True)
class Impl:
    left: "Formula"
    right: "Formula"

    def __repr__(self):
        return format_glue(self)


@dataclass(frozen=True)
class Tensor:
    left: "Formula"
    right: "Formula"

    def __repr__(self):
        return format_glue(self)


@dataclass(frozen=True)
class MeaningBinder:
    name: str
    ty: SimpleType


@dataclass(frozen=True)
class ProjBinder:
    """Binds a projection variable; index is the meaning type it carries."""

    name: str
    index: SimpleType


Binder = Union[MeaningBinder, ProjBinder]


@dataclass(frozen=True)
class Forall:
    binder: Binder
    body: "Formula"

    def __repr__(self):
        return format_glue(self)


Formula = Union[GlueAtom, Impl, Tensor, Forall]


# ---------------------------------------------------------------------------
# structural helpers

def map_atoms(f: Formula, fn: Callable[[GlueAtom], Formula]) -> Formula:
    """Replace every atom a by fn(a), keeping the connectives and binders."""
    if isinstance(f, GlueAtom):
        return fn(f)
    if isinstance(f, Impl):
        return Impl(map_atoms(f.left, fn), map_atoms(f.right, fn))
    if isinstance(f, Tensor):
        return Tensor(map_atoms(f.left, fn), map_atoms(f.right, fn))
    if isinstance(f, Forall):
        return Forall(f.binder, map_atoms(f.body, fn))
    raise TypeError(f"not a formula: {f!r}")


def normalize_meanings(f: Formula) -> Formula:
    """f with the meaning of every atom normalized."""
    return map_atoms(f, lambda a: GlueAtom(a.proj, normalize(a.meaning),
                                           a.result_type))


def instantiate(f: Forall, value: Union[Term, Proj]) -> Formula:
    """Open one quantifier, substituting value for the bound variable."""
    binder = f.binder
    if isinstance(binder, MeaningBinder):
        if not isinstance(value, Term):
            raise TypeError("meaning binder instantiated with a projection")
        if infer_type(value) != binder.ty:
            raise AtomTypeMismatch(
                f"{binder.name} has type {format_type(binder.ty)}, got "
                f"{format_type(infer_type(value))}"
            )
        return open_formula(f.body, {binder.name: value}, {})
    if isinstance(value, Term):
        raise TypeError("projection binder instantiated with a meaning term")
    declared = getattr(value, "index", None)
    if declared is not None and declared != binder.index:
        raise AtomTypeMismatch(
            f"{binder.name} indexes {format_type(binder.index)} resources, "
            f"got proj({format_type(declared)})"
        )
    return open_formula(f.body, {}, {binder.name: value})


def open_formula(f: Formula, meanings: Mapping[str, Term],
                 projs: Mapping[str, Proj]) -> Formula:
    """Substitute, in one pass, for the free variables the mappings name.

    Only a quantifier of the same kind and name shadows a variable. An atom
    with nothing to substitute comes back as the same object.
    """
    if not meanings and not projs:
        return f
    if isinstance(f, GlueAtom):
        proj = f.proj
        if isinstance(proj, ProjVar):
            proj = projs.get(proj.name, proj)
        meaning = subst_map(f.meaning, meanings)
        if proj is f.proj and meaning is f.meaning:
            return f
        return GlueAtom(proj, meaning, f.result_type)
    if isinstance(f, Impl):
        return Impl(open_formula(f.left, meanings, projs),
                    open_formula(f.right, meanings, projs))
    if isinstance(f, Tensor):
        return _map_parts(f, lambda part: open_formula(part, meanings, projs))
    if isinstance(f, Forall):
        name = f.binder.name
        if isinstance(f.binder, MeaningBinder) and name in meanings:
            meanings = {k: v for k, v in meanings.items() if k != name}
        elif isinstance(f.binder, ProjBinder) and name in projs:
            projs = {k: v for k, v in projs.items() if k != name}
        return Forall(f.binder, open_formula(f.body, meanings, projs))
    raise TypeError(f"not a formula: {f!r}")


def atoms(f: Formula) -> Iterator[GlueAtom]:
    """The atoms of f, left to right, found without recursion."""
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, GlueAtom):
            yield f
        elif isinstance(f, (Impl, Tensor)):
            stack += (f.right, f.left)
        elif isinstance(f, Forall):
            stack.append(f.body)


# ---------------------------------------------------------------------------
# wellformedness

def check_wellformed(f: Formula, signature: Mapping[str, SimpleType]) -> None:
    """Validate a source-level formula.

    Every meaning variable and projection variable must be bound by an
    enclosing quantifier (constants come from the signature); each atom's
    meaning must typecheck at exactly the atom's declared index.
    """
    _check(f, signature, {})


def _check(f: Formula, env: Mapping[str, SimpleType],
           proj_env: Mapping[str, SimpleType]) -> None:
    if isinstance(f, GlueAtom):
        if isinstance(f.proj, ProjVar):
            index = proj_env.get(f.proj.name)
            if index is None:
                raise OpenVariable(
                    f"projection variable {f.proj.name} is not bound"
                )
            if index != f.result_type:
                raise AtomTypeMismatch(
                    f"{f.proj.name} carries {format_type(index)} resources "
                    f"but the atom is indexed {format_type(f.result_type)}"
                )
        try:
            ty = typecheck(f.meaning, env)
        except UnboundVariable as exc:
            raise OpenVariable(str(exc)) from None
        if ty != f.result_type:
            raise AtomTypeMismatch(
                f"meaning {format_term(f.meaning)} has type {format_type(ty)} "
                f"but the atom is indexed {format_type(f.result_type)}"
            )
        return
    if isinstance(f, Impl):
        _check(f.left, env, proj_env)
        _check(f.right, env, proj_env)
        return
    if isinstance(f, Tensor):
        for part in _tensor_parts(f):
            _check(part, env, proj_env)
        return
    if isinstance(f, Forall):
        if isinstance(f.binder, MeaningBinder):
            _check(f.body, {**env, f.binder.name: f.binder.ty}, proj_env)
        else:
            _check(f.body, env, {**proj_env, f.binder.name: f.binder.index})
        return
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# currying and polarity

def curry(f: Formula) -> Formula:
    """Rewrite tensor antecedents into nested implications.

    A * B -o C becomes A -o B -o C, recursively and on both sides of every
    implication. A tensor in conclusion position has no implication form, so
    it is rejected.
    """
    return _curry(f, True)


def _curry(f: Formula, conclusion: bool) -> Formula:
    if isinstance(f, GlueAtom):
        return f
    if isinstance(f, Forall):
        return Forall(f.binder, _curry(f.body, conclusion))
    if isinstance(f, Impl):
        left = _curry(f.left, not conclusion)
        right = _curry(f.right, conclusion)
        return _peel(left, right)
    if isinstance(f, Tensor):
        if conclusion:
            raise TensorInConclusion(
                f"tensor in conclusion position: {format_glue(f)}"
            )
        return _map_parts(f, lambda part: _curry(part, conclusion))
    raise TypeError(f"not a formula: {f!r}")


def _peel(antecedent: Formula, conclusion: Formula) -> Formula:
    while isinstance(antecedent, Tensor):
        conclusion = _peel(antecedent.right, conclusion)
        antecedent = antecedent.left
    return Impl(antecedent, conclusion)


def _tensor_parts(f: Formula) -> list[Formula]:
    """The operands of a left-nested tensor chain, left to right.

    The chain is walked in a loop, so a wide one cannot exhaust the stack.
    """
    parts = []
    while isinstance(f, Tensor):
        parts.append(f.right)
        f = f.left
    parts.append(f)
    return parts[::-1]


def _map_parts(f: Tensor, fn: Callable[[Formula], Formula]) -> Formula:
    """The left-nested tensor chain f with fn applied to each operand."""
    first, *rest = _tensor_parts(f)
    out = fn(first)
    for part in rest:
        out = Tensor(out, fn(part))
    return out


def polarity_roles(f: Formula) -> list[tuple[str, str, str]]:
    """Role of each quantified variable when the formula is used as a premise.

    Premise-side quantifiers are instantiated by the prover (existential
    role); each descent into an implication antecedent flips the side, and a
    goal-side quantifier introduces an arbitrary fresh object (eigen role).
    Returned in binding order as (name, meaning|projection, role).
    """
    roles: list[tuple[str, str, str]] = []

    def walk(g: Formula, premise_side: bool) -> None:
        if isinstance(g, Forall):
            kind = ("meaning" if isinstance(g.binder, MeaningBinder)
                    else "projection")
            role = "existential" if premise_side else "eigen"
            roles.append((g.binder.name, kind, role))
            walk(g.body, premise_side)
        elif isinstance(g, Impl):
            walk(g.left, not premise_side)
            walk(g.right, premise_side)
        elif isinstance(g, Tensor):
            walk(g.left, premise_side)
            walk(g.right, premise_side)

    walk(f, True)
    return roles


# ---------------------------------------------------------------------------
# alpha comparison

def formula_key(f: Formula) -> str:
    """Canonical rendering, invariant under renaming of bound variables."""
    return _fkey(f, {}, {}, [0])


def _fkey(f: Formula, m_env: dict[str, Var], p_env: dict[str, ProjVar],
          counter: list[int]) -> str:
    if isinstance(f, GlueAtom):
        meaning = subst_map(f.meaning, m_env)
        proj = f.proj
        if isinstance(proj, ProjVar):
            proj = p_env.get(proj.name, proj)
        return (f"A[{proj!r};{canonical_key(meaning)};"
                f"{format_type(f.result_type)}]")
    if isinstance(f, Impl):
        return (f"({_fkey(f.left, m_env, p_env, counter)} -o "
                f"{_fkey(f.right, m_env, p_env, counter)})")
    if isinstance(f, Tensor):
        keys = [_fkey(part, m_env, p_env, counter)
                for part in _tensor_parts(f)]
        return "(" * (len(keys) - 1) + keys[0] + "".join(
            f" * {key})" for key in keys[1:])
    if isinstance(f, Forall):
        # the space inside the canonical name keeps it disjoint from any
        # name that could appear in source text
        fresh = f" q{counter[0]}"
        counter[0] += 1
        if isinstance(f.binder, MeaningBinder):
            m_env = dict(m_env)
            m_env[f.binder.name] = Var(fresh, f.binder.ty)
            body = _fkey(f.body, m_env, p_env, counter)
            return f"(all {fresh}:{format_type(f.binder.ty)}.{body})"
        p_env = dict(p_env)
        p_env[f.binder.name] = ProjVar(fresh)
        body = _fkey(f.body, m_env, p_env, counter)
        return f"(allp {fresh}:{format_type(f.binder.index)}.{body})"
    raise TypeError(f"not a formula: {f!r}")


def alpha_equal_formulas(a: Formula, b: Formula) -> bool:
    return formula_key(a) == formula_key(b)


# ---------------------------------------------------------------------------
# parsing

class _GlueParser(Scanner):
    syntax_error = GlueSyntaxError

    def __init__(self, text: str, signature: Mapping[str, SimpleType]):
        super().__init__(text)
        self.sig = signature
        self.meaning_env: dict[str, SimpleType] = {}
        self.proj_env: dict[str, SimpleType] = {}
        self.unbound: Optional[str] = None  # first unbound projection variable

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
        outer = self.meaning_env, self.proj_env
        meanings, projs = dict(self.meaning_env), dict(self.proj_env)
        for b in binders:
            if isinstance(b, MeaningBinder):
                meanings[b.name] = b.ty
            else:
                projs[b.name] = b.index
        self.meaning_env, self.proj_env = meanings, projs
        self.deeper()
        body = self.formula()
        self.depth -= 1
        self.meaning_env, self.proj_env = outer
        for b in reversed(binders):
            body = Forall(b, body)
        return body

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
        left = self.unit()
        while self.peek() == "*":
            self.pos += 1
            left = Tensor(left, self.unit())
        return left

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
        meaning = parse_term_prefix(self, self.sig, self.meaning_env)
        result_type = infer_type(meaning)
        if isinstance(proj, ProjVar):
            index = self.proj_env.get(proj.name)
            if index is None:
                self.unbound = self.unbound or proj.name
            elif index != result_type:
                raise AtomTypeMismatch(
                    f"{proj.name} carries {format_type(index)} resources but "
                    f"{format_term(meaning)} has type "
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
        return ProjVar(name)

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
    """Parse a formula and verify that it is closed and well typed.

    Templates (with ^ paths) skip the projection binding check but still get
    their meaning sides validated.
    """
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
    return _fmt(f, 0)


def _fmt(f: Formula, min_prec: int) -> str:
    if isinstance(f, GlueAtom):
        return f"{format_proj(f.proj)} ~> {format_term(f.meaning)}"
    if isinstance(f, Forall):
        binders = []
        body: Formula = f
        while isinstance(body, Forall):
            binders.append(body.binder)
            body = body.body
        rendered = ", ".join(_fmt_binder(b) for b in binders)
        text = f"forall {rendered}. {_fmt(body, _PREC_FORALL)}"
        return f"({text})" if min_prec > _PREC_FORALL else text
    if isinstance(f, Impl):
        text = (f"{_fmt(f.left, _PREC_IMPL + 1)} -o "
                f"{_fmt(f.right, _PREC_IMPL)}")
        return f"({text})" if min_prec > _PREC_IMPL else text
    if isinstance(f, Tensor):
        first, *rest = _tensor_parts(f)
        text = " * ".join([_fmt(first, _PREC_TENSOR)]
                          + [_fmt(part, _PREC_TENSOR + 1) for part in rest])
        return f"({text})" if min_prec > _PREC_TENSOR else text
    raise TypeError(f"not a formula: {f!r}")


def _fmt_binder(b: Binder) -> str:
    if isinstance(b, ProjBinder):
        return f"{b.name}:proj({format_type(b.index)})"
    ty_text = format_type(b.ty)
    if not isinstance(b.ty, BaseType):
        ty_text = f"({ty_text})"
    return f"{b.name}:{ty_text}"


def format_proj(p: Proj) -> str:
    return p.name if isinstance(p, ProjEigen) else repr(p)
