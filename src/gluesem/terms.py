"""Meaning terms: simply typed lambda calculus with intension and extension.

The term language follows Montague-style IL conventions. ^M is the intension
of M (type s -> ty) and !M the extension of an intensional term. Normal forms
are beta-normal, eta-contracted, and free of !(^M) redexes; that combination
is what readings are compared by.

Written syntax:

    leave(Bill)            application, one App node per call
    \\x:e. leave(x)         abstraction, binder type required
    ^M  !M                 intension / extension, bind tighter than calls,
                           so !P(z) is (!P)(z)
    every(z, man(z), S(z)) generalized-quantifier sugar for a determiner
                           constant applied to two abstractions over z

Terms are locally nameless. A lambda binder has no name: its body refers to
it by a Bound leaf whose index counts the binders crossed to reach it, 0 for
the nearest. Var is a free formula variable and Eigen an eigenvariable of
the prover, so alpha-equality is structural equality. lam(var, body)
abstracts a free variable and open_bound(body, values) fills loose indices;
the parser and the printer translate to and from the named syntax above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    ExtensionOfNonIntension,
    TermSyntaxError,
    TypeMismatch,
    UnboundVariable,
)
from .types import (
    MAX_NESTING,
    QUANTIFIER_TYPE,
    ArrowType,
    E,
    S,
    Scanner,
    SimpleType,
    format_type,
)


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Term):
    name: str
    ty: SimpleType

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Var(Term):
    """A free variable; lambda-bound occurrences are Bound leaves."""

    name: str
    ty: SimpleType

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Eigen(Term):
    """An eigenvariable: a fresh constant the prover introduces.

    uid comes from the prover's counter and orders the eigenvariable against
    metavariable levels.
    """

    name: str
    uid: int
    ty: SimpleType

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True, slots=True)
class Bound(Term):
    """A lambda-bound occurrence; index 0 refers to the nearest binder."""

    index: int
    ty: SimpleType


@dataclass(frozen=True, slots=True)
class Lam(Term):
    """Abstraction over a variable of type ty, referred to as Bound(0, ty)."""

    ty: SimpleType
    body: Term

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True, slots=True)
class App(Term):
    """A call fn(*args); app builds it, so args is non-empty and fn no App."""

    fn: Term
    args: tuple[Term, ...]

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True, slots=True)
class Up(Term):
    """Intension ^M, of type s -> ty when M has type ty."""

    body: Term

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True, slots=True)
class Down(Term):
    """Extension !M; well typed only when M has an intensional type."""

    body: Term

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True, slots=True)
class MetaVar(Term):
    """A prover-owned hole standing for a not-yet-chosen meaning.

    level gates the eigenvariable side condition: a solution may mention a
    free eigenvariable only if that eigenvariable was created earlier, i.e.
    carries a smaller level than the hole.
    """

    name: str
    uid: int
    ty: SimpleType
    level: int

    def __repr__(self):
        return f"?{self.name}{self.uid}"


def app(fn: Term, *args: Term) -> Term:
    """fn applied to args; a call given as fn gets its arguments extended."""
    if not args:
        return fn
    if isinstance(fn, App):
        return App(fn.fn, fn.args + args)
    return App(fn, args)


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """The head of a call and its arguments; a non-call has none."""
    return (t.fn, t.args) if isinstance(t, App) else (t, ())


def free_meta_vars(t: Term) -> set[MetaVar]:
    return _collect(t, MetaVar)


def _collect(t: Term, cls: type | tuple[type, ...]) -> set:
    """Every subterm that is an instance of cls (a class or a tuple)."""
    out: set = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, cls):
            out.add(u)
        elif isinstance(u, App):
            stack.extend(u.args)
            stack.append(u.fn)
        elif isinstance(u, (Lam, Up, Down)):
            stack.append(u.body)
    return out


def map_leaves(t: Term, fn: Callable[[Term, int], Term],
               depth: int = 0) -> Term:
    """Replace every leaf u by fn(u, number of binders crossed to reach u).

    Subterms in which fn replaces nothing come back as the same objects.
    """
    if isinstance(t, App):
        head = map_leaves(t.fn, fn, depth)
        same = head is t.fn
        args = []
        for a in t.args:
            b = map_leaves(a, fn, depth)
            same = same and b is a
            args.append(b)
        return t if same else app(head, *args)
    if isinstance(t, Lam):
        body = map_leaves(t.body, fn, depth + 1)
        return t if body is t.body else Lam(t.ty, body)
    if isinstance(t, (Up, Down)):
        body = map_leaves(t.body, fn, depth)
        return t if body is t.body else type(t)(body)
    return fn(t, depth)


def lam(var: Var, body: Term) -> Lam:
    """Abstract the free variable var of body."""
    def leaf(u: Term, depth: int) -> Term:
        if isinstance(u, Var) and u.name == var.name:
            return Bound(depth, var.ty)
        if isinstance(u, Bound) and u.index >= depth:
            return Bound(u.index + 1, u.ty)
        return u
    return Lam(var.ty, map_leaves(body, leaf))


def open_bound(t: Term, values: Sequence[Term], depth: int = 0) -> Term:
    """t with values[i] in place of its loose index depth + i.

    Loose indices past the values drop by their number. An unchanged t
    comes back as the same object.
    """
    n = len(values)
    if not n:
        return t

    def leaf(u: Term, d: int) -> Term:
        if isinstance(u, Bound) and u.index >= d:
            i = u.index - d
            return _shift(values[i], d) if i < n else Bound(u.index - n, u.ty)
        return u
    return map_leaves(t, leaf, depth)


def _shift(t: Term, by: int, depth: int = 0) -> Term:
    """Add by to t's loose indices past depth, as under by more binders."""
    if not by or isinstance(t, (Const, Var, Eigen, MetaVar)):
        return t
    return map_leaves(t, lambda u, d: Bound(u.index + by, u.ty)
                      if isinstance(u, Bound) and u.index >= d else u, depth)


def typecheck(t: Term,
              env: Optional[Mapping[str, SimpleType]] = None) -> SimpleType:
    """Return the type of t; free variables must be declared in env."""
    return _tc(t, env or {})


def infer_type(t: Term) -> SimpleType:
    """Like typecheck, but free variables are trusted to their annotation."""
    return _tc(t, None)


def _tc(t: Term, env: Optional[Mapping[str, SimpleType]],
        binders: tuple[SimpleType, ...] = ()) -> SimpleType:
    if isinstance(t, (Const, MetaVar, Eigen)):
        return t.ty
    if isinstance(t, Bound):
        if env is not None and binders[t.index:t.index + 1] != (t.ty,):
            raise UnboundVariable(f"no binder of type {format_type(t.ty)} "
                                  f"at index {t.index}")
        return t.ty
    if isinstance(t, Var):
        if env is None:
            return t.ty
        declared = env.get(t.name)
        if declared is None:
            raise UnboundVariable(f"unbound variable {t.name}")
        if declared != t.ty:
            raise TypeMismatch(
                f"variable {t.name} annotated {format_type(t.ty)} but bound at "
                f"{format_type(declared)}"
            )
        return t.ty
    if isinstance(t, Lam):
        return ArrowType(t.ty, _tc(t.body, env, (t.ty,) + binders))
    if isinstance(t, App):
        fn_ty = _tc(t.fn, env, binders)
        for a in t.args:
            arg_ty = _tc(a, env, binders)
            if not isinstance(fn_ty, ArrowType):
                raise TypeMismatch(
                    f"cannot apply term of type {format_type(fn_ty)}"
                )
            if fn_ty.dom != arg_ty:
                raise TypeMismatch(
                    f"argument type {format_type(arg_ty)} does not match "
                    f"domain {format_type(fn_ty.dom)}"
                )
            fn_ty = fn_ty.cod
        return fn_ty
    if isinstance(t, Up):
        return ArrowType(S, _tc(t.body, env, binders))
    if isinstance(t, Down):
        body_ty = _tc(t.body, env, binders)
        if not isinstance(body_ty, ArrowType) or body_ty.dom != S:
            raise ExtensionOfNonIntension(
                f"! applied to term of type {format_type(body_ty)}"
            )
        return body_ty.cod
    raise TypeError(f"not a term: {t!r}")


def type_of(t: Term) -> SimpleType:
    """The type of a well-typed t, read off its spine without checking it."""
    head, args = spine(t)
    if isinstance(head, (Lam, Up)):
        ty = ArrowType(head.ty if isinstance(head, Lam) else S,
                       type_of(head.body))
    else:
        ty = type_of(head.body).cod if isinstance(head, Down) else head.ty
    for _ in args:
        ty = ty.cod
    return ty


def normalize(t: Term, holes: Optional[Callable] = None) -> Term:
    """Beta-normalize, eta-contract and erase !(^M) redexes.

    holes(m) gives the closed term that fills hole m, or None to keep it; it
    is asked once per hole and call. Normal subterms come back as the same
    objects. A call whose head is an abstraction, or a hole filled with one,
    is evaluated: beta steps extend environments, and reading the value back
    builds the result once, eta-contracting and cancelling !^ as it goes.
    """
    return _norm(t, None if holes is None else _Fill(holes))


@dataclass(slots=True)
class _Fill:
    """Each filler of one normalize call: as given, normal and evaluated."""

    holes: Callable[[MetaVar], Optional[Term]]
    fillers: dict = field(default_factory=dict)
    terms: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


def _hole(m: MetaVar, fill: _Fill, done: dict, make: Callable) -> object:
    """What make gives for the filler of m, or m when m is not filled."""
    out = done.get(m.uid)
    if out is None:
        if m.uid not in fill.fillers:
            fill.fillers[m.uid] = fill.holes(m)
        filler = fill.fillers[m.uid]
        out = done[m.uid] = m if filler is None else make(filler, fill)
    return out


def _norm(t: Term, fill: Optional[_Fill]) -> Term:
    """normalize as a walk that keeps what is already normal."""
    cls = type(t)
    if cls is App:
        fn = t.fn
        if type(fn) is MetaVar and fill is not None:
            fn = _hole(fn, fill, fill.values, _eval)
            if type(fn) is not _Closure:
                fn = _read(fn, 0, fill)
        elif type(fn) is not Lam:
            fn = _norm(fn, fill)
        if type(fn) is Lam:
            fn = _Closure(fn, ())
        if type(fn) is _Closure:
            args = [_eval(a, fill) for a in t.args]
            return _read(_apply(fn, args, fill), 0, fill)
        same = fn is t.fn
        args = []
        for a in t.args:
            b = _norm(a, fill)
            same = same and b is a
            args.append(b)
        return t if same else app(fn, *args)
    if cls is Lam:
        body = _norm(t.body, fill)
        out = eta_lam(t.ty, body)
        return t if body is t.body and type(out) is Lam else out
    if cls is Up or cls is Down:
        body = _norm(t.body, fill)
        if cls is Down and type(body) is Up:
            return body.body
        return t if body is t.body else cls(body)
    if cls is MetaVar and fill is not None:
        return _hole(t, fill, fill.terms, _norm)
    if isinstance(t, Term):
        return t
    raise TypeError(f"not a term: {t!r}")


# Evaluation works on values: terms in which an abstraction is a _Closure
# and a variable a Bound that holds its level. Levels count binders from
# where the evaluation began, so a loose index i at environment length n is
# the level n - 1 - i, negative for a binder outside the evaluation; under d
# binders of the result level l reads back as the index d - 1 - l.

@dataclass(slots=True)
class _Closure:
    """An abstraction with the values of its loose indices, nearest first."""

    lam: Lam
    env: tuple


def _eval(t: Term, fill: Optional[_Fill], env: tuple = ()) -> object:
    cls = type(t)
    if cls is Bound:
        n = len(env)
        return env[t.index] if t.index < n else Bound(n - 1 - t.index, t.ty)
    if cls is App:
        return _apply(_eval(t.fn, fill, env),
                      [_eval(a, fill, env) for a in t.args], fill)
    if cls is Lam:
        return _Closure(t, env)
    if cls is Up or cls is Down:
        body = _eval(t.body, fill, env)
        return body.body if cls is Down and type(body) is Up else cls(body)
    if cls is MetaVar and fill is not None:
        return _hole(t, fill, fill.values, _eval)
    return t


def _apply(fn, args: list, fill: Optional[_Fill]) -> object:
    for i, a in enumerate(args):
        if type(fn) is not _Closure:
            return app(fn, *args[i:])
        fn = _eval(fn.lam.body, fill, (a,) + fn.env)
    return fn


def _read(v, depth: int, fill: Optional[_Fill]) -> Term:
    """The normal term of value v, under depth binders of the result."""
    cls = type(v)
    if cls is _Closure:
        lam = v.lam
        body = _eval(lam.body, fill, (Bound(depth, lam.ty),) + v.env)
        return eta_lam(lam.ty, _read(body, depth + 1, fill))
    if cls is Bound:
        return Bound(depth - 1 - v.index, v.ty)
    if cls is App:
        fn = _read(v.fn, depth, fill)
        args = [_read(a, depth, fill) for a in v.args]
        if type(fn) is Lam:  # a ! that cancelled an eta-contracted ^
            return _norm(app(fn, *args), None)
        return app(fn, *args)
    if cls is Up or cls is Down:
        body = _read(v.body, depth, fill)
        return body.body if cls is Down and type(body) is Up else cls(body)
    return v


def eta_lam(ty: SimpleType, body: Term) -> Term:
    """\\x:ty. body for a normal body, eta-contracted when it can be.

    The contracted term is never an abstraction: it is a call's head or a
    shorter call.
    """
    if type(body) is App:
        last = body.args[-1]
        if type(last) is Bound and last.index == 0:
            fn = _eta_lower(app(body.fn, *body.args[:-1]))
            if fn is not None:
                return fn
    return Lam(ty, body)


def _eta_lower(t: Term) -> Optional[Term]:
    """t under one binder fewer, or None when it mentions that binder."""
    mentions = []

    def leaf(u: Term, depth: int) -> Term:
        if not isinstance(u, Bound) or u.index < depth:
            return u
        if u.index == depth:
            mentions.append(u)
        return Bound(u.index - 1, u.ty)
    lowered = map_leaves(t, leaf)
    return None if mentions else lowered


def canonical_key(t: Term) -> str:
    """Text rendering that orders and deduplicates readings."""
    if isinstance(t, Bound):
        return f"b{t.index + 1}"
    if isinstance(t, Var):
        return f"v:{t.name}:{format_type(t.ty)}"
    if isinstance(t, Eigen):
        return f"v:{t.name}#{t.uid}:{format_type(t.ty)}"
    if isinstance(t, Const):
        return f"c:{t.name}:{format_type(t.ty)}"
    if isinstance(t, MetaVar):
        return f"m:{t.uid}"
    if isinstance(t, Lam):
        return f"(\\{format_type(t.ty)}.{canonical_key(t.body)})"
    if isinstance(t, App):
        key = canonical_key(t.fn)
        for a in t.args:
            key = f"({key} {canonical_key(a)})"
        return key
    if isinstance(t, Up):
        return f"(^{canonical_key(t.body)})"
    if isinstance(t, Down):
        return f"(!{canonical_key(t.body)})"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# parsing

class _TermParser(Scanner):
    def __init__(self, text: str, signature: Mapping[str, SimpleType],
                 var_types: Mapping[str, SimpleType],
                 binders: tuple[Optional[Var], ...] = ()):
        super().__init__(text)
        self.sig = signature
        self.frees = var_types
        # the enclosing binders as the variables they bind, nearest first;
        # None holds the place of a binder that no term name can refer to
        self.binders = binders
        self.failed_sugar: set[tuple] = set()

    def term(self) -> Term:
        if self.peek() != "\\":
            return self.postfix()
        self.pos += 1
        name = self.ident()
        self.expect(":")
        ty = self.type()
        self.expect(".")
        outer = self.binders
        self.binders = (Var(name, ty),) + outer
        self.deeper()
        body = self.term()
        self.depth -= 1
        self.binders = outer
        return Lam(ty, body)

    def postfix(self) -> Term:
        t = self.prefixed()
        while self.peek() == "(":
            self.pos += 1
            self.deeper()
            t = self.call(t)
            self.depth -= 1
        return t

    def prefixed(self) -> Term:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            self.deeper()
            t = self.term()
            self.depth -= 1
            self.expect(")")
            return t
        if ch == "^" or ch == "!":
            self.pos += 1
            self.deeper()
            t = self.prefixed()
            self.depth -= 1
            return Up(t) if ch == "^" else Down(t)
        name = self.ident()
        for index, bound in enumerate(self.binders):
            if bound is not None and bound.name == name:
                return Bound(index, bound.ty)
        if name in self.frees:
            return Var(name, self.frees[name])
        if name in self.sig:
            return Const(name, self.sig[name])
        raise self.error(f"unknown identifier {name!r}")

    def call(self, head: Term) -> Term:
        # after the opening parenthesis of an argument list
        sugar = self.try_sugar(head)
        if sugar is not None:
            return sugar
        args = [self.term()]
        while self.peek() == ",":
            self.pos += 1
            args.append(self.term())
        self.expect(")")
        return app(head, *args)

    def try_sugar(self, head: Term) -> Optional[Term]:
        """Parse Q(x, R, S) as Q(\\x:e. R, \\x:e. S) for determiner constants."""
        if not (isinstance(head, Const) and head.ty == QUANTIFIER_TYPE):
            return None
        # A sugared form that failed here fails again under fewer binders,
        # which resolve fewer names, unless a binder that hid a determiner
        # is gone. Remembering failures keeps backtracking polynomial.
        key = self.pos, tuple(b for b in self.binders if b is not None
                              and self.sig.get(b.name) == QUANTIFIER_TYPE)
        if key in self.failed_sugar:
            return None
        saved = self.pos, self.depth
        outer = self.binders
        try:
            name = self.ident()
            self.expect(",")
            self.binders = (Var(name, E),) + outer
            restriction = self.term()
            self.expect(",")
            scope = self.term()
            self.expect(")")
        except TermSyntaxError:
            if self.depth > MAX_NESTING:
                raise
            # not the sugared form after all; reparse as a plain call
            self.failed_sugar.add(key)
            self.pos, self.depth = saved
            return None
        finally:
            self.binders = outer
        return app(head, Lam(E, restriction), Lam(E, scope))


def parse_term(text: str, signature: Mapping[str, SimpleType],
               var_types: Optional[Mapping[str, SimpleType]] = None) -> Term:
    parser = _TermParser(text, signature, var_types or {})
    return parser.finish(parser.term())


def parse_term_prefix(outer: Scanner, signature: Mapping[str, SimpleType],
                      binders: tuple[Optional[Var], ...]) -> Term:
    """Parse one term at outer's position and move outer past it.

    Lets other parsers embed term syntax: the term extends as far as the
    grammar allows and stops at the first character that cannot continue it.
    It nests from outer's depth on. A name bound by outer's binders becomes
    a loose index past the term's own lambdas.
    """
    parser = _TermParser(outer.text, signature, {}, binders)
    parser.pos, parser.depth = outer.pos, outer.depth
    term = parser.term()
    outer.pos = parser.pos
    return term


# ---------------------------------------------------------------------------
# printing

_ENTITY_POOL = ["z", "u", "w", "v"]
_FUNC_POOL = ["P", "Q", "R", "S"]


class _Namer:
    """Display names: fixed for free variables, fresh for binders in order."""

    def __init__(self, names: dict[Term, str], taken: set[str]):
        self.names = names
        self.taken = taken
        self.entity_count = 0
        self.func_count = 0

    def next_for(self, ty: SimpleType) -> str:
        pool = _ENTITY_POOL if ty == E else _FUNC_POOL
        count = self.entity_count if ty == E else self.func_count
        while True:
            name = pool[count] if count < len(pool) else f"{pool[0]}{count - len(pool) + 1}"
            count += 1
            if name not in self.taken:
                break
        if ty == E:
            self.entity_count = count
        else:
            self.func_count = count
        self.taken.add(name)
        return name


def format_term(t: Term) -> str:
    """Render a term; binder names are regenerated deterministically.

    Lambda binders carry their types, which makes the output re-parseable.
    Quantifier sugar binders are entity typed by construction and never
    annotated.
    """
    by_name: dict[str, list[Term]] = {}
    for v in _collect(t, (Var, Eigen)):
        by_name.setdefault(v.name, []).append(v)
    names: dict[Term, str] = {}  # a shared name is told apart by the uid
    for name, group in by_name.items():
        for v in group:
            shared = len(group) > 1 and isinstance(v, Eigen)
            names[v] = f"{name}#{v.uid}" if shared else name
    taken = set(names.values()) | {c.name for c in _collect(t, Const)}
    return _render(t, _Namer(names, taken), (), top=True)


def _render(t: Term, namer: _Namer, scope: tuple[str, ...],
            top: bool = False) -> str:
    """scope holds the display names of the enclosing binders, nearest first."""
    if isinstance(t, (Var, Eigen)):
        return namer.names[t]
    if isinstance(t, Bound):  # an index no binder in t covers prints as #i
        loose = t.index - len(scope)
        return scope[t.index] if loose < 0 else f"#{loose}"
    if isinstance(t, Const):
        return t.name
    if isinstance(t, MetaVar):
        return f"?{t.name}{t.uid}"
    if isinstance(t, Lam):
        name = namer.next_for(t.ty)
        body = _render(t.body, namer, (name,) + scope, top=True)
        ty_text = format_type(t.ty)
        if isinstance(t.ty, ArrowType):
            ty_text = f"({ty_text})"
        text = f"\\{name}:{ty_text}. {body}"
        return text if top else f"({text})"
    if isinstance(t, Up):
        return f"^{_render_operand(t.body, namer, scope)}"
    if isinstance(t, Down):
        return f"!{_render_operand(t.body, namer, scope)}"
    if isinstance(t, App):
        head, args = spine(t)
        if (
            isinstance(head, Const)
            and len(args) == 2
            and head.ty == QUANTIFIER_TYPE
        ):
            name = namer.next_for(E)
            parts = [_render_applied(arg, name, namer, scope) for arg in args]
            return f"{head.name}({name}, {parts[0]}, {parts[1]})"
        head_text = _render_operand(head, namer, scope)
        rendered = []
        for a in args:
            # lambdas in argument position keep their parentheses for clarity
            rendered.append(_render(a, namer, scope,
                                    top=not isinstance(a, Lam)))
        return f"{head_text}({', '.join(rendered)})"
    raise TypeError(f"not a term: {t!r}")


def _render_operand(t: Term, namer: _Namer, scope: tuple[str, ...]) -> str:
    """Render the operand of ^, ! or a call head; wrap non-atoms in parens."""
    if isinstance(t, (Var, Eigen, Bound, Const, MetaVar, Up, Down)):
        return _render(t, namer, scope)
    return f"({_render(t, namer, scope, top=True)})"


def _render_applied(f: Term, var_name: str, namer: _Namer,
                    scope: tuple[str, ...]) -> str:
    """Render f as applied to the sugar binder, unfolding abstractions."""
    # an eta-contracted argument becomes a call on the binder
    body = f.body if isinstance(f, Lam) else app(_shift(f, 1), Bound(0, E))
    return _render(body, namer, (var_name,) + scope, top=True)
