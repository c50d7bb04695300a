"""Meaning terms: simply typed lambda calculus with intension and extension.

The term language follows Montague-style IL conventions. ^M is the intension
of M (type s -> ty) and !M the extension of an intensional term. Normal forms
are beta-normal, eta-contracted, and free of !(^M) redexes; that combination
is what readings are compared by.

Written syntax:

    leave(Bill)            application (curried internally)
    \\x:e. leave(x)         abstraction, binder type required
    ^M  !M                 intension / extension, bind tighter than calls,
                           so !P(z) is (!P)(z)
    every(z, man(z), S(z)) generalized-quantifier sugar for a determiner
                           constant applied to two abstractions over z
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .errors import (
    ExtensionOfNonIntension,
    TermSyntaxError,
    TypeMismatch,
    UnboundVariable,
)
from .types import (
    QUANTIFIER_TYPE,
    ArrowType,
    E,
    S,
    SimpleType,
    format_type,
    _parse_type_at,
    _skip_ws,
)


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Term):
    name: str
    ty: SimpleType

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Var(Term):
    name: str
    ty: SimpleType

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Lam(Term):
    var: Var
    body: Term

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True)
class Up(Term):
    """Intension ^M, of type s -> ty when M has type ty."""

    body: Term

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True)
class Down(Term):
    """Extension !M; well typed only when M has an intensional type."""

    body: Term

    def __repr__(self):
        return format_term(self)


@dataclass(frozen=True)
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
    for a in args:
        fn = App(fn, a)
    return fn


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split nested applications into head and argument list."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def free_vars(t: Term) -> frozenset[Var]:
    out: set[Var] = set()
    _collect_free(t, set(), out)
    return frozenset(out)


def _collect_free(t: Term, bound: set[str], out: set[Var]) -> None:
    if isinstance(t, Var):
        if t.name not in bound:
            out.add(t)
    elif isinstance(t, Lam):
        if t.var.name in bound:
            _collect_free(t.body, bound, out)
        else:
            bound.add(t.var.name)
            _collect_free(t.body, bound, out)
            bound.discard(t.var.name)
    elif isinstance(t, App):
        _collect_free(t.fn, bound, out)
        _collect_free(t.arg, bound, out)
    elif isinstance(t, (Up, Down)):
        _collect_free(t.body, bound, out)


def free_meta_vars(t: Term) -> set[MetaVar]:
    return _collect(t, MetaVar)


def _collect(t: Term, cls: type) -> set:
    """Every subterm that is an instance of cls; binders are not descended."""
    out: set = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, cls):
            out.add(u)
        elif isinstance(u, App):
            stack.append(u.arg)
            stack.append(u.fn)
        elif isinstance(u, (Lam, Up, Down)):
            stack.append(u.body)
    return out


def map_metas(t: Term, fn: Callable[[MetaVar], Term]) -> Term:
    """Replace every metavariable m by fn(m).

    Subterms with no metavariable to replace come back as the same objects.
    """
    if isinstance(t, MetaVar):
        return fn(t)
    if isinstance(t, App):
        head = map_metas(t.fn, fn)
        arg = map_metas(t.arg, fn)
        return t if head is t.fn and arg is t.arg else App(head, arg)
    if isinstance(t, Lam):
        body = map_metas(t.body, fn)
        return t if body is t.body else Lam(t.var, body)
    if isinstance(t, (Up, Down)):
        body = map_metas(t.body, fn)
        return t if body is t.body else type(t)(body)
    return t


def typecheck(t: Term, env: Optional[Mapping[str, SimpleType]] = None) -> SimpleType:
    """Return the type of t; free variables must be declared in env."""
    return _tc(t, dict(env) if env else {})


def infer_type(t: Term) -> SimpleType:
    """Like typecheck, but free variables are trusted to their annotation."""
    return _tc(t, None)


def _tc(t: Term, env: Optional[dict[str, SimpleType]]) -> SimpleType:
    if isinstance(t, (Const, MetaVar)):
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
        if env is None:
            body = _tc(t.body, None)
        else:
            saved = env.get(t.var.name)
            env[t.var.name] = t.var.ty
            body = _tc(t.body, env)
            if saved is None:
                del env[t.var.name]
            else:
                env[t.var.name] = saved
        return ArrowType(t.var.ty, body)
    if isinstance(t, App):
        fn_ty = _tc(t.fn, env)
        arg_ty = _tc(t.arg, env)
        if not isinstance(fn_ty, ArrowType):
            raise TypeMismatch(
                f"cannot apply term of type {format_type(fn_ty)}"
            )
        if fn_ty.dom != arg_ty:
            raise TypeMismatch(
                f"argument type {format_type(arg_ty)} does not match domain "
                f"{format_type(fn_ty.dom)}"
            )
        return fn_ty.cod
    if isinstance(t, Up):
        return ArrowType(S, _tc(t.body, env))
    if isinstance(t, Down):
        body_ty = _tc(t.body, env)
        if not isinstance(body_ty, ArrowType) or body_ty.dom != S:
            raise ExtensionOfNonIntension(
                f"! applied to term of type {format_type(body_ty)}"
            )
        return body_ty.cod
    raise TypeError(f"not a term: {t!r}")


def substitute(t: Term, var: Var, value: Term) -> Term:
    """Capture-avoiding substitution of value for free occurrences of var."""
    value_ty = infer_type(value)
    if value_ty != var.ty:
        raise TypeMismatch(
            f"cannot substitute {format_type(value_ty)} term for variable of "
            f"type {format_type(var.ty)}"
        )
    return subst_map(t, {var.name: value})


def subst_map(t: Term, mapping: Mapping[str, Term]) -> Term:
    if not mapping:
        return t
    return _subst(t, dict(mapping))


def _subst(t: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, (Const, MetaVar)):
        return t
    if isinstance(t, App):
        return App(_subst(t.fn, mapping), _subst(t.arg, mapping))
    if isinstance(t, Up):
        return Up(_subst(t.body, mapping))
    if isinstance(t, Down):
        return Down(_subst(t.body, mapping))
    if isinstance(t, Lam):
        mapping = {k: v for k, v in mapping.items() if k != t.var.name}
        if not mapping:
            return t
        # rename the binder when it would capture a free variable of a value
        clash = any(
            t.var.name == fv.name
            for v in mapping.values()
            for fv in free_vars(v)
        )
        var, body = t.var, t.body
        if clash:
            avoid = {fv.name for v in mapping.values() for fv in free_vars(v)}
            avoid |= {fv.name for fv in free_vars(body)}
            fresh = _fresh_name(var.name, avoid)
            renamed = Var(fresh, var.ty)
            body = _subst(body, {var.name: renamed})
            var = renamed
        return Lam(var, _subst(body, mapping))
    raise TypeError(f"not a term: {t!r}")


def _fresh_name(base: str, avoid: set[str]) -> str:
    stem = base.rstrip("0123456789") or base
    n = 2
    while f"{stem}{n}" in avoid:
        n += 1
    return f"{stem}{n}"


def normalize(t: Term) -> Term:
    """Beta-normalize, eta-contract and erase !(^M) redexes."""
    if isinstance(t, (Const, Var, MetaVar)):
        return t
    if isinstance(t, Lam):
        body = normalize(t.body)
        # eta: \x. f(x) -> f when x is not free in f
        if (
            isinstance(body, App)
            and isinstance(body.arg, Var)
            and body.arg.name == t.var.name
            and body.arg.ty == t.var.ty
            and all(fv.name != t.var.name for fv in free_vars(body.fn))
        ):
            return body.fn
        return Lam(t.var, body)
    if isinstance(t, App):
        fn = normalize(t.fn)
        arg = normalize(t.arg)
        if isinstance(fn, Lam):
            return normalize(subst_map(fn.body, {fn.var.name: arg}))
        return App(fn, arg)
    if isinstance(t, Up):
        return Up(normalize(t.body))
    if isinstance(t, Down):
        body = normalize(t.body)
        if isinstance(body, Up):
            return body.body
        return Down(body)
    raise TypeError(f"not a term: {t!r}")


def canonical_key(t: Term) -> str:
    """Nameless rendering used for alpha comparison and stable ordering."""
    return _key(t, {}, 0)


def _key(t: Term, env: dict[str, int], depth: int) -> str:
    if isinstance(t, Var):
        idx = env.get(t.name)
        if idx is not None:
            return f"b{depth - idx}"
        return f"v:{t.name}:{format_type(t.ty)}"
    if isinstance(t, Const):
        return f"c:{t.name}:{format_type(t.ty)}"
    if isinstance(t, MetaVar):
        return f"m:{t.uid}"
    if isinstance(t, Lam):
        inner = dict(env)
        inner[t.var.name] = depth
        return f"(\\{format_type(t.var.ty)}.{_key(t.body, inner, depth + 1)})"
    if isinstance(t, App):
        return f"({_key(t.fn, env, depth)} {_key(t.arg, env, depth)})"
    if isinstance(t, Up):
        return f"(^{_key(t.body, env, depth)})"
    if isinstance(t, Down):
        return f"(!{_key(t.body, env, depth)})"
    raise TypeError(f"not a term: {t!r}")


def alpha_equal(a: Term, b: Term) -> bool:
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# parsing

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*")


class _TermParser:
    def __init__(self, text: str, signature: Mapping[str, SimpleType],
                 var_types: Mapping[str, SimpleType]):
        self.text = text
        self.pos = 0
        self.sig = signature
        self.bound: dict[str, SimpleType] = dict(var_types)

    def error(self, msg: str) -> TermSyntaxError:
        return TermSyntaxError(msg, self.pos)

    def skip_ws(self) -> None:
        self.pos = _skip_ws(self.text, self.pos)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected an identifier")
        self.pos = m.end()
        return m.group()

    def parse(self) -> Term:
        t = self.term()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"trailing input {self.text[self.pos:]!r}")
        return t

    def term(self) -> Term:
        if self.peek() == "\\":
            self.pos += 1
            name = self.ident()
            self.expect(":")
            ty, self.pos = _parse_type_at(self.text, self.pos)
            self.expect(".")
            var = Var(name, ty)
            saved = self.bound.get(name)
            self.bound[name] = ty
            body = self.term()
            if saved is None:
                del self.bound[name]
            else:
                self.bound[name] = saved
            return Lam(var, body)
        return self.postfix()

    def postfix(self) -> Term:
        t = self.prefixed()
        while self.peek() == "(":
            self.pos += 1
            t = self.call(t)
        return t

    def prefixed(self) -> Term:
        ch = self.peek()
        if ch == "^":
            self.pos += 1
            return Up(self.prefixed())
        if ch == "!":
            self.pos += 1
            return Down(self.prefixed())
        if ch == "(":
            self.pos += 1
            t = self.term()
            self.expect(")")
            return t
        name = self.ident()
        if name in self.bound:
            return Var(name, self.bound[name])
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
        saved = self.pos
        m = _IDENT_RE.match(self.text, _skip_ws(self.text, self.pos))
        if not m:
            return None
        name = m.group()
        after = _skip_ws(self.text, m.end())
        if after >= len(self.text) or self.text[after] != ",":
            return None
        self.pos = after + 1
        var = Var(name, E)
        outer = self.bound.get(name)
        self.bound[name] = E
        try:
            restriction = self.term()
            if self.peek() != ",":
                raise self.error("expected ',' in quantifier arguments")
            self.pos += 1
            scope = self.term()
            if self.peek() != ")":
                raise self.error("expected ')' after quantifier arguments")
            self.pos += 1
        except TermSyntaxError:
            # not the sugared form after all; reparse as a plain call
            self.pos = saved
            if outer is None:
                self.bound.pop(name, None)
            else:
                self.bound[name] = outer
            return None
        if outer is None:
            del self.bound[name]
        else:
            self.bound[name] = outer
        return app(head, Lam(var, restriction), Lam(var, scope))


def parse_term(text: str, signature: Mapping[str, SimpleType],
               var_types: Optional[Mapping[str, SimpleType]] = None) -> Term:
    return _TermParser(text, signature, var_types or {}).parse()


def parse_term_prefix(text: str, pos: int, signature: Mapping[str, SimpleType],
                      var_types: Mapping[str, SimpleType]) -> tuple[Term, int]:
    """Parse one term starting at pos; return it with the end position.

    Lets other parsers embed term syntax: the term extends as far as the
    grammar allows and stops at the first character that cannot continue it.
    """
    parser = _TermParser(text, signature, var_types)
    parser.pos = pos
    term = parser.term()
    return term, parser.pos


# ---------------------------------------------------------------------------
# printing

_ENTITY_POOL = ["z", "u", "w", "v"]
_FUNC_POOL = ["P", "Q", "R", "S"]


class _Namer:
    """Deterministic fresh display names, assigned in traversal order."""

    def __init__(self, taken: set[str]):
        self.taken = set(taken)
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
    frees = free_vars(t)
    names: dict[str, str] = {}
    by_base: dict[str, list[Var]] = {}
    for v in frees:
        by_base.setdefault(v.name.split("#")[0], []).append(v)
    for base, group in by_base.items():
        if len(group) == 1:
            names[group[0].name] = base
        else:
            for v in group:
                names[v.name] = v.name
    taken = set(names.values()) | {c.name for c in _collect(t, Const)}
    namer = _Namer(taken)
    return _render(t, names, namer, top=True)


def _display_var(name: str, names: dict[str, str]) -> str:
    if name in names:
        return names[name]
    return name.split("#")[0]


def _render(t: Term, names: dict[str, str], namer: _Namer,
            top: bool = False) -> str:
    if isinstance(t, Var):
        return _display_var(t.name, names)
    if isinstance(t, Const):
        return t.name
    if isinstance(t, MetaVar):
        return f"?{t.name}{t.uid}"
    if isinstance(t, Lam):
        name = namer.next_for(t.var.ty)
        inner = dict(names)
        inner[t.var.name] = name
        body = _render(t.body, inner, namer, top=True)
        ty_text = format_type(t.var.ty)
        if isinstance(t.var.ty, ArrowType):
            ty_text = f"({ty_text})"
        text = f"\\{name}:{ty_text}. {body}"
        return text if top else f"({text})"
    if isinstance(t, Up):
        return f"^{_render_operand(t.body, names, namer)}"
    if isinstance(t, Down):
        return f"!{_render_operand(t.body, names, namer)}"
    if isinstance(t, App):
        head, args = spine(t)
        if (
            isinstance(head, Const)
            and head.ty == QUANTIFIER_TYPE
            and len(args) == 2
        ):
            name = namer.next_for(E)
            parts = [_render_applied(arg, name, names, namer) for arg in args]
            return f"{head.name}({name}, {parts[0]}, {parts[1]})"
        head_text = _render_operand(head, names, namer)
        rendered = []
        for a in args:
            # lambdas in argument position keep their parentheses for clarity
            rendered.append(_render(a, names, namer,
                                    top=not isinstance(a, Lam)))
        return f"{head_text}({', '.join(rendered)})"
    raise TypeError(f"not a term: {t!r}")


def _render_operand(t: Term, names: dict[str, str], namer: _Namer) -> str:
    """Render the operand of ^, ! or a call head; wrap non-atoms in parens."""
    if isinstance(t, (Var, Const, MetaVar)):
        return _render(t, names, namer)
    if isinstance(t, (Up, Down)):
        return _render(t, names, namer)
    return f"({_render(t, names, namer, top=True)})"


def _render_applied(f: Term, var_name: str, names: dict[str, str],
                    namer: _Namer) -> str:
    """Render f as applied to the sugar binder, unfolding abstractions."""
    if isinstance(f, Lam):
        inner = dict(names)
        inner[f.var.name] = var_name
        return _render(f.body, inner, namer, top=True)
    # eta-contracted argument: extend its application spine with the binder
    head, args = spine(f)
    head_text = _render_operand(head, names, namer)
    rendered = [_render(a, names, namer, top=not isinstance(a, Lam))
                for a in args]
    rendered.append(var_name)
    return f"{head_text}({', '.join(rendered)})"
