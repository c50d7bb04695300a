"""Reference meaning kernel: fill holes by substitution, then normalize.

This is how holes were filled and terms normalized before terms.normalize
took holes and evaluated its redexes. zonk substitutes every filled hole,
recursively, and normalize reduces one beta-redex at a time, walking each
reduct again. tests compare terms.normalize against these two.
"""

from typing import Callable, Optional

from gluesem.terms import (
    App,
    Bound,
    Const,
    Down,
    Eigen,
    Lam,
    MetaVar,
    Term,
    Up,
    Var,
    app,
    map_leaves,
    open_bound,
)


def zonk(t: Term, holes: Callable[[MetaVar], Optional[Term]]) -> Term:
    """t with every hole that holes fills replaced, fillers zonked too."""
    def leaf(u: Term, _depth: int) -> Term:
        if not isinstance(u, MetaVar):
            return u
        filler = holes(u)
        return u if filler is None else map_leaves(filler, leaf)
    return map_leaves(t, leaf)


def normalize(t: Term) -> Term:
    if isinstance(t, (Const, Var, Eigen, Bound, MetaVar)):
        return t
    if isinstance(t, Lam):
        body = normalize(t.body)
        # eta: \x. f(x) -> f when x does not occur in f
        if (isinstance(body, App) and isinstance(body.args[-1], Bound)
                and body.args[-1].index == 0):
            fn = _eta_lower(app(body.fn, *body.args[:-1]))
            if fn is not None:
                return fn
        return t if body is t.body else Lam(t.ty, body)
    if isinstance(t, App):
        fn = normalize(t.fn)
        same = fn is t.fn
        args = []
        for a in t.args:
            b = normalize(a)
            same = same and b is a
            args.append(b)
        if isinstance(fn, Lam):
            return normalize(app(open_bound(fn.body, args[:1]), *args[1:]))
        return t if same else app(fn, *args)
    if isinstance(t, Up):
        body = normalize(t.body)
        return t if body is t.body else Up(body)
    if isinstance(t, Down):
        body = normalize(t.body)
        if isinstance(body, Up):
            return body.body
        return t if body is t.body else Down(body)
    raise TypeError(f"not a term: {t!r}")


def _eta_lower(t: Term) -> Optional[Term]:
    mentions = []

    def leaf(u: Term, depth: int) -> Term:
        if not isinstance(u, Bound) or u.index < depth:
            return u
        if u.index == depth:
            mentions.append(u)
        return Bound(u.index - 1, u.ty)
    lowered = map_leaves(t, leaf)
    return None if mentions else lowered
