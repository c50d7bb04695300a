"""Random well-typed closed terms, for properties of the term kernel."""

from gluesem.terms import Const, Down, MetaVar, Up, Var, app, lam, map_leaves
from gluesem.types import ArrowType, E, S, T, arrow

TYPE_POOL = [E, T, S, arrow(E, T), arrow(S, T), arrow(E, E),
              arrow(arrow(E, T), T), arrow(S, E, T)]


def random_term(rng, ty, env, depth):
    choices = ["const"]
    scoped = [v for v in env if v.ty == ty]
    if scoped:
        choices += ["var", "var"]
    if depth > 0:
        if isinstance(ty, ArrowType):
            choices += ["lam", "lam"]
            if ty.dom == S:
                choices.append("up")
        choices += ["app", "down"]
    pick = rng.choice(choices)
    if pick == "var":
        return rng.choice(scoped)
    if pick == "lam":
        var = Var(f"v{len(env)}", ty.dom)
        return lam(var, random_term(rng, ty.cod, env + [var], depth - 1))
    if pick == "up":
        return Up(random_term(rng, ty.cod, env, depth - 1))
    if pick == "down":
        return Down(random_term(rng, ArrowType(S, ty), env, depth - 1))
    if pick == "app":
        arg_ty = rng.choice(TYPE_POOL)
        fn = random_term(rng, ArrowType(arg_ty, ty), env, depth - 1)
        arg = random_term(rng, arg_ty, env, depth - 1)
        return app(fn, arg)
    return Const(f"k_{str(ty).replace(' ', '')}", ty)




def with_holes(rng, t, fillers, uids, depth):
    """t with some constants made holes of their type, some of them filled.

    A filler is a closed random term that may hold holes of its own, up to
    depth fillers deep; fillers maps each filled hole's uid to its filler
    and uids gives the fresh uids, so no filler reaches its own hole.
    """
    def leaf(u, _depth):
        if not isinstance(u, Const) or rng.random() < 0.5:
            return u
        hole = MetaVar("H", next(uids), u.ty, 0)
        if depth and rng.random() < 0.7:
            filler = random_term(rng, u.ty, [], rng.randint(0, 3))
            fillers[hole.uid] = with_holes(rng, filler, fillers, uids,
                                           depth - 1)
        return hole
    return map_leaves(t, leaf)
