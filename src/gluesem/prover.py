"""Backward proof search over glue formulas.

The search is goal directed with an input-output context discipline: proving
a subgoal consumes some of the linear resources and hands the rest back. A
context is an int bit mask over one slot table of premises and hypotheses.
At an atomic goal the prover uses one context entry as a clause: it strips
the quantifiers into metavariables, opens and unifies only the head, then
proves the antecedents left to right, opening each when it is reached. A
head index over the slots offers only entries whose head may match and
that have a producer left for each atomic antecedent of literal projection.
Opening is one substitution pass for all the metavariables. Nothing is
filled in up front: unification hands each side to normalize with the
substitution, which fills the bound holes and normalizes in one pass, and a
reading is grounded the same way, a free hole becoming a placeholder.

Quantifier reasoning uses one global counter: every eigenvariable and every
metavariable carries the counter value from its creation. A metavariable's
solution may mention an eigenvariable only if the eigenvariable is older.
That single ordering implements the quantifier side conditions, including the
scope discipline that keeps readings closed.

Meaning unification is higher order over the pattern fragment: a
metavariable applied to distinct newer eigenvariables (or their intensions)
is inverted directly, each argument becoming a de Bruijn index of the
solution's binders; metavariables nested inside a solution are raised over
the same arguments when their level is too new. Problems outside the
fragment are reported rather than searched.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import (
    NonPatternUnification,
    NotProvable,
)
from .fstructure import SemProjectionRef
from .glue import (
    Binder,
    Forall,
    Formula,
    GlueAtom,
    Impl,
    Proj,
    curry,
    format_glue,
    format_proj,
    instantiate,
    map_atoms,
    normalize_meanings,
    open_formula,
    operands,
)
from .lexicon import Premise
from .terms import (
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
    canonical_key,
    eta_lam,
    format_term,
    free_meta_vars,
    map_leaves,
    normalize,
    spine,
    type_of,
)
from .types import ArrowType, ProjType, SimpleType, T, arrow


@dataclass
class SearchLimits:
    """Caps and switches for one search.

    max_depth bounds the rule applications along any one branch; the search
    itself terminates structurally, so the bound is a safety valve and
    hitting it is reported, not raised. typed_scope enforces the atom index
    check in the head index and in unification; turning it off makes the
    prover attempt ill-indexed combinations (they still fail, on the
    meaning types, which the unifier reads off each side's spine) and is
    only useful for observing that the index discipline does real work.
    """

    max_depth: int = 64
    typed_scope: bool = True


@dataclass
class SearchStats:
    proofs_found: int = 0
    readings: int = 0
    ill_typed_attempts: int = 0
    limit_hit: bool = False
    nonpattern: Optional[str] = None
    nodes: int = 0


@dataclass(frozen=True)
class Sequent:
    context: tuple[Formula, ...]
    goal: Formula

    def __repr__(self):
        left = ", ".join(format_glue(f) for f in self.context)
        return f"{left} |- {format_glue(self.goal)}"


@dataclass
class Proof:
    """Ground derivation tree; contexts shrink toward the leaves."""

    rule: str
    sequent: Sequent
    children: tuple["Proof", ...] = ()
    eigen: Optional[Eigen] = None
    instantiation: Optional[Union[Term, Proj]] = None


class Reading:
    """One normalized closed meaning with a witnessing derivation.

    A reading from derive_readings rebuilds its proof on first read and
    keeps it. The reference enumerator reports readings without derivation
    trees, so proof may be None there.
    """

    __slots__ = ("meaning", "_proof", "_derivation")

    def __init__(self, meaning: Term, proof: Optional[Proof],
                 derivation: Optional[tuple] = None):
        self.meaning = meaning
        self._proof = proof
        self._derivation = derivation  # the arguments of _proof

    @property
    def proof(self) -> Optional[Proof]:
        if self._derivation is not None:
            self._proof, self._derivation = _proof(*self._derivation), None
        return self._proof

    def __repr__(self):
        return format_term(self.meaning)


# ---------------------------------------------------------------------------
# search state

_LITERAL = (SemProjectionRef, Eigen)  # one projection for the search


class _State:
    def __init__(self, limits: SearchLimits, stats: SearchStats):
        self.limits = limits
        self.stats = stats
        self.counter = itertools.count(1)
        self.slots: list[Formula] = []  # a context's entry i is bit 1 << i
        # the head index: slot masks by literal head projection (None for
        # any other) and by head type; per slot, its atomic antecedents'
        # literal projections and types
        self.by_proj: dict[Optional[Proj], int] = defaultdict(int)
        self.by_type: dict[SimpleType, int] = defaultdict(int)
        self.needs: list[tuple[tuple[Proj, SimpleType], ...]] = []

    def fresh(self) -> int:
        return next(self.counter)

    def add(self, f: Formula) -> int:
        self.fresh()  # every entry takes a uid, as printed uids count them
        bit = 1 << len(self.slots)
        self.slots.append(f)
        needs, f = [], f.body if isinstance(f, Forall) else f
        while isinstance(f, Impl):
            if isinstance(f.left, GlueAtom) \
                    and isinstance(f.left.proj, _LITERAL):
                needs.append((f.left.proj, f.left.result_type))
            f = f.right
        self.needs.append(tuple(needs))
        self.by_proj[f.proj if isinstance(f.proj, _LITERAL) else None] |= bit
        self.by_type[f.result_type] |= bit
        return bit

    def candidates(self, proj: Proj, ty: SimpleType) -> int:
        """The slots whose head may match an atom of proj and type ty."""
        heads = self.by_proj[None] | self.by_proj.get(proj, 0) \
            if isinstance(proj, _LITERAL) else -1  # a hole matches any head
        if self.limits.typed_scope:
            heads &= self.by_type.get(ty, 0)
        return heads


class _Subst:
    """Bindings for holes of both sorts by uid, persistent style."""

    __slots__ = ("values",)

    def __init__(self, values=None):
        self.values: dict[int, Union[Term, Proj]] = values or {}

    def bind(self, uid: int, value: Union[Term, Proj]) -> "_Subst":
        return _Subst({**self.values, uid: value})

    def get(self, m: MetaVar) -> Optional[Union[Term, Proj]]:
        """The value bound to hole m, or None; normalize's holes."""
        return self.values.get(m.uid)


def zonk_proj(p: Proj, subst: _Subst) -> Proj:
    while isinstance(p, MetaVar):
        bound = subst.values.get(p.uid)
        if bound is None:
            return p
        p = bound
    return p


def _ground_term(t: Term, subst: _Subst) -> Term:
    """t normalized with its holes filled, a free hole by a placeholder."""
    return normalize(t, lambda m: subst.get(m)
                     or Const(f"arb_{m.name}{m.uid}", m.ty))


def _ground_reading(t: Term, subst: _Subst) -> tuple[Term, _Subst]:
    """A reading's meaning t grounded, and subst with its placeholders bound.

    A free hole becomes arb_<name><k>, k numbering the free holes of a name
    by first occurrence in the normal form, so equal readings compare equal.
    """
    free: list[MetaVar] = []
    t = normalize(t, lambda m: subst.get(m) or free.append(m))
    count: dict[str, int] = {}

    def place(u: Term, _) -> Term:
        nonlocal subst
        if isinstance(u, MetaVar) and not subst.get(u):
            count[u.name] = k = count.get(u.name, 0) + 1
            subst = subst.bind(u.uid, Const(f"arb_{u.name}{k}", u.ty))
        return subst.get(u) if isinstance(u, MetaVar) else u
    t = map_leaves(t, place) if free else t
    return t, subst


def _ground_proj(p: Proj, subst: _Subst) -> Proj:
    p = zonk_proj(p, subst)
    if isinstance(p, MetaVar):
        return SemProjectionRef(f"arb_{p.name}{p.uid}")
    return p


def ground_formula(f: Formula, subst: _Subst) -> Formula:
    return map_atoms(f, lambda a, _: GlueAtom(_ground_proj(a.proj, subst),
                                              _ground_term(a.meaning, subst),
                                              a.result_type))


# ---------------------------------------------------------------------------
# meaning unification (pattern fragment with raising)

def _unify_meaning(a: Term, b: Term, subst: _Subst,
                   state: _State) -> Optional[_Subst]:
    a = normalize(a, subst.get)
    b = normalize(b, subst.get)
    return _unify(a, b, subst, state)


def _unify(a: Term, b: Term, subst: _Subst, state: _State) -> Optional[_Subst]:
    if a == b:
        return subst
    ha, aas = spine(a)
    hb, bas = spine(b)
    a_flex = isinstance(ha, MetaVar)
    b_flex = isinstance(hb, MetaVar)
    if a_flex and b_flex:
        return _unify_flex_flex(ha, aas, hb, bas, subst, state)
    if a_flex:
        return _solve_flex(ha, aas, b, subst, state)
    if b_flex:
        return _solve_flex(hb, bas, a, subst, state)
    # rigid versus rigid
    if isinstance(a, Lam) or isinstance(b, Lam):
        ty = a.ty if isinstance(a, Lam) else b.ty
        eigen = Eigen("x", state.fresh(), ty)
        return _unify(normalize(app(a, eigen)), normalize(app(b, eigen)),
                      subst, state)
    if type(a) is type(b) and isinstance(a, (Up, Down)):
        return _unify(a.body, b.body, subst, state)
    if aas or bas:
        if len(aas) != len(bas):
            return None
        current = _unify_heads(ha, hb, subst, state)
        if current is None:
            return None
        for x, y in zip(aas, bas):
            current = _unify_meaning(x, y, current, state)
            if current is None:
                return None
        return current
    return None


def _unify_heads(ha: Term, hb: Term, subst: _Subst,
                 state: _State) -> Optional[_Subst]:
    if type(ha) is type(hb) and isinstance(ha, (Up, Down)):
        # intension or extension wrappers as application heads
        return _unify(ha, hb, subst, state)
    if isinstance(ha, (Var, Eigen, Const)) \
            and isinstance(hb, (Var, Eigen, Const)):
        return subst if ha == hb else None
    if free_meta_vars(ha) or free_meta_vars(hb):
        return _record_nonpattern(
            state, "application head mixes a hole with rigid structure"
        )
    return None


def _record_nonpattern(state: _State, why: str) -> None:
    if state.stats.nonpattern is None:
        state.stats.nonpattern = why
    return None


def _pattern_args(m: MetaVar, args: Sequence[Term],
                  state: _State) -> Optional[dict[int, tuple[int, bool]]]:
    """Check the pattern condition.

    Maps the uid of each argument's eigenvariable to its position and to
    whether it is passed as an intension.
    """
    out: dict[int, tuple[int, bool]] = {}
    for i, a in enumerate(args):
        intension = isinstance(a, Up)
        if intension:
            a = a.body
        if not isinstance(a, Eigen):
            return _record_nonpattern(
                state, "metavariable applied to a non-variable argument"
            )
        if a.uid <= m.level:
            return _record_nonpattern(
                state, "metavariable applied to an older eigenvariable"
            )
        if a.uid in out:
            return _record_nonpattern(
                state, "metavariable applied to a repeated eigenvariable"
            )
        out[a.uid] = (i, intension)
    return out


def _binder_types(ty: SimpleType, n: int) \
        -> Optional[tuple[list[SimpleType], SimpleType]]:
    """The first n argument types of ty and the type that remains."""
    doms = []
    for _ in range(n):
        if not isinstance(ty, ArrowType):
            return None
        doms.append(ty.dom)
        ty = ty.cod
    return doms, ty


def _lams(doms: Sequence[SimpleType], body: Term) -> Term:
    """Normal body under one binder per domain, the last nearest; as body
    is normal, only these binders can eta-contract."""
    for dom in reversed(doms):
        body = eta_lam(dom, body)
    return body


def _solve_flex(m: MetaVar, raw_args: Sequence[Term], rhs: Term,
                subst: _Subst, state: _State) -> Optional[_Subst]:
    """Solve m(raw_args) = rhs by inverting rhs over the pattern arguments.

    rhs comes normal, its bound holes filled. Pattern argument i of n, seen
    under d binders of rhs, becomes the index d + n - 1 - i of the
    solution's own binders.
    """
    positions = _pattern_args(m, raw_args, state)
    if positions is None:
        return None
    split = _binder_types(m.ty, len(raw_args))
    if split is None:
        return None
    doms = split[0]
    n = len(doms)
    raised: dict[int, MetaVar] = {}  # nested hole uid -> its lifted hole

    def index(i: int, depth: int) -> Bound:
        return Bound(depth + n - 1 - i, doms[i])

    def invert(t: Term, depth: int) -> Optional[Term]:
        if isinstance(t, MetaVar):
            if t.uid == m.uid:
                return None  # occurs check
            if t.level <= m.level:
                return t
            # raise the nested hole over this problem's arguments so its
            # eventual solution can still reach them; a second occurrence
            # reuses the lifted hole
            if t.uid not in raised:
                raised[t.uid] = MetaVar(t.name, state.fresh(),
                                        arrow(*doms, t.ty), m.level)
            return app(raised[t.uid], *[index(i, depth) for i in range(n)])
        if isinstance(t, Eigen):
            if t.uid not in positions:
                return t if t.uid < m.level else None
            i, intension = positions[t.uid]
            return Down(index(i, depth)) if intension else index(i, depth)
        if isinstance(t, Up) and isinstance(t.body, Eigen):
            i, intension = positions.get(t.body.uid, (0, False))
            if intension:
                return index(i, depth)
        if isinstance(t, App):
            parts = [invert(u, depth) for u in (t.fn,) + t.args]
            return None if any(u is None for u in parts) else app(*parts)
        if isinstance(t, Lam):
            body = invert(t.body, depth + 1)
            return None if body is None else Lam(t.ty, body)
        if isinstance(t, (Up, Down)):
            body = invert(t.body, depth)
            return None if body is None else type(t)(body)
        return t  # Var, Const or Bound

    body = invert(rhs, 0)
    if body is None:
        return None
    # read off the spines, this is the check that the solution has m's type
    if type_of(rhs) != split[1] \
            or any(type_of(a) != dom for a, dom in zip(raw_args, doms)):
        return None
    solution = _lams(doms, body)
    for uid, lifted in raised.items():
        subst = subst.bind(uid, app(lifted, *raw_args))
    return subst.bind(m.uid, solution)


def _unify_flex_flex(ma: MetaVar, aas: Sequence[Term], mb: MetaVar,
                     bas: Sequence[Term], subst: _Subst,
                     state: _State) -> Optional[_Subst]:
    """Bind both holes to one fresh hole over the arguments they share.

    For one hole the shared positions are those where both argument lists
    agree; for two holes, the positions of the eigenvariables both receive.
    """
    if _pattern_args(ma, aas, state) is None \
            or _pattern_args(mb, bas, state) is None:
        return None
    a_split = _binder_types(ma.ty, len(aas))
    b_split = _binder_types(mb.ty, len(bas))
    if a_split is None or b_split is None:
        return None
    (a_doms, res_ty), (b_doms, _) = a_split, b_split
    if ma.uid == mb.uid:
        if len(aas) != len(bas):
            return None
        shared = [(i, i) for i, (x, y) in enumerate(zip(aas, bas)) if x == y]
    else:
        b_index = {y: j for j, y in enumerate(bas)}
        shared = [(i, b_index[x]) for i, x in enumerate(aas) if x in b_index]
    na, nb = len(aas), len(bas)
    fresh_ty = arrow(*[a_doms[i] for i, _ in shared], res_ty)
    fresh = MetaVar(ma.name, state.fresh(), fresh_ty,
                    min(ma.level, mb.level))
    out = subst.bind(ma.uid, _lams(a_doms, app(
        fresh, *[Bound(na - 1 - i, a_doms[i]) for i, _ in shared])))
    return out.bind(mb.uid, _lams(b_doms, app(
        fresh, *[Bound(nb - 1 - j, b_doms[j]) for _, j in shared])))


# ---------------------------------------------------------------------------
# projection unification

def _unify_proj(a: Proj, b: Proj, subst: _Subst) -> Optional[_Subst]:
    a = zonk_proj(a, subst)
    b = zonk_proj(b, subst)
    if a == b:
        return subst
    if isinstance(b, MetaVar) \
            and (not isinstance(a, MetaVar) or a.level < b.level):
        a, b = b, a  # a is the hole to bind, the newer one of two holes
    if not isinstance(a, MetaVar):
        return None
    if isinstance(b, (Eigen, MetaVar)) and b.ty != a.ty:
        return None
    if isinstance(b, Eigen) and b.uid >= a.level:
        return None
    return subst.bind(a.uid, b)


def _unify_atoms(goal: GlueAtom, head: GlueAtom, subst: _Subst,
                 state: _State) -> Optional[_Subst]:
    if goal.result_type != head.result_type:
        if state.limits.typed_scope:
            return None
        state.stats.ill_typed_attempts += 1
    out = _unify_proj(goal.proj, head.proj, subst)
    if out is None:
        return None
    return _unify_meaning(goal.meaning, head.meaning, out, state)


# ---------------------------------------------------------------------------
# focused search

@dataclass
class _SNode:
    kind: str
    consumed: int  # the slots the subproof uses
    eigen: Optional[Eigen] = None
    entry: int = 0  # the focused entry's or the hypothesis's slot bit
    insts: tuple = ()
    ants: tuple["_SNode", ...] = ()
    child: Optional["_SNode"] = None


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _solve_goal_hole(binder: Binder, uid: int) -> MetaVar:
    """A fresh hole for instantiating a premise-side quantifier."""
    return MetaVar(binder.name, uid, binder.ty, uid)


def _holes(f: Formula, make: Callable, state: _State) \
        -> tuple[list, Formula]:
    """make's value for each binder of f's quantifier run, and the body.

    make is _solve_goal_hole or _goal_eigen. The values come in binding
    order, as open_formula takes them; f without a run is its own body.
    """
    if not isinstance(f, Forall):
        return [], f
    return [make(b, state.fresh()) for b in f.binders], f.body


def _goal_eigen(binder: Binder, uid: int) -> Eigen:
    """A fresh eigenvariable for proving a goal-side quantifier."""
    return Eigen(binder.name, uid, binder.ty)


def _solve(ctx: int, goal: Formula, subst: _Subst, depth: int,
           state: _State) -> Iterator[tuple[_Subst, int, _SNode]]:
    if depth > state.limits.max_depth:
        state.stats.limit_hit = True
        return
    state.stats.nodes += 1
    if isinstance(goal, Forall):
        eigens, body = _holes(goal, _goal_eigen, state)
        for out, ctx_out, node in _solve(ctx, open_formula(body, eigens),
                                         subst, depth + len(eigens), state):
            for eigen in reversed(eigens):
                node = _SNode("forall_right", node.consumed, eigen=eigen,
                              child=node)
            yield out, ctx_out, node
        return
    if isinstance(goal, Impl):
        hyp = state.add(goal.left)
        for out, ctx_out, node in _solve(ctx | hyp, goal.right, subst,
                                         depth + 1, state):
            if ctx_out & hyp:
                continue  # the hypothesis must be consumed
            yield out, ctx_out, _SNode("impl_right", ctx & ~ctx_out,
                                       entry=hyp, child=node)
        return
    if not isinstance(goal, GlueAtom):
        raise TypeError(f"not a formula: {goal!r}")
    # skip an entry with an atomic antecedent that nothing left can produce:
    # a context only shrinks past a proved antecedent, so none will appear
    for bit in _bits(ctx & state.candidates(zonk_proj(goal.proj, subst),
                                            goal.result_type)):
        rest = ctx ^ bit
        if all(rest & state.candidates(*need)
               for need in state.needs[bit.bit_length() - 1]):
            yield from _focus(bit, rest, goal, subst, depth + 1, state)


def _focus(entry: int, ctx: int, goal: GlueAtom, subst: _Subst, depth: int,
           state: _State) -> Iterator[tuple[_Subst, int, _SNode]]:
    """Use the entry whose slot bit is entry on the atomic goal, as a clause.

    The head is opened and unified first, so an entry whose head fails
    costs one atom; each antecedent is opened when it is reached.
    """
    if depth > state.limits.max_depth:
        state.stats.limit_hit = True
        return
    insts, f = _holes(state.slots[entry.bit_length() - 1], _solve_goal_hole,
                      state)
    antecedents: list[Formula] = []
    while isinstance(f, Impl):
        antecedents.append(f.left)
        f = f.right
    unified = _unify_atoms(goal, open_formula(f, insts), subst, state)
    if unified is None:
        return

    def prove_antecedents(
        index: int, ctx_cur: int, subst_cur: _Subst,
        done: tuple[_SNode, ...],
    ) -> Iterator[tuple[_Subst, int, _SNode]]:
        if index == len(antecedents):
            yield subst_cur, ctx_cur, _SNode("focus", entry | ctx & ~ctx_cur,
                                             entry=entry, insts=tuple(insts),
                                             ants=done)
            return
        antecedent = open_formula(antecedents[index], insts)
        for out, ctx_out, node in _solve(ctx_cur, antecedent, subst_cur,
                                         depth + 1, state):
            yield from prove_antecedents(index + 1, ctx_out, out,
                                         done + (node,))

    yield from prove_antecedents(0, ctx, unified, ())


# ---------------------------------------------------------------------------
# ground proof reconstruction

def _replay(node: _SNode, ctx: dict[int, Formula], goal: Formula,
            subst: _Subst) -> Proof:
    """Rebuild the ground derivation a search node records.

    ctx maps slot bits to ground formulas; introducing an implication adds
    its hypothesis. A focused entry is shown at each stage of its
    decomposition, with its meanings normalized, without being written back.
    """
    def sequent(mask: int, focused: Optional[Formula] = None):
        return Sequent(tuple(focused if bit == node.entry else ctx[bit]
                             for bit in _bits(mask)), goal)

    if node.kind == "forall_right":
        seq = sequent(node.consumed)
        child = _replay(node.child, ctx, instantiate(goal, node.eigen), subst)
        return Proof("forall_right", seq, (child,), eigen=node.eigen)
    if node.kind == "impl_right":
        seq = sequent(node.consumed)
        ctx[node.entry] = goal.left
        child = _replay(node.child, ctx, goal.right, subst)
        return Proof("impl_right", seq, (child,))
    if node.kind != "focus":
        raise ValueError(f"unknown search node {node.kind}")
    f, mask = ctx[node.entry], node.consumed
    chain: list[Proof] = []  # forall_left* then impl_left*, top down
    for hole in node.insts:
        value = _ground_proj(hole, subst) if isinstance(hole.ty, ProjType) \
            else _ground_term(hole, subst)
        chain.append(Proof("forall_left", sequent(mask, f),
                           instantiation=value))
        f = normalize_meanings(instantiate(f, value))
    for ant in node.ants:
        seq = sequent(mask, f)
        left = _replay(ant, ctx, f.left, subst)
        chain.append(Proof("impl_left", seq, (left,)))
        mask &= ~ant.consumed
        f = f.right
    proof = Proof("axiom", sequent(mask, f))
    for step in reversed(chain):
        step.children += (proof,)
        proof = step
    return proof


# ---------------------------------------------------------------------------
# public interface

def prepare_premises(premises: Sequence[Union[Premise, Formula]]) \
        -> list[Formula]:
    """Split and curry the premises the way the search consumes them.

    A bare tensor premise is two resources, so it is split before currying;
    tensors in antecedent positions are curried away and curry refuses any
    other. No formula the search sees holds a tensor, so it has no tensor
    rule.
    """
    out = []
    for p in premises:
        f = p.formula if isinstance(p, Premise) else p
        out.extend(curry(part) for part in operands(f))
    return out


def _prepare_goal(goal: Union[Formula, SemProjectionRef, str],
                  state: _State) -> Formula:
    if isinstance(goal, str):
        goal = SemProjectionRef(goal)
    if isinstance(goal, SemProjectionRef):
        uid = state.fresh()
        return GlueAtom(goal, MetaVar("R", uid, T, uid), T)
    return curry(goal)


def _derivations(premises: Sequence[Union[Premise, Formula]],
                 goal: Union[Formula, SemProjectionRef, str],
                 limits: Optional[SearchLimits],
                 stats: Optional[SearchStats]):
    """Search, keeping each result that uses every premise.

    Returns the prepared premises, slots 0 to n - 1, the prepared goal, per
    result its substitution and search node, and the stats. An empty result
    after a problem outside the pattern fragment may be incomplete, so it
    raises.
    """
    stats = stats if stats is not None else SearchStats()
    state = _State(limits or SearchLimits(), stats)
    goal_formula = _prepare_goal(goal, state)
    initial = prepare_premises(premises)
    ctx = sum(state.add(f) for f in initial)
    results = [(subst, node) for subst, rest, node in _solve(
        ctx, goal_formula, _Subst(), 0, state)
        if not rest]  # linear logic: every premise must be used
    stats.proofs_found = len(results)
    if not results and stats.nonpattern is not None:
        raise NonPatternUnification(
            "search failed and hit a unification problem outside the "
            f"pattern fragment: {stats.nonpattern}"
        )
    return initial, goal_formula, results, stats


def _proof(initial: list[Formula], goal: Formula, subst: _Subst,
           node: _SNode) -> Proof:
    ctx = {1 << i: ground_formula(f, subst) for i, f in enumerate(initial)}
    return _replay(node, ctx, ground_formula(goal, subst), subst)


def prove(premises: Sequence[Union[Premise, Formula]],
          goal: Union[Formula, SemProjectionRef, str],
          limits: Optional[SearchLimits] = None,
          stats: Optional[SearchStats] = None) -> list[Proof]:
    """All cut-free derivations of the goal that use every premise once."""
    initial, goal, results, _ = _derivations(premises, goal, limits, stats)
    return [_proof(initial, goal, *result) for result in results]


def derive_readings(premises: Sequence[Union[Premise, Formula]],
                    goal: Union[SemProjectionRef, str],
                    limits: Optional[SearchLimits] = None,
                    stats: Optional[SearchStats] = None) -> list[Reading]:
    """Distinct normalized meanings derivable for a projection."""
    initial, goal, results, stats = _derivations(premises, goal, limits, stats)
    by_key: dict[str, Reading] = {}
    for subst, node in results:
        meaning, subst = _ground_reading(goal.meaning, subst)
        key = canonical_key(meaning)
        if key not in by_key:  # other proofs of one meaning add no reading
            by_key[key] = Reading(meaning, None, (initial, goal, subst, node))
    stats.readings = len(by_key)
    return [by_key[k] for k in sorted(by_key)]


def prove_theorem(goal: Formula,
                  limits: Optional[SearchLimits] = None,
                  stats: Optional[SearchStats] = None) -> Proof:
    """Prove a closed formula from no premises; the first proof found."""
    initial, prepared, results, stats = _derivations((), goal, limits, stats)
    if not results:
        raise NotProvable(f"not provable: {format_glue(goal)}",
                          limit_hit=stats.limit_hit)
    return _proof(initial, prepared, *results[0])


# ---------------------------------------------------------------------------
# trace serialization


def _trace_value(v: Union[Term, Proj]) -> str:
    return format_term(v) if isinstance(v, Term) else format_proj(v)


def _glue_texts() -> Callable[[Formula], str]:
    """format_glue once per formula object of the proof being rendered."""
    seen: dict[int, str] = {}
    return lambda f: seen.get(id(f)) or seen.setdefault(id(f), format_glue(f))


def format_proof(proof: Proof) -> str:
    """Indented rule-per-line rendering of a derivation tree, in pre-order."""
    glue = _glue_texts()
    lines: list[str] = []
    stack = [(proof, 0)]
    while stack:
        p, depth = stack.pop()
        note = ""
        if p.eigen is not None:
            note = f"  [fresh {_trace_value(p.eigen)}]"
        elif p.instantiation is not None:
            note = f"  [:= {_trace_value(p.instantiation)}]"
        context = ", ".join(map(glue, p.sequent.context))
        lines.append(f"{'  ' * depth}{p.rule}: {context} |- "
                     f"{glue(p.sequent.goal)}{note}")
        stack.extend((c, depth + 1) for c in reversed(p.children))
    return "\n".join(lines)


def proof_json(proof: Proof) -> dict:
    """Nested dict mirror of the proof, ready for json.dump."""
    glue = _glue_texts()

    def mirror(proof: Proof) -> dict:
        node: dict = {
            "rule": proof.rule,
            "context": [glue(f) for f in proof.sequent.context],
            "goal": glue(proof.sequent.goal),
        }
        substitution = {key: _trace_value(value) for key, value in (
            ("fresh", proof.eigen), ("value", proof.instantiation))
            if value is not None}
        if substitution:
            node["substitution"] = substitution
        node["children"] = [mirror(c) for c in proof.children]
        return node
    return mirror(proof)
