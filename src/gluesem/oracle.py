"""Exhaustive reference enumeration for cross-checking the search.

This walks the sequent calculus with none of the prover's resource
discipline. Invertible steps are applied outright: a quantified goal gets
fresh eigenvariables and an implication goal moves its antecedent into the
context. At an atomic goal it picks a hypothesis and commits to it,
decomposing it to its atomic head and trying every partition of the
remaining resources at each implication along the way. A run of quantifiers,
in a goal or a hypothesis, opens in one substitution pass, and nothing is
filled in up front: the unifier fills the holes of what it compares as it
normalizes it. The context never holds a pair: prepare_premises splits a
pair premise in two, the premises and the goal are curried, and curry
refuses any pair it cannot curry. The only
sharing with the prover is the term and unification substrate; resource
bookkeeping here is eager multiset partitioning, so a bug in the prover's
input-output threading cannot be mirrored on this side.

Cost grows exponentially in the premise count; meant for small scenarios.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from .fstructure import SemProjectionRef
from .glue import (
    Forall,
    Formula,
    GlueAtom,
    Impl,
    open_formula,
)
from .lexicon import Premise
from .prover import (
    Reading,
    SearchLimits,
    SearchStats,
    _goal_eigen,
    _ground_term,
    _holes,
    _prepare_goal,
    _solve_goal_hole,
    _State,
    _Subst,
    _unify_atoms,
    prepare_premises,
)
from .terms import MetaVar, canonical_key


def oracle_enumerate(premises: Sequence[Union[Premise, Formula]],
                     goal: Union[SemProjectionRef, str],
                     depth: int = 64,
                     stats: Optional[SearchStats] = None) -> list[Reading]:
    """All distinct readings for the goal projection, the slow sure way."""
    own_stats = stats if stats is not None else SearchStats()
    state = _State(SearchLimits(max_depth=depth), own_stats)
    goal_formula = _prepare_goal(goal, state)
    if not isinstance(goal_formula, GlueAtom) \
            or not isinstance(goal_formula.meaning, MetaVar):
        raise TypeError("the oracle enumerates readings of a projection")
    ctx = tuple(prepare_premises(premises))
    readings: dict[str, Reading] = {}
    for subst in _enumerate(ctx, goal_formula, _Subst(), 0, state):
        term = _ground_term(goal_formula.meaning, subst)
        key = canonical_key(term)
        if key not in readings:
            readings[key] = Reading(term, None)
    own_stats.readings = len(readings)
    return [readings[k] for k in sorted(readings)]


def _enumerate(ctx: tuple[Formula, ...], goal: Formula, subst: _Subst,
               depth: int, state: _State) -> Iterator[_Subst]:
    if depth > state.limits.max_depth:
        state.stats.limit_hit = True
        return
    state.stats.nodes += 1
    if isinstance(goal, Forall):
        eigens, meanings, projs, body = _holes(goal, _goal_eigen, state)
        yield from _enumerate(ctx, open_formula(body, meanings, projs), subst,
                              depth + len(eigens), state)
        return
    if isinstance(goal, Impl):
        yield from _enumerate(ctx + (goal.left,), goal.right, subst,
                              depth + 1, state)
        return
    if not isinstance(goal, GlueAtom):
        raise TypeError(f"unexpected goal shape: {goal!r}")
    for i in range(len(ctx)):
        rest = ctx[:i] + ctx[i + 1:]
        yield from _decide(ctx[i], rest, goal, subst, depth + 1, state)


def _decide(f: Formula, rest: tuple[Formula, ...], goal: GlueAtom,
            subst: _Subst, depth: int, state: _State) -> Iterator[_Subst]:
    """Decompose one chosen hypothesis down to its head atom.

    A run of quantifiers opens into fresh holes in one pass, a depth step
    per hole. Each implication tries every way of paying for its antecedent
    out of the unused resources. The final atom must both match the goal
    and leave nothing unconsumed; its holes are not filled first, as the
    unifier fills what it compares.
    """
    if depth > state.limits.max_depth:
        state.stats.limit_hit = True
        return
    state.stats.nodes += 1
    if isinstance(f, Forall):
        holes, meanings, projs, body = _holes(f, _solve_goal_hole, state)
        yield from _decide(open_formula(body, meanings, projs), rest, goal,
                           subst, depth + len(holes), state)
        return
    if isinstance(f, Impl):
        n = len(rest)
        for mask in range(1 << n):
            gamma1 = tuple(rest[j] for j in range(n) if mask >> j & 1)
            gamma2 = tuple(rest[j] for j in range(n) if not mask >> j & 1)
            for mid in _enumerate(gamma1, f.left, subst, depth + 1, state):
                yield from _decide(f.right, gamma2, goal, mid,
                                   depth + 1, state)
        return
    if rest:
        return
    out = _unify_atoms(goal, f, subst, state)
    if out is not None:
        yield out
