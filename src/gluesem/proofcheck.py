"""Independent validation of derivation trees.

check_proof re-derives every rule application from the sequents alone, so a
bug in the search cannot hide: resources must be consumed exactly once,
eigenvariables must be fresh where they are introduced, quantifier
instantiations must typecheck, and axioms must close on genuinely equal
atoms. It accepts exactly the rules the search emits: axiom, impl_right,
forall_right, forall_left and impl_left. There is no tensor rule, because
a stated root is prepared as the search prepares it: a pair premise counts
as its two halves and tensor antecedents, in the premises and in the goal,
are curried into nested implications. Nothing here shares state with the
search; only the formula and term layers are reused.

Each sequent's context is counted once, as a multiset of meaning-normalized
formulas. A rule is checked by its delta: what the parent holds that its
subproofs together lack (dropped), and what they hold that it lacks (added).
impl_right adds its antecedent; forall_right changes nothing; forall_left
drops one quantified formula and adds its instance; impl_left drops one
implication and adds its consequent to the right subproof.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Union

from .errors import InvalidStep
from .fstructure import SemProjectionRef
from .glue import (
    Forall,
    Formula,
    GlueAtom,
    Impl,
    ProjEigen,
    atoms,
    curry,
    instantiate,
    normalize_meanings,
)
from .lexicon import Premise
from .prover import Proof, Sequent, prepare_premises
from .terms import Eigen, MetaVar, _collect, normalize
from .types import T


def _key(f: Formula) -> Formula:
    """f with meanings normalized; binders are nameless, so == is alpha."""
    return normalize_meanings(f)


def _multiset(fs: Sequence[Formula]) -> Counter:
    return Counter(_key(f) for f in fs)


def _eigen_occurs(eigen: Union[Eigen, ProjEigen], f: Formula) -> bool:
    return any(atom.proj == eigen or eigen in _collect(atom.meaning, Eigen)
               for atom in atoms(f))


def check_proof(proof: Proof,
                sequent: Optional[Sequent] = None,
                premises: Optional[Sequence[Union[Premise, Formula]]] = None,
                goal: Union[Formula, SemProjectionRef, str, None] = None) -> None:
    """Raise InvalidStep at the first rule application that does not hold.

    When a sequent (or premises/goal) is supplied, the root of the proof is
    additionally checked against it. A goal atom whose meaning is a search
    hole matches any meaning at the same projection and index, so the stated
    goal of a reading derivation can be checked before the reading is known.
    """
    if sequent is not None:
        premises = list(sequent.context) if premises is None else premises
        goal = sequent.goal if goal is None else goal
    if isinstance(goal, str):
        goal = SemProjectionRef(goal)
    if isinstance(goal, SemProjectionRef):
        goal = GlueAtom(goal, MetaVar("R", 0, T, 0), T)
    elif goal is not None:
        goal = curry(goal)  # the search proves the curried goal
    ms = _multiset(proof.sequent.context)
    if premises is not None and ms != _multiset(prepare_premises(premises)):
        raise InvalidStep((), "root context differs from the stated premises")
    if goal is not None and not _goal_matches(goal, proof.sequent.goal):
        raise InvalidStep((), "root goal differs from the stated goal")
    _check_tree(proof, ms)


def _goal_matches(stated: Formula, actual: Formula) -> bool:
    if (isinstance(stated, GlueAtom) and isinstance(stated.meaning, MetaVar)
            and isinstance(actual, GlueAtom)):
        return (stated.proj == actual.proj
                and stated.result_type == actual.result_type)
    return _key(stated) == _key(actual)


def _fail(path: tuple[int, ...], reason: str):
    raise InvalidStep(path, reason)


def _check_tree(proof: Proof, ms: Counter) -> None:
    """Check every step in pre-order; ms counts the root's context."""
    stack = [(proof, (), ms)]
    while stack:
        p, path, ms = stack.pop()
        checker = _RULES.get(p.rule)
        if checker is None:
            _fail(path, f"unknown rule {p.rule!r}")
        kids = [_multiset(c.sequent.context) for c in p.children]
        below = sum(kids, Counter())
        checker(p, path, kids, ms - below, below - ms)
        for i in reversed(range(len(kids))):
            stack.append((p.children[i], path + (i,), kids[i]))


def _expect_children(p: Proof, path, n: int) -> None:
    if len(p.children) != n:
        _fail(path, f"{p.rule} expects {n} subproofs, found {len(p.children)}")


def _one(ms: Counter) -> Optional[Formula]:
    """The formula ms holds, when it holds exactly one."""
    held = list(ms.elements())
    return held[0] if len(held) == 1 else None


def _check_axiom(p: Proof, path, kids, dropped, added) -> None:
    _expect_children(p, path, 0)
    ctx = p.sequent.context
    goal = p.sequent.goal
    if not isinstance(goal, GlueAtom):
        _fail(path, "axiom goal is not atomic")
    if len(ctx) != 1:
        _fail(path, "axiom must consume exactly one resource")
    hyp = ctx[0]
    if not isinstance(hyp, GlueAtom):
        _fail(path, "axiom hypothesis is not atomic")
    if hyp.proj != goal.proj:
        _fail(path, "axiom connects different projections")
    if hyp.result_type != goal.result_type:
        _fail(path, "axiom connects resources of different indices")
    if normalize(hyp.meaning) != normalize(goal.meaning):
        _fail(path, "axiom meanings differ")


def _check_impl_right(p: Proof, path, kids, dropped, added) -> None:
    _expect_children(p, path, 1)
    goal = p.sequent.goal
    if not isinstance(goal, Impl):
        _fail(path, "impl_right goal is not an implication")
    if _key(p.children[0].sequent.goal) != _key(goal.right):
        _fail(path, "subproof does not conclude the consequent")
    if dropped or added != Counter([_key(goal.left)]):
        _fail(path, "subproof context is not the context plus the antecedent")


def _check_forall_right(p: Proof, path, kids, dropped, added) -> None:
    _expect_children(p, path, 1)
    goal = p.sequent.goal
    if not isinstance(goal, Forall):
        _fail(path, "forall_right goal is not quantified")
    eigen = p.eigen
    if eigen is None:
        _fail(path, "forall_right records no eigenvariable")
    for f in p.sequent.context:
        if _eigen_occurs(eigen, f):
            _fail(path, f"eigenvariable {eigen!r} already occurs in context")
    if _eigen_occurs(eigen, goal):
        _fail(path, f"eigenvariable {eigen!r} already occurs in the goal")
    try:
        opened = instantiate(goal, eigen)
    except Exception as exc:
        _fail(path, f"eigenvariable does not fit the binder: {exc}")
    if _key(p.children[0].sequent.goal) != _key(opened):
        _fail(path, "subproof goal is not the opened quantifier body")
    if dropped or added:
        _fail(path, "forall_right may not change the context")


def _check_forall_left(p: Proof, path, kids, dropped, added) -> None:
    _expect_children(p, path, 1)
    if p.instantiation is None:
        _fail(path, "forall_left records no instantiation")
    if _key(p.children[0].sequent.goal) != _key(p.sequent.goal):
        _fail(path, "forall_left may not change the goal")
    # the hypothesis that was opened is the one formula the child lacks
    f = _one(dropped)
    if isinstance(f, Forall):
        try:
            opened = instantiate(f, p.instantiation)
        except Exception as exc:
            _fail(path, f"instantiation does not fit the binder: {exc}")
        if added == Counter([_key(opened)]):
            return
    _fail(path, "no quantified hypothesis opens to the subproof context")


def _check_impl_left(p: Proof, path, kids, dropped, added) -> None:
    _expect_children(p, path, 2)
    left, right = p.children
    if _key(right.sequent.goal) != _key(p.sequent.goal):
        _fail(path, "impl_left right subproof proves a different goal")
    # A -o B is not B, so the subproofs split the context around A -o B
    # exactly when the signed difference is A -o B against B
    f = _one(dropped)
    if not (isinstance(f, Impl) and added == Counter([f.right])
            and kids[1][f.right] and _key(left.sequent.goal) == f.left):
        _fail(path, "subproofs do not split the context around an implication")


_RULES = {
    "axiom": _check_axiom,
    "impl_right": _check_impl_right,
    "forall_right": _check_forall_right,
    "forall_left": _check_forall_left,
    "impl_left": _check_impl_left,
}
