"""The derivation validator must accept search output and reject forgeries."""

import dataclasses
import re

import pytest

from gluesem.errors import InvalidStep
from gluesem.glue import GlueAtom, parse_glue
from gluesem.proofcheck import check_proof
from gluesem.prover import (
    Proof,
    Sequent,
    derive_readings,
    prove,
    prove_theorem,
)
from gluesem.terms import Const, Eigen
from gluesem.types import E, parse_type

SIG = {
    "Bill": parse_type("e"),
    "leave": parse_type("e -> t"),
    "meet": parse_type("e -> e -> t"),
}

BILL = parse_glue("g.sig ~> Bill", SIG)
LEAVE = parse_glue("forall X:e. g.sig ~> X -o f.sig ~> leave(X)", SIG)
LEAVE_AT_BILL = parse_glue("g.sig ~> Bill -o f.sig ~> leave(Bill)", SIG)


def nodes(proof):
    yield proof
    for child in proof.children:
        yield from nodes(child)


# ---------------------------------------------------------------------------
# accepting genuine derivations


def test_every_corpus_proof_checks(corpus):
    for scenario, prems in corpus.values():
        readings = derive_readings(prems, scenario.goal)
        assert readings
        for reading in readings:
            check_proof(reading.proof, premises=prems, goal=scenario.goal)


def test_theorem_proofs_check_against_their_statement():
    identity = parse_glue("forall I:proj(e), Z:e. I ~> Z -o I ~> Z", SIG)
    proof = prove_theorem(identity)
    check_proof(proof, premises=(), goal=identity)

    raising = parse_glue(
        "forall I:proj(e), Z:e. I ~> Z -o "
        "(forall S:proj(t), P:e -> t. "
        "(forall x:e. I ~> x -o S ~> P(x)) -o S ~> P(Z))", SIG)
    check_proof(prove_theorem(raising), premises=(), goal=raising)


def test_tensor_antecedent_goal_checks_against_its_statement():
    # the search proves the curried goal; the stated one is curried to match
    goal = parse_glue(
        "forall X:e, Y:e. g.sig ~> X * h.sig ~> Y -o "
        "(forall Z:e, W:e. g.sig ~> Z -o h.sig ~> W -o f.sig ~> meet(Z, W)) "
        "-o f.sig ~> meet(X, Y)", SIG)
    proof = prove_theorem(goal)
    check_proof(proof, premises=(), goal=goal)
    check_proof(proof, Sequent((), goal))


# ---------------------------------------------------------------------------
# rejecting forgeries


def test_root_premise_mismatch(corpus):
    scenario, prems = corpus["bill-left"]
    [reading] = derive_readings(prems, scenario.goal)
    with pytest.raises(InvalidStep, match="root context"):
        check_proof(reading.proof, premises=[BILL, BILL, LEAVE],
                    goal=scenario.goal)


def test_root_goal_mismatch(corpus):
    scenario, prems = corpus["bill-left"]
    [reading] = derive_readings(prems, scenario.goal)
    with pytest.raises(InvalidStep, match="root goal"):
        check_proof(reading.proof, premises=prems, goal="g")


def test_unknown_rule_rejected(corpus):
    scenario, prems = corpus["bill-left"]
    [reading] = derive_readings(prems, scenario.goal)
    forged = dataclasses.replace(reading.proof, rule="modus_ponens")
    with pytest.raises(InvalidStep, match="unknown rule"):
        check_proof(forged)


def test_tensor_left_is_not_a_rule():
    # the calculus has no tensor-left step: pairs are split or curried away
    # before the search, so the checker accepts no such node
    pair = parse_glue("g.sig ~> Bill * g.sig ~> Bill", SIG)
    forged = Proof("tensor_left", Sequent((pair,), BILL), (
        Proof("axiom", Sequent((BILL, BILL), BILL)),
    ))
    with pytest.raises(InvalidStep, match="unknown rule 'tensor_left'"):
        check_proof(forged)


def test_axiom_must_connect_equal_atoms():
    al = GlueAtom(BILL.proj, Const("Al", E), E)
    forged = Proof("axiom", Sequent((BILL,), al))
    with pytest.raises(InvalidStep, match="meanings differ"):
        check_proof(forged)


def test_axiom_must_consume_exactly_one_resource():
    forged = Proof("axiom", Sequent((BILL, BILL), BILL))
    with pytest.raises(InvalidStep, match="exactly one resource"):
        check_proof(forged)


def test_duplicated_resource_use_is_caught():
    f_atom = LEAVE_AT_BILL.right
    # both subproofs claim the single Bill resource
    forged = Proof(
        "impl_left",
        Sequent((BILL, LEAVE_AT_BILL), f_atom),
        (
            Proof("axiom", Sequent((BILL,), BILL)),
            Proof("impl_left", Sequent((BILL, f_atom), f_atom), (
                Proof("axiom", Sequent((BILL,), BILL)),
                Proof("axiom", Sequent((f_atom,), f_atom)),
            )),
        ),
    )
    with pytest.raises(InvalidStep, match="split the context"):
        check_proof(forged)


def test_eigenvariable_escape_is_caught():
    identity = parse_glue("forall I:proj(e), Z:e. I ~> Z -o I ~> Z", SIG)
    proof = prove_theorem(identity)
    inner = next(p for p in nodes(proof)
                 if p.rule == "forall_right" and isinstance(p.eigen, Eigen))
    # smuggle the about-to-be-introduced eigenvariable into the context
    leak = GlueAtom(BILL.proj, inner.eigen, E)
    forged = dataclasses.replace(
        inner,
        sequent=dataclasses.replace(
            inner.sequent, context=(leak,) + inner.sequent.context
        ),
    )
    with pytest.raises(InvalidStep, match="already occurs"):
        check_proof(forged)


def test_ill_typed_instantiation_is_caught(corpus):
    scenario, prems = corpus["bill-left"]
    [reading] = derive_readings(prems, scenario.goal)
    root = reading.proof
    assert root.rule == "forall_left"
    forged = dataclasses.replace(
        root, instantiation=Const("leave", parse_type("e -> t"))
    )
    with pytest.raises(InvalidStep):
        check_proof(forged)


def test_error_reports_the_failing_path(corpus):
    scenario, prems = corpus["bill-left"]
    [reading] = derive_readings(prems, scenario.goal)
    inner = reading.proof.children[0]
    forged = dataclasses.replace(
        reading.proof,
        children=(dataclasses.replace(inner, rule="cut"),),
    )
    with pytest.raises(InvalidStep) as exc_info:
        check_proof(forged)
    assert exc_info.value.path == (0,)


# ---------------------------------------------------------------------------
# every rule reason, each from one forgery
#
# A forgery is a bare axiom or an edit of one of two genuine proofs: `b`
# proves bill-left by forall_left over impl_left over two axioms; `t` proves
# the theorem forall Z:e. g.sig ~> Z -o g.sig ~> Z by forall_right over
# impl_right over an axiom. The forged node is the root of what is checked,
# so every reason is reported at the root path. A reason is a pattern.


def _with(p, context=None, goal=None, **fields):
    sequent = dataclasses.replace(
        p.sequent,
        context=p.sequent.context if context is None else context,
        goal=p.sequent.goal if goal is None else goal,
    )
    return dataclasses.replace(p, sequent=sequent, **fields)


def _child(p, i, child):
    children = list(p.children)
    children[i] = child
    return dataclasses.replace(p, children=tuple(children))


BILL_AT_F = parse_glue("f.sig ~> Bill", SIG)
BILL_AS_T = GlueAtom(BILL.proj, BILL.meaning, parse_type("t"))
AL = Const("Al", E)

FORGERIES = [
    ("unknown rule 'cut'", lambda b, t: _with(b, rule="cut")),
    ("axiom expects 0 subproofs, found 1",
     lambda b, t: _with(b.children[0].children[0],
                        children=(b.children[0].children[1],))),
    ("impl_left expects 2 subproofs, found 1",
     lambda b, t: _with(b.children[0], children=b.children[0].children[:1])),
    ("axiom goal is not atomic",
     lambda b, t: Proof("axiom", Sequent((BILL,), LEAVE_AT_BILL))),
    ("axiom must consume exactly one resource",
     lambda b, t: Proof("axiom", Sequent((BILL, BILL), BILL))),
    ("axiom hypothesis is not atomic",
     lambda b, t: Proof("axiom", Sequent((LEAVE_AT_BILL,), BILL))),
    ("axiom connects different projections",
     lambda b, t: Proof("axiom", Sequent((BILL,), BILL_AT_F))),
    ("axiom connects resources of different indices",
     lambda b, t: Proof("axiom", Sequent((BILL,), BILL_AS_T))),
    ("axiom meanings differ",
     lambda b, t: Proof("axiom", Sequent(
         (BILL,), GlueAtom(BILL.proj, AL, E)))),
    ("impl_right goal is not an implication",
     lambda b, t: _with(t.children[0],
                        goal=t.children[0].sequent.goal.right)),
    ("subproof does not conclude the consequent",
     lambda b, t: _child(t.children[0], 0, b.children[0].children[0])),
    ("subproof context is not the context plus the antecedent",
     lambda b, t: _child(t.children[0], 0,
                         _with(t.children[0].children[0], context=()))),
    ("forall_right goal is not quantified",
     lambda b, t: _with(t, goal=t.children[0].sequent.goal)),
    ("forall_right records no eigenvariable",
     lambda b, t: _with(t, eigen=None)),
    (r"eigenvariable .* already occurs in context",
     lambda b, t: _with(t, context=(GlueAtom(BILL.proj, t.eigen, E),))),
    (r"eigenvariable .* already occurs in the goal",
     lambda b, t: _with(t, goal=dataclasses.replace(
         t.sequent.goal, body=t.children[0].sequent.goal))),
    ("eigenvariable does not fit the binder: .*",
     lambda b, t: _with(t, eigen=dataclasses.replace(
         t.eigen, ty=parse_type("t")))),
    ("subproof goal is not the opened quantifier body",
     lambda b, t: _with(t, eigen=dataclasses.replace(
         t.eigen, uid=t.eigen.uid + 1000))),
    ("forall_right may not change the context",
     lambda b, t: _child(t, 0, _with(t.children[0], context=(BILL,)))),
    ("forall_left records no instantiation",
     lambda b, t: _with(b, instantiation=None)),
    ("forall_left may not change the goal",
     lambda b, t: _child(b, 0, _with(b.children[0], goal=BILL))),
    ("no quantified hypothesis opens to the subproof context",
     lambda b, t: _with(b, instantiation=AL)),
    ("instantiation does not fit the binder: .*",
     lambda b, t: _with(b, instantiation=Const("leave", parse_type("e -> t")))),
    ("impl_left right subproof proves a different goal",
     lambda b, t: _child(b.children[0], 1, b.children[0].children[0])),
    ("subproofs do not split the context around an implication",
     lambda b, t: _with(b.children[0],
                        context=(BILL,) + b.children[0].sequent.context)),
]


def _assert_rejected(corpus, reason, forge):
    scenario, prems = corpus["bill-left"]
    [reading] = derive_readings(prems, scenario.goal)
    theorem = parse_glue("forall Z:e. g.sig ~> Z -o g.sig ~> Z", SIG)
    forged = forge(reading.proof, prove_theorem(theorem))
    with pytest.raises(InvalidStep) as exc_info:
        check_proof(forged)
    assert re.fullmatch(reason, exc_info.value.reason)
    assert exc_info.value.path == ()


@pytest.mark.parametrize(
    "reason,forge", FORGERIES, ids=[reason for reason, _ in FORGERIES])
def test_each_rule_reason_is_reported(corpus, reason, forge):
    _assert_rejected(corpus, reason, forge)


def test_a_root_context_may_hold_a_formula_twice():
    premises = [BILL, BILL, parse_glue(
        "forall X:e, Y:e. g.sig ~> X -o g.sig ~> Y -o f.sig ~> meet(X, Y)",
        SIG)]
    proofs = prove(premises, "f")
    assert len(proofs) == 2  # the two Bill resources fill X and Y both ways
    assert len(derive_readings(premises, "f")) == 1
    for proof in proofs:
        check_proof(proof, premises=premises, goal="f")


# Forgeries that pass every check of their rule but one part of its context
# delta. Each is named by what it gets wrong.
DELTA_FORGERIES = {
    "impl_left consequent in the left subproof": (
        "subproofs do not split the context around an implication",
        lambda b, t: _with(b.children[0], children=(
            Proof("axiom", Sequent((BILL, LEAVE_AT_BILL.right), BILL)),
            Proof("axiom", Sequent((), LEAVE_AT_BILL.right)),
        ))),
    "impl_left left goal is not the antecedent": (
        "subproofs do not split the context around an implication",
        lambda b, t: _child(b.children[0], 0, _with(
            b.children[0].children[0], goal=BILL_AT_F))),
    "impl_right drops a resource": (
        "subproof context is not the context plus the antecedent",
        lambda b, t: _with(t.children[0], context=(BILL,))),
    "forall_right drops a resource": (
        "forall_right may not change the context",
        lambda b, t: _with(t, context=(BILL,))),
}


@pytest.mark.parametrize("case", DELTA_FORGERIES)
def test_each_part_of_a_context_delta_is_checked(corpus, case):
    _assert_rejected(corpus, *DELTA_FORGERIES[case])
