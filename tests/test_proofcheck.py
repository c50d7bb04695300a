"""The derivation validator must accept search output and reject forgeries."""

import dataclasses

import pytest

from gluesem.errors import InvalidStep
from gluesem.glue import GlueAtom, parse_glue
from gluesem.proofcheck import check_proof
from gluesem.prover import Proof, Sequent, derive_readings, prove_theorem
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
