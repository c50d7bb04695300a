"""Backward-chaining search: readings, theorems, resource accounting."""

import importlib.util
import inspect
import itertools
import math
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from gluesem import prover
from gluesem.errors import (
    GlueFormulaError,
    NonPatternUnification,
    NotProvable,
)
from gluesem.glue import (
    Binder,
    Tensor,
    atoms,
    curry,
    format_glue,
    format_proj,
    parse_glue,
)
from gluesem.fstructure import SemProjectionRef
from gluesem.lexicon import load_scenario, parse_lexicon, parse_scenario
from gluesem.lexicon import premises as lexicon_premises
from gluesem.oracle import oracle_enumerate
from gluesem.proofcheck import check_proof
from gluesem.prover import (
    Proof,
    SearchLimits,
    SearchStats,
    _State,
    _Subst,
    _goal_eigen,
    _unify,
    _unify_meaning,
    _unify_proj,
    derive_readings,
    format_proof,
    prepare_premises,
    proof_json,
    prove,
    prove_theorem,
)
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
    format_term,
    free_meta_vars,
    normalize,
)
from gluesem.types import E, T, ProjType, parse_type

SIG = {
    "Bill": parse_type("e"),
    "Al": parse_type("e"),
    "leave": parse_type("e -> t"),
    "seek": parse_type("e -> (s -> ((s -> (e -> t)) -> t)) -> t"),
}

BILL = "g.sig ~> Bill"
AL_H = "h.sig ~> Al"
LEAVE = "forall X:e. g.sig ~> X -o f.sig ~> leave(X)"
SEEKS = ("forall Z:e, Y:(s -> (e -> t)) -> t. "
         "g.sig ~> Z * (forall s:proj(t), p:e -> t. "
         "(forall X:e. h.sig ~> X -o s ~> p(X)) -o s ~> Y(^p)) "
         "-o f.sig ~> seek(Z, ^Y)")


def glue(text):
    return parse_glue(text, SIG)


# ---------------------------------------------------------------------------
# basic sequents


def test_subject_plus_verb_has_one_proof():
    proofs = prove([glue(BILL), glue(LEAVE)], "f")
    assert len(proofs) == 1
    assert isinstance(proofs[0], Proof)


def test_goal_from_empty_context_fails():
    assert prove((), "f") == []


def test_unused_resource_blocks_the_proof():
    # two copies of the subject: one must go unconsumed, so no proof
    assert prove([glue(BILL), glue(BILL)], "g") == []


def test_readings_report_the_meaning():
    readings = derive_readings([glue(BILL), glue(LEAVE)], "f")
    assert [format_term(r.meaning) for r in readings] == ["leave(Bill)"]


# ---------------------------------------------------------------------------
# derived lemmas: proving universally quantified formulas


def test_type_raising_holds_with_no_premises():
    raising = glue(
        "forall I:proj(e), Z:e. I ~> Z -o "
        "(forall S:proj(t), P:e -> t. "
        "(forall x:e. I ~> x -o S ~> P(x)) -o S ~> P(Z))"
    )
    assert isinstance(prove_theorem(raising), Proof)


def test_identity_implication_holds():
    identity = glue("forall I:proj(e), Z:e. I ~> Z -o I ~> Z")
    assert isinstance(prove_theorem(identity), Proof)


def test_distinct_eigenvariables_cannot_be_conflated():
    bogus = glue("forall I:proj(e), Z:e, W:e. I ~> Z -o I ~> W")
    with pytest.raises(NotProvable):
        prove_theorem(bogus)


def test_quantifying_in_lemma():
    # with only the subject and the intensional verb, the object position
    # can be abstracted over: the quantifier may still scope over the verb
    lemma = glue(
        "forall Z:e. h.sig ~> Z -o "
        "f.sig ~> seek(Bill, ^(\\R:(s -> (e -> t)). !R(Z)))"
    )
    proofs = prove([glue(BILL), glue(SEEKS)], lemma)
    assert proofs


def test_raised_entity_lemma():
    # a plain entity premise supports its own raised form
    lemma = glue(
        "forall S:proj(t), P:e -> t. "
        "(forall x:e. h.sig ~> x -o S ~> P(x)) -o S ~> P(Al)"
    )
    assert prove([glue(AL_H)], lemma)


# ---------------------------------------------------------------------------
# corpus readings


CORPUS_READINGS = {
    "bill-left": ["leave(Bill)"],
    "every-man-left": ["every(z, man(z), leave(z))"],
    "bill-finds-al": ["find(Bill, Al)"],
    "bill-seeks-al": ["seek(Bill, ^(\\P:(s -> e -> t). !P(Al)))"],
    "bill-seeks-a-unicorn": [
        "a(z, unicorn(z), seek(Bill, ^(\\P:(s -> e -> t). !P(z))))",
        "seek(Bill, ^(\\P:(s -> e -> t). a(z, unicorn(z), !P(z))))",
    ],
}


@pytest.mark.parametrize("name", sorted(CORPUS_READINGS))
def test_corpus_reading_sets(corpus, name):
    scenario, prems = corpus[name]
    readings = derive_readings(prems, scenario.goal)
    assert [format_term(r.meaning) for r in readings] == \
        CORPUS_READINGS[name]


def test_conversation_scenario_is_five_ways_ambiguous(corpus):
    scenario, prems = corpus["conversation"]
    assert len(derive_readings(prems, scenario.goal)) == 5


def test_reading_order_is_independent_of_premise_order(corpus):
    scenario, prems = corpus["bill-seeks-a-unicorn"]
    baseline = [format_term(r.meaning)
                for r in derive_readings(prems, scenario.goal)]
    for perm in itertools.permutations(prems):
        got = [format_term(r.meaning)
               for r in derive_readings(list(perm), scenario.goal)]
        assert got == baseline


def test_one_meaning_with_a_placeholder_is_one_reading():
    # X is constrained by nothing, so it grounds to a placeholder; the two
    # orders of the two id premises drew different uids for it, and the
    # placeholders are numbered per reading, so the two proofs give one
    # reading, whose proof prints the same name
    sig = {"leave": parse_type("e -> t"), "id": parse_type("t -> t")}
    ident = "forall Q:t. f.sig ~> Q -o f.sig ~> id(Q)"
    prems = [parse_glue(text, sig) for text in [
        "forall X:e. g.sig ~> X", LEAVE, ident, ident]]
    stats = SearchStats()
    [reading] = derive_readings(prems, "f", stats=stats)
    assert stats.proofs_found == 2
    assert format_term(reading.meaning) == "id(id(leave(arb_X1)))"
    assert set(re.findall(r"arb_\w+", format_proof(reading.proof))) == \
        {"arb_X1"}
    check_proof(reading.proof, None, prems, "f")
    [reference] = oracle_enumerate(prems, "f")
    assert reference.meaning == reading.meaning


def test_counts_stable_at_double_depth(corpus):
    scenario, prems = corpus["bill-seeks-a-unicorn"]
    shallow = derive_readings(prems, scenario.goal,
                              SearchLimits(max_depth=64))
    deep = derive_readings(prems, scenario.goal,
                           SearchLimits(max_depth=128))
    assert [format_term(r.meaning) for r in shallow] == \
        [format_term(r.meaning) for r in deep]


# ---------------------------------------------------------------------------
# search accounting


def test_typed_scope_prunes_without_changing_readings(corpus):
    scenario, prems = corpus["bill-seeks-a-unicorn"]
    on, off = SearchStats(), SearchStats()
    with_types = derive_readings(prems, scenario.goal,
                                 SearchLimits(typed_scope=True), on)
    without = derive_readings(prems, scenario.goal,
                              SearchLimits(typed_scope=False), off)
    assert [format_term(r.meaning) for r in with_types] == \
        [format_term(r.meaning) for r in without]
    # with the check off, the search must actually wander into the
    # ill-typed combinations the indices were designed to exclude
    assert off.ill_typed_attempts >= 1
    assert on.ill_typed_attempts == 0


def test_depth_limit_is_flagged_not_silent():
    stats = SearchStats()
    readings = derive_readings([glue(BILL), glue(SEEKS)], "f",
                               SearchLimits(max_depth=2), stats)
    assert readings == []
    assert stats.limit_hit
    # genuinely unprovable sequents do not set the flag
    stats2 = SearchStats()
    assert prove([glue(BILL)], "f", SearchLimits(max_depth=64),
                 stats2) == []
    assert not stats2.limit_hit


def test_nonpattern_unification_is_reported():
    sig = {
        "leave": parse_type("e -> t"),
        "Bill": parse_type("e"),
        "wrap": parse_type("t -> t"),
    }
    premises = [
        parse_glue("h.sig ~> leave(Bill)", sig),
        parse_glue(
            "forall Y:e -> t, Z:e. h.sig ~> Y(Z) -o f.sig ~> wrap(Y(Z))",
            sig,
        ),
    ]
    with pytest.raises(NonPatternUnification):
        derive_readings(premises, "f")


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP 1a/6: non-pattern branch dropped silently")
def test_a_nonpattern_branch_keeps_its_reading():
    # giving P the hole Q and R the meaning leave needs ?Q(Bill) =
    # leave(Bill), which is not a pattern; that branch's reading is lost
    sig = {
        "leave": parse_type("e -> t"),
        "Bill": parse_type("e"),
        "and": parse_type("t -> t -> t"),
    }
    premises = [parse_glue(text, sig) for text in (
        "k.sig ~> leave",
        "forall Q:e -> t. k.sig ~> Q",
        "h.sig ~> leave(Bill)",
        "forall P:e -> t, R:e -> t. k.sig ~> P -o k.sig ~> R -o "
        "h.sig ~> P(Bill) -o g.sig ~> and(P(Bill), R(Bill))",
    )]
    readings = derive_readings(premises, "g")
    assert "and(leave(Bill), leave(Bill))" in {
        format_term(r.meaning) for r in readings}


def _agreed_reading(premises):
    """The one reading, after checking its proof and the oracle's answer."""
    readings = derive_readings(premises, "f")
    for reading in readings:
        check_proof(reading.proof, premises=premises, goal="f")
    assert [format_term(r.meaning) for r in oracle_enumerate(premises, "f")] \
        == [format_term(r.meaning) for r in readings]
    [reading] = readings
    return format_term(reading.meaning)


def test_copy_premise_unifies_two_distinct_holes():
    # the copy premise's head h.sig ~> ?X meets the subgoal h.sig ~> ?Y left
    # by leave: a flex-flex problem between two different holes
    sig = {"Bill": parse_type("e"), "leave": parse_type("e -> t")}
    premises = [
        parse_glue("g.sig ~> Bill", sig),
        parse_glue("forall X:e. g.sig ~> X -o h.sig ~> X", sig),
        parse_glue("forall X:e. h.sig ~> X -o f.sig ~> leave(X)", sig),
    ]
    assert _agreed_reading(premises) == "leave(Bill)"


def test_abstractions_unify_under_a_shared_eigenvariable():
    # both restrictions are abstractions, so unification opens them with one
    # eigenvariable and solves N(x) = x inside
    sig = {"a": parse_type("(e -> t) -> (e -> t) -> t"),
           "find": parse_type("e -> e -> t"),
           "leave": parse_type("e -> t"), "done": parse_type("t")}
    premises = [
        parse_glue("g.sig ~> a(z, find(z, z), leave(z))", sig),
        parse_glue("forall N:e -> e. g.sig ~> a(z, find(N(z), z), leave(z))"
                   " -o f.sig ~> done", sig),
    ]
    assert _agreed_reading(premises) == "done"


def test_nested_hole_raised_once_for_two_occurrences(monkeypatch):
    # ?M(x) = and(?N, ?N) with ?N newer than ?M: inversion raises ?N over x
    # once, and its second occurrence reuses the lifted hole
    m = MetaVar("M", 101, parse_type("e -> t"), 101)
    x = _goal_eigen(Binder("x", E), 102)
    n = MetaVar("N", 103, T, 103)
    lhs = app(m, x)
    rhs = app(app(Const("and", parse_type("t -> t -> t")), n), n)
    bound = []
    bind = _Subst.bind

    def counting_bind(self, uid, value):
        bound.append(uid)
        return bind(self, uid, value)

    monkeypatch.setattr(_Subst, "bind", counting_bind)
    out = _unify_meaning(lhs, rhs, _Subst(),
                         _State(SearchLimits(), SearchStats()))
    assert out is not None
    assert sorted(bound) == [m.uid, n.uid]
    solution = out.values[m.uid]
    [lifted] = free_meta_vars(solution)
    assert lifted.level == m.level
    assert out.values[n.uid] == app(lifted, x)
    assert normalize(lhs, out.get) == normalize(rhs, out.get)


def test_zonk_merges_a_call_that_fills_a_head():
    # ?F(x) with ?F := find(Bill) fills to the one call find(Bill, x)
    find = Const("find", parse_type("e -> e -> t"))
    hole = MetaVar("F", 1, parse_type("e -> t"), 1)
    x = Eigen("x", 2, E)
    subst = _Subst().bind(hole.uid, app(find, Const("Bill", E)))
    out = normalize(app(hole, x), subst.get)
    assert out == App(find, (Const("Bill", E), x))
    assert format_term(out) == "find(Bill, x)"


def test_variables_that_differ_only_in_type_do_not_unify():
    state = _State(SearchLimits(), SearchStats())
    assert _unify(Var("X", E), Var("X", T), _Subst(), state) is None


# edge cases of the pattern fragment: each unifies two sides under a fresh
# state, and the reason it records is the first non-pattern one, if any
ET, EET = parse_type("e -> t"), parse_type("e -> e -> t")
_X, _Y, _Z = Eigen("x", 2, E), Eigen("y", 3, E), Eigen("z", 4, E)
_M = MetaVar("M", 1, ET, 1)
_N = MetaVar("N", 1, EET, 1)
_XI = Eigen("x", 2, parse_type("s -> e"))
_MI = MetaVar("M", 1, parse_type("(s -> s -> e) -> t"), 1)
_OLDER = MetaVar("G", 3, ProjType(T), 3)
_NEWER = MetaVar("H", 5, ProjType(T), 5)


def _meanings(lhs, rhs):
    return lambda subst, state: _unify_meaning(lhs, rhs, subst, state)


def _projs(a, b):
    return lambda subst, state: _unify_proj(a, b, subst)


def _pruned(out, subst):
    # N keeps its first argument, where both sides agree, and drops the other
    solution = out.values[_N.uid]
    [fresh] = free_meta_vars(solution)
    return fresh.ty == ET and fresh.level == _N.level and \
        solution == Lam(E, Lam(E, app(fresh, Bound(1, E))))


UNIFY_CASES = {
    "occurs-check": (
        _meanings(app(_M, _X), app(Const("k", parse_type("t -> t")),
                                   app(_M, _X))),
        lambda out, subst: out is None, None),
    "older-eigenvariable": (
        _meanings(app(MetaVar("M", 20, ET, 20), Eigen("x", 10, E)),
                  app(Const("leave", ET), Eigen("x", 10, E))),
        lambda out, subst: out is None,
        "metavariable applied to an older eigenvariable"),
    "repeated-eigenvariable": (
        _meanings(app(app(_N, _X), _X),
                  app(app(Const("g", EET), _X), _X)),
        lambda out, subst: out is None,
        "metavariable applied to a repeated eigenvariable"),
    "hole-under-rigid-head": (
        _meanings(app(Down(MetaVar("P", 1, parse_type("s -> e -> t"), 1)),
                      _X),
                  app(Const("f", ET), _X)),
        lambda out, subst: out is None,
        "application head mixes a hole with rigid structure"),
    "same-hole-prunes": (
        _meanings(app(app(_N, _X), _Y), app(app(_N, _X), _Z)),
        _pruned, None),
    "identical-sides": (
        _meanings(app(app(_N, _X), _Y), app(app(_N, _X), _Y)),
        lambda out, subst: out is subst, None),
    # the type guard of _solve_flex: an argument outside the hole's domain,
    # and a right-hand side of another type than the hole's result
    "argument-of-another-type": (
        _meanings(app(_M, Eigen("x", 2, ET)),
                  app(Const("p", parse_type("(e -> t) -> t")),
                      Eigen("x", 2, ET))),
        lambda out, subst: out is None, None),
    "solution-of-another-type": (
        _meanings(app(_M, _Y), app(Const("f", parse_type("e -> e")), _Y)),
        lambda out, subst: out is None, None),
    # a pattern argument passed as an intension, ^x, is inverted whole, and
    # the bare x under it becomes the extension of the solution's binder
    "intension-argument-kept": (
        _meanings(app(_MI, Up(_XI)), app(Const("f", parse_type(
            "(s -> s -> e) -> t")), Up(_XI))),
        lambda out, subst: format_term(out.values[_MI.uid]) == "f", None),
    "intension-argument-extended": (
        _meanings(app(_MI, Up(_XI)), app(Const("g", parse_type(
            "(s -> e) -> t")), _XI)),
        lambda out, subst: format_term(out.values[_MI.uid])
        == "\\P:(s -> s -> e). g(!P)", None),
    "projection-holes-newer-first": (
        _projs(_NEWER, _OLDER),
        lambda out, subst: out.values == {_NEWER.uid: _OLDER}, None),
    "projection-holes-older-first": (
        _projs(_OLDER, _NEWER),
        lambda out, subst: out.values == {_NEWER.uid: _OLDER}, None),
    "projection-holes-other-index": (
        _projs(_NEWER, MetaVar("G", 3, ProjType(E), 3)),
        lambda out, subst: out is None, None),
}


@pytest.mark.parametrize("case", UNIFY_CASES)
def test_unifier_edge_cases(case):
    unify, expected, reason = UNIFY_CASES[case]
    subst, state = _Subst(), _State(SearchLimits(), SearchStats())
    assert expected(unify(subst, state), subst)
    assert state.stats.nonpattern == reason


# ---------------------------------------------------------------------------
# tensors: a top-level pair is two resources, a quantified pair is refused

PAIR_SIG = {
    "Bill": parse_type("e"),
    "Al": parse_type("e"),
    "leave": parse_type("e -> t"),
    "meet": parse_type("e -> e -> t"),
}
PAIR = "g.sig ~> Bill * h.sig ~> Al"
MEET = "forall Z:e, Y:e. g.sig ~> Z -o h.sig ~> Y -o f.sig ~> meet(Z, Y)"


def test_top_level_tensor_premise_is_two_resources():
    premises = [parse_glue(PAIR, PAIR_SIG), parse_glue(MEET, PAIR_SIG)]
    [proof] = prove(premises, "f")
    assert [format_glue(f) for f in proof.sequent.context] == [
        "g.sig ~> Bill", "h.sig ~> Al", MEET,
    ]
    check_proof(proof, None, premises, "f")
    # each half must be consumed: proving g alone leaves h.sig ~> Al over
    assert prove([parse_glue(PAIR, PAIR_SIG)], "g") == []


def test_top_level_tensor_lexicon_entry_is_two_resources():
    lexicon = parse_lexicon("""entry pair
const Bill : e
const Al : e
glue (^ SUBJ).sig ~> Bill * (^ OBJ).sig ~> Al

entry meets
PRED = meet
const meet : e -> e -> t
glue forall Z:e, Y:e.
  (^ SUBJ).sig ~> Z -o (^ OBJ).sig ~> Y -o ^.sig ~> meet(Z, Y)
""")
    scenario = parse_scenario("""scenario pair
fstructure f:[PRED 'meet', SUBJ g:[PRED 'Bill'], OBJ h:[PRED 'Al']]
attach pair -> f
attach meets -> f
goal f
""")
    premises = lexicon_premises(scenario, lexicon)
    # one premise per attachment; the pair is split only for the search
    assert [p.name for p in premises] == ["pair", "meets"]
    assert isinstance(premises[0].formula, Tensor)
    [proof] = prove(premises, "f")
    check_proof(proof, None, premises, "f")
    readings = derive_readings(premises, "f")
    assert [format_term(r.meaning) for r in readings] == ["meet(Bill, Al)"]


def test_a_3000_part_tensor_premise_is_split_and_searched():
    # the chain splits in a loop; like a 3-part chain, it leaves parts
    # unused for the goal, so there is no reading
    sig = {"Bill": E}
    wide = parse_glue(" * ".join([BILL] * 3000), sig)
    assert prepare_premises([wide]) == [parse_glue(BILL, sig)] * 3000
    narrow = parse_glue(" * ".join([BILL] * 3), sig)
    assert derive_readings([narrow], "g") == []
    assert derive_readings([wide], "g") == []


def test_a_3000_binder_run_parses_compares_curries_and_is_searched():
    # a run of quantifiers is one node, walked in one step; the reading's
    # proof is not read, as its 3,000 forall_left steps nest 3,000 deep
    binders = ", ".join(f"X{i}:e" for i in range(3000))
    text = f"forall {binders}. g.sig ~> leave(Bill)"
    f = glue(text)
    assert format_glue(f) == text
    assert f == glue(text) and f is not glue(text)
    assert hash(f) == hash(glue(text))
    assert curry(f) == f
    readings = derive_readings([f], "g")
    assert [format_term(r.meaning) for r in readings] == ["leave(Bill)"]


def test_quantified_tensor_hypothesis_is_refused():
    goal = parse_glue(
        "(forall X:e. g.sig ~> X * h.sig ~> X) -o f.sig ~> leave(Bill)",
        PAIR_SIG,
    )
    with pytest.raises(GlueFormulaError, match="tensor under a quantifier"):
        prove((), goal)


def test_quantified_tensor_subgoal_is_refused():
    premise = parse_glue(
        "(forall X:e. g.sig ~> X * h.sig ~> X) -o f.sig ~> leave(Bill)",
        PAIR_SIG,
    )
    with pytest.raises(GlueFormulaError, match="tensor under a quantifier"):
        prove([premise], "f")


def test_a_tensor_antecedent_of_an_antecedent_is_curried():
    # the premise consumes a function of a pair; curried, that is a
    # function of its two halves in turn
    k_of_pair = ("((g.sig ~> Bill * h.sig ~> Bill) -o f.sig ~> leave(Bill))"
                 " -o k.sig ~> leave(Bill)")
    by_hand = ("(g.sig ~> Bill -o h.sig ~> Bill -o f.sig ~> leave(Bill))"
               " -o k.sig ~> leave(Bill)")
    both = "forall X:e. g.sig ~> X -o h.sig ~> X -o f.sig ~> leave(X)"
    curried = [parse_glue(k_of_pair, PAIR_SIG), parse_glue(both, PAIR_SIG)]
    assert curried[0] != parse_glue(by_hand, PAIR_SIG)
    assert curry(curried[0]) == parse_glue(by_hand, PAIR_SIG)
    [reading] = derive_readings(curried, "k")
    assert format_term(reading.meaning) == "leave(Bill)"
    check_proof(reading.proof, None, curried, "k")
    [hand] = derive_readings([parse_glue(by_hand, PAIR_SIG), curried[1]], "k")
    assert hand.meaning == reading.meaning


def test_a_quantifier_in_a_conclusion_is_searched_checked_and_enumerated():
    # curry moves forall H out of the implication, so the search indexes
    # the premise by its atomic head
    premises = [glue("g.sig ~> Bill"), glue(
        "forall Y:e. g.sig ~> Y -o (forall H:proj(t). H ~> leave(Y))")]
    [reading] = derive_readings(premises, "f")
    assert format_term(reading.meaning) == "leave(Bill)"
    check_proof(reading.proof, None, premises, "f")
    [reference] = oracle_enumerate(premises, "f")
    assert reference.meaning == reading.meaning


def test_a_projection_hole_that_nothing_fixes_grounds_to_a_placeholder():
    # H occurs only in an antecedent that its own hypothesis proves, so its
    # hole stays free and the proof instantiates a placeholder projection
    sig = {"a": T, "done": T}
    premises = [parse_glue(
        "forall H:proj(t). (H ~> a -o H ~> a) -o g.sig ~> done", sig)]
    [reading] = derive_readings(premises, "g")
    assert format_term(reading.meaning) == "done"
    assert reading.proof.rule == "forall_left"
    value = reading.proof.instantiation
    assert isinstance(value, SemProjectionRef)
    assert re.fullmatch(r"arb_H\d+\.sig", format_proj(value))
    check_proof(reading.proof, None, premises, "g")
    [reference] = oracle_enumerate(premises, "g")
    assert reference.meaning == reading.meaning


# ---------------------------------------------------------------------------
# focusing: the head opens first, each antecedent when it is reached

FIND_SIG = {**SIG, "find": parse_type("e -> e -> t")}


def test_focus_opens_the_head_first_and_each_antecedent_when_reached(
        monkeypatch):
    # the third premise's head, g.sig ~> Z, cannot match the goal f, so
    # its antecedent h.sig ~> Z must stay closed there
    premises = [parse_glue(text, FIND_SIG) for text in [
        BILL, AL_H, "forall Z:e. h.sig ~> Z -o g.sig ~> Z",
        "forall X:e, Y:e. g.sig ~> X -o g.sig ~> Y -o f.sig ~> find(X, Y)",
    ]]
    real_open, real_unify = prover.open_formula, prover._unify_atoms
    log = []  # the formula each opening opens; True/False per head unified

    def opening(f, values):
        log.append(format_glue(f))
        return real_open(f, values)

    def unifying(goal, head, subst, state):
        out = real_unify(goal, head, subst, state)
        log.append(out is not None)
        return out

    monkeypatch.setattr(prover, "open_formula", opening)
    monkeypatch.setattr(prover, "_unify_atoms", unifying)
    readings = derive_readings(premises, "f")
    assert [format_term(r.meaning) for r in readings] == \
        ["find(Al, Bill)", "find(Bill, Al)"]
    antecedents = []
    for i, event in enumerate(log):
        if isinstance(event, bool):
            assert isinstance(log[i - 1], str)  # a head, opened just before
        elif i + 1 == len(log) or not isinstance(log[i + 1], bool):
            assert log[i - 1] is True  # reached only after a head unified
            antecedents.append(event)
    # the head index opens only the fourth premise's head for the goal f,
    # and only heads that then unify; an opened variable prints as its
    # index, #0 for the nearest binder: in the fourth premise X is #1
    assert log[:2] == ["f.sig ~> find(#1, #0)", True]
    assert False not in log
    assert Counter(antecedents) == \
        {"g.sig ~> #1": 1, "g.sig ~> #0": 2, "h.sig ~> #0": 2}


def _perfbench_gen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_flex_receives_a_zonked_normal_right_side(corpus, monkeypatch,
                                                        tmp_path):
    # _solve_flex inverts its right-hand side as given, and _lams contracts
    # only the solution's own binders, so every caller must pass one already
    # normal, with the substitution's holes filled in
    real = prover._solve_flex
    calls = []

    def checked(m, raw_args, rhs, subst, state):
        assert rhs == normalize(rhs, subst.get), format_term(rhs)
        calls.append(m)
        return real(m, raw_args, rhs, subst, state)

    monkeypatch.setattr(prover, "_solve_flex", checked)
    for scenario, prems in corpus.values():
        derive_readings(prems, scenario.goal)
        oracle_enumerate(prems, scenario.goal)
    files, cases = _perfbench_gen().scope_inputs(1, 3, 4)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for path, _ in cases:
        scenario = load_scenario(str(tmp_path / path))
        prems = lexicon_premises(scenario, scenario.lexicon)
        assert len(derive_readings(prems, scenario.goal)) == 6
    assert calls


@pytest.mark.parametrize("k, count", [(3, 6), (4, 24)])
def test_a_scope_k_search_visits_only_successful_derivations(tmp_path, k,
                                                             count):
    # each ordered choice of the first i quantifiers takes three nodes,
    # its scope goal, the implication below and the atomic goal below
    # that; each full order then focuses the relation, one node per
    # argument; with no dead branch nothing else is visited
    files, [(path, _)] = _perfbench_gen().scope_inputs(1, k, 1)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    scenario = load_scenario(str(tmp_path / path))
    stats = SearchStats()
    readings = derive_readings(lexicon_premises(scenario, scenario.lexicon),
                               scenario.goal, None, stats)
    assert len(readings) == count
    prefixes = sum(math.perm(k, i) for i in range(1, k + 1))
    assert stats.nodes == 1 + 3 * prefixes + k * math.factorial(k)


def test_the_relation_waits_for_every_argument_hypothesis(monkeypatch):
    # the relation's antecedents g.sig ~> X and h.sig ~> Y are atoms that
    # only the quantifiers' hypotheses produce, so the look-ahead focuses
    # it only once both are in the context, and then nothing else is
    sig = {**FIND_SIG, "all": parse_type("(e -> t) -> t"),
           "some": parse_type("(e -> t) -> t")}
    premises = [parse_glue(text, sig) for text in [
        "forall S:proj(t), P:e -> t. "
        "(forall x:e. g.sig ~> x -o S ~> P(x)) -o S ~> all(P)",
        "forall S:proj(t), P:e -> t. "
        "(forall x:e. h.sig ~> x -o S ~> P(x)) -o S ~> some(P)",
        "forall X:e, Y:e. g.sig ~> X -o h.sig ~> Y -o f.sig ~> find(X, Y)",
    ]]
    real = prover._focus
    contexts = []  # the rest of the context at each focus of the relation

    def focusing(entry, ctx, goal, subst, depth, state):
        if state.slots[entry.bit_length() - 1] == premises[2]:
            rest = [state.slots[bit.bit_length() - 1]
                    for bit in prover._bits(ctx)]
            # eigenvariable uids masked
            contexts.append(sorted(re.sub(r"#\d+", "", format_glue(f))
                                   for f in rest))
        return real(entry, ctx, goal, subst, depth, state)

    monkeypatch.setattr(prover, "_focus", focusing)
    stats = SearchStats()
    readings = derive_readings(premises, "f", None, stats)
    assert len(readings) == stats.proofs_found == 2  # one per scope order
    assert contexts == [["g.sig ~> x", "h.sig ~> x"]] * 2


def test_every_proof_of_a_scope_k4_scenario_replays_and_checks(tmp_path):
    # the scope-k workload never reads a proof; here all 24 readings of one
    # seeded scenario replay a proof of their own meaning that checks
    files, [(path, _)] = _perfbench_gen().scope_inputs(1, 4, 1)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    scenario = load_scenario(str(tmp_path / path))
    prems = lexicon_premises(scenario, scenario.lexicon)
    readings = derive_readings(prems, scenario.goal)
    assert len(readings) == 24
    for reading in readings:
        assert reading.proof.sequent.goal.meaning == reading.meaning
        check_proof(reading.proof, premises=prems, goal=scenario.goal)


# ---------------------------------------------------------------------------
# proof rendering


def test_format_proof_shows_rules_and_instantiations(corpus):
    scenario, prems = corpus["bill-left"]
    [reading] = derive_readings(prems, scenario.goal)
    text = format_proof(reading.proof)
    assert "|-" in text
    assert ":=" in text or "fresh" in text
    # one rule per line, indented by depth
    assert all(line.lstrip() for line in text.splitlines())


def test_every_proof_of_a_scope_k4_scenario_renders_step_by_step(tmp_path):
    # the reference prints each step's sequent with Sequent.__repr__;
    # format_proof and proof_json print each formula object once per call
    def steps(p, depth=0):
        yield depth, p
        for child in p.children:
            yield from steps(child, depth + 1)

    def note(p):
        value = p.eigen if p.eigen is not None else p.instantiation
        if value is None:
            return ""
        text = format_term(value) if isinstance(value, Term) \
            else format_proj(value)
        return f"  [{'fresh' if p.eigen is not None else ':='} {text}]"

    def sequents(node):
        yield f"{', '.join(node['context'])} |- {node['goal']}"
        for child in node["children"]:
            yield from sequents(child)

    files, [(path, _)] = _perfbench_gen().scope_inputs(1, 4, 1)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    scenario = load_scenario(str(tmp_path / path))
    readings = derive_readings(lexicon_premises(scenario, scenario.lexicon),
                               scenario.goal)
    assert len(readings) == 24
    for reading in readings:
        walk = list(steps(reading.proof))
        assert format_proof(reading.proof) == "\n".join(
            f"{'  ' * depth}{p.rule}: {p.sequent!r}{note(p)}"
            for depth, p in walk)
        assert list(sequents(proof_json(reading.proof))) == \
            [repr(p.sequent) for _, p in walk]


def test_a_proof_deeper_than_the_stack_prints_and_checks():
    # 400 binders give a chain of 400 forall_left steps; both walkers loop
    # over the proof, so they need far less stack than the chain is deep
    binders = ", ".join(f"X{i}:e" for i in range(400))
    f = glue(f"forall {binders}. g.sig ~> leave(Bill)")
    [reading] = derive_readings([f], "g")
    proof = reading.proof
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        text = format_proof(proof)
        check_proof(proof, premises=[f], goal="g")
    finally:
        sys.setrecursionlimit(limit)
    lines = text.splitlines()
    assert len(lines) == 401 and lines[-1].startswith(" " * 800 + "axiom:")


def test_replayed_sequents_show_normal_meanings(corpus):
    # each stage of a focused premise is shown with its meanings normalized,
    # so a trace never prints a beta-redex such as (\z:e. leave(z))(x)
    def nodes(proof):
        yield proof
        for child in proof.children:
            yield from nodes(child)

    for scenario, prems in corpus.values():
        for proof in prove(prems, scenario.goal):
            for node in nodes(proof):
                for f in node.sequent.context + (node.sequent.goal,):
                    for atom in atoms(f):
                        assert atom.meaning == normalize(atom.meaning), \
                            (scenario.name, format_proof(node))


def test_proof_json_shape(corpus):
    scenario, prems = corpus["bill-left"]
    [reading] = derive_readings(prems, scenario.goal)
    payload = proof_json(reading.proof)
    seen = []

    def walk(node):
        seen.append(node)
        assert isinstance(node["rule"], str)
        assert isinstance(node["context"], list)
        assert isinstance(node["goal"], str)
        for child in node["children"]:
            walk(child)

    walk(payload)
    assert len(seen) >= 3


# ---------------------------------------------------------------------------
# proofs on demand

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def replays(monkeypatch):
    """Count prover._replay calls: all of them, and the outermost ones."""
    real = prover._replay
    counts = {"calls": 0, "proofs": 0, "depth": 0}

    def counting(*args):
        counts["calls"] += 1
        counts["proofs"] += counts["depth"] == 0
        counts["depth"] += 1
        try:
            return real(*args)
        finally:
            counts["depth"] -= 1

    monkeypatch.setattr(prover, "_replay", counting)
    return counts


def test_derive_readings_replays_no_proof(corpus, replays):
    scenario, prems = corpus["conversation"]
    assert len(derive_readings(prems, scenario.goal)) == 5
    assert replays["calls"] == 0


def test_each_proof_is_replayed_once_on_first_read(corpus, replays):
    scenario, prems = corpus["conversation"]
    for i, reading in enumerate(derive_readings(prems, scenario.goal), 1):
        proof = reading.proof
        assert replays["proofs"] == i
        calls = replays["calls"]
        assert reading.proof is proof
        assert replays["calls"] == calls
        check_proof(proof, premises=prems, goal=scenario.goal)


def test_a_late_proof_read_matches_the_golden_trace(corpus):
    # replay depends only on what the reading captured, so another search
    # between the search and the read changes nothing
    scenario, prems = corpus["conversation"]
    readings = derive_readings(prems, scenario.goal)
    for other, other_prems in corpus.values():
        derive_readings(other_prems, other.goal)
    golden = (GOLDEN / "conversation.trace.txt").read_text(encoding="utf-8")
    # after the title line, "  i. meaning" and its trace indented by five
    blocks = re.split(r"^  \d+\. .*\n", golden, flags=re.M)[1:]
    assert len(blocks) == len(readings)
    for reading, block in zip(readings, blocks):
        assert format_proof(reading.proof) == \
            "\n".join(line[5:] for line in block.splitlines())


def test_oracle_readings_carry_no_proof(corpus, replays):
    scenario, prems = corpus["conversation"]
    readings = oracle_enumerate(prems, scenario.goal)
    assert len(readings) == 5
    assert all(r.proof is None for r in readings)
    assert replays["calls"] == 0
