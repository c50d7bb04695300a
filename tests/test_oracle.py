"""The reference enumerator must agree with the search on every scenario."""

import pytest

from gluesem.glue import parse_glue
from gluesem.oracle import oracle_enumerate
from gluesem.prover import SearchStats, derive_readings
from gluesem.terms import canonical_key, format_term
from gluesem.types import parse_type


def keys(readings):
    return [canonical_key(r.meaning) for r in readings]


def test_agrees_with_search_on_all_scenarios(corpus):
    for scenario, prems in corpus.values():
        searched = derive_readings(prems, scenario.goal)
        enumerated = oracle_enumerate(prems, scenario.goal)
        assert keys(enumerated) == keys(searched), scenario.name


def test_printed_forms_also_agree(corpus):
    scenario, prems = corpus["conversation"]
    searched = derive_readings(prems, scenario.goal)
    enumerated = oracle_enumerate(prems, scenario.goal)
    assert [format_term(r.meaning) for r in enumerated] == \
        [format_term(r.meaning) for r in searched]


def test_agrees_with_search_on_a_pair_premise():
    # prepare_premises splits the top-level pair for both enumerators; each
    # half is a quantified NP, so the two scopings must both come out
    quantifier = parse_type("(e -> t) -> (e -> t) -> t")
    sig = {"every": quantifier, "a": quantifier,
           "man": parse_type("e -> t"), "woman": parse_type("e -> t"),
           "meet": parse_type("e -> e -> t")}

    def np(det, noun, proj):
        return (f"(forall H:proj(t), S:e -> t. "
                f"(forall x:e. {proj}.sig ~> x -o H ~> S(x)) "
                f"-o H ~> {det}(z, {noun}(z), S(z)))")

    premises = [
        parse_glue(f"{np('every', 'man', 'g')} * {np('a', 'woman', 'h')}",
                   sig),
        parse_glue("forall Z:e, Y:e. "
                   "g.sig ~> Z -o h.sig ~> Y -o f.sig ~> meet(Z, Y)", sig),
    ]
    searched = derive_readings(premises, "f")
    enumerated = oracle_enumerate(premises, "f")
    assert [format_term(r.meaning) for r in enumerated] == [
        "a(z, woman(z), every(u, man(u), meet(u, z)))",
        "every(z, man(z), a(u, woman(u), meet(z, u)))",
    ]
    assert keys(enumerated) == keys(searched)


def test_enumerated_readings_carry_no_proof(corpus):
    scenario, prems = corpus["bill-left"]
    for reading in oracle_enumerate(prems, scenario.goal):
        assert reading.proof is None


def test_only_projection_goals_are_supported():
    sig = {"Bill": parse_type("e")}
    premise = parse_glue("g.sig ~> Bill", sig)
    with pytest.raises(TypeError):
        oracle_enumerate([premise], premise)


def test_depth_exhaustion_is_flagged(corpus):
    scenario, prems = corpus["bill-seeks-a-unicorn"]
    stats = SearchStats()
    assert oracle_enumerate(prems, scenario.goal, depth=2,
                            stats=stats) == []
    assert stats.limit_hit


def test_work_is_counted(corpus):
    scenario, prems = corpus["bill-left"]
    stats = SearchStats()
    oracle_enumerate(prems, scenario.goal, stats=stats)
    assert stats.nodes > 0
