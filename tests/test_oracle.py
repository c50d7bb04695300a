"""The reference enumerator must agree with the search on every scenario."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from gluesem import oracle
from gluesem.cli import main
from gluesem.errors import GlueFormulaError
from gluesem.glue import Forall, parse_glue
from gluesem.lexicon import load_scenario, parse_lexicon, parse_scenario, premises
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


def test_a_hypothesis_opens_in_one_pass_and_is_never_zonked(corpus,
                                                            monkeypatch):
    # a run of quantifiers, in a hypothesis or a goal, opens with one
    # open_formula call, and the hypothesis's holes are not filled in on the
    # way down: the unifier fills the holes of what it compares
    real_decide, real_enumerate = oracle._decide, oracle._enumerate
    real_open = oracle.open_formula
    counts = Counter()

    def deciding(f, *args):
        counts["quantified"] += isinstance(f, Forall)
        return real_decide(f, *args)

    def enumerating(ctx, goal, *args):
        counts["quantified"] += isinstance(goal, Forall)
        return real_enumerate(ctx, goal, *args)

    def opening(*args):
        counts["opened"] += 1
        return real_open(*args)

    monkeypatch.setattr(oracle, "_decide", deciding)
    monkeypatch.setattr(oracle, "_enumerate", enumerating)
    monkeypatch.setattr(oracle, "open_formula", opening)
    scenario, prems = corpus["conversation"]
    assert len(oracle_enumerate(prems, scenario.goal)) == 5
    assert counts["opened"] == counts["quantified"] > 0


# the smallest depth at which each scenario's enumeration is complete
DEPTH_NEEDED = {
    "bill-finds-al": 6,
    "bill-left": 4,
    "bill-seeks-a-unicorn": 18,
    "bill-seeks-al": 12,
    "conversation": 30,
    "every-man-left": 10,
}


def test_depth_limit_is_hit_one_step_short(corpus):
    # a quantifier run costs one depth step per quantifier, so the depth at
    # which the limit stops being hit is fixed
    for name, depth in DEPTH_NEEDED.items():
        scenario, prems = corpus[name]
        stats = SearchStats()
        oracle_enumerate(prems, scenario.goal, depth=depth, stats=stats)
        assert not stats.limit_hit, name
        stats = SearchStats()
        short = oracle_enumerate(prems, scenario.goal, depth=depth - 1,
                                 stats=stats)
        assert stats.limit_hit, name
        if name != "conversation":
            assert short == [], name


def test_run_oracle_below_the_depth_needed_reports_the_limit(corpus_dir,
                                                             capsys):
    # the oracle needs more depth than the search; running out of it is a
    # depth-limited run, not a disagreement
    for name, needed in DEPTH_NEEDED.items():
        path = str(corpus_dir / name / "scenario.txt")
        for depth in range(needed):
            code = main(["run", path, "--oracle", "--max-depth", str(depth)])
            out = capsys.readouterr().out
            assert code != 1, (name, depth)
            assert "(depth limit hit)" in out, (name, depth)


PAIR_UNDER_FORALL = """entry leave-a-pair
PRED = leave
const leave : e -> t
const Bill : e
glue (forall X:e. ^.sig ~> X * ^.sig ~> X) -o ^.sig ~> leave(Bill)
"""


def test_a_tensor_under_a_quantified_antecedent_is_refused(tmp_path, capsys):
    lexicon = parse_lexicon(PAIR_UNDER_FORALL)
    scenario = parse_scenario("scenario pair\nfstructure f:[PRED 'leave']\n"
                              "attach leave-a-pair -> f\ngoal f\n")
    prems = premises(scenario, lexicon)
    with pytest.raises(GlueFormulaError, match="tensor under a quantifier"):
        oracle_enumerate(prems, scenario.goal)
    (tmp_path / "lexicon.glue").write_text(PAIR_UNDER_FORALL,
                                           encoding="utf-8")
    path = tmp_path / "scenario.txt"
    path.write_text("scenario pair\nlexicon lexicon.glue\n"
                    "fstructure f:[PRED 'leave']\n"
                    "attach leave-a-pair -> f\ngoal f\n", encoding="utf-8")
    assert main(["run", str(path), "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: a tensor under a quantifier")
    assert "Traceback" not in captured.out + captured.err


def test_conversation_readings_appear_with_depth(corpus):
    scenario, prems = corpus["conversation"]
    counts = [len(oracle_enumerate(prems, scenario.goal, depth=depth))
              for depth in range(19, 31)]
    assert counts == [0] + [1] * 6 + [2] + [5] * 4


def _perfbench_gen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_agrees_with_search_on_the_verified_sentences(corpus_dir, tmp_path):
    # every subject-verb-object sentence of the benchmark's verified pass,
    # over the shipped lexicon, with seed 1's attachment orders
    lexicon = (corpus_dir / "lexicon.glue").as_posix()
    files, paths = _perfbench_gen().verified_inputs(1, lexicon)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert len(paths) == 61
    for path in paths:
        scenario = load_scenario(str(tmp_path / path))
        prems = premises(scenario, scenario.lexicon)
        searched = derive_readings(prems, scenario.goal)
        assert searched, path
        assert keys(oracle_enumerate(prems, scenario.goal)) == \
            keys(searched), path
