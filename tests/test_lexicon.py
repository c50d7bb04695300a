"""Lexical templates: instantiation at f-structure nodes, scenarios."""

import pytest

from gluesem.errors import LexiconError, MissingAttribute, PredMismatch
from gluesem.fstructure import parse_fstructure
from gluesem.glue import (
    Forall,
    GlueAtom,
    Impl,
    PathRef,
    Tensor,
    parse_glue,
)
from gluesem.lexicon import (
    LexicalEntry,
    Lexicon,
    instantiate,
    load_scenario,
    parse_lexicon,
    parse_scenario,
    premises,
)
from gluesem.terms import Const
from gluesem.types import E

# what each corpus entry should contribute once anchored at its node,
# written out in full
EXPECTED_PREMISES = {
    ("bill-left", "Bill"): "g.sig ~> Bill",
    ("bill-left", "left"):
        "forall X:e. g.sig ~> X -o f.sig ~> leave(X)",
    ("every-man-left", "every-man"):
        "forall H:proj(t), S:e -> t. "
        "(forall x:e. g.sig ~> x -o H ~> S(x)) -o "
        "H ~> every(z, man(z), S(z))",
    ("bill-finds-al", "finds"):
        "forall Z:e, Y:e. g.sig ~> Z * h.sig ~> Y -o f.sig ~> find(Z, Y)",
    ("bill-finds-al", "Al"): "h.sig ~> Al",
    ("bill-seeks-al", "seeks"):
        "forall Z:e, Y:(s -> (e -> t)) -> t. "
        "g.sig ~> Z * (forall s:proj(t), p:e -> t. "
        "(forall X:e. h.sig ~> X -o s ~> p(X)) -o s ~> Y(^p)) "
        "-o f.sig ~> seek(Z, ^Y)",
    ("bill-seeks-a-unicorn", "a-unicorn"):
        "forall H:proj(t), S:e -> t. "
        "(forall x:e. h.sig ~> x -o H ~> S(x)) -o "
        "H ~> a(z, unicorn(z), S(z))",
    ("conversation", "every-unicorn"):
        "forall G:proj(t), S:e -> t. "
        "(forall x:e. i.sig ~> x -o G ~> S(x)) -o "
        "G ~> every(u, unicorn(u), S(u))",
    ("conversation", "a"):
        "forall H:proj(t), R:e -> t, T:e -> t. "
        "((forall x:e. h.sig.VAR ~> x -o h.sig.RESTR ~> R(x)) "
        "* (forall x:e. h.sig ~> x -o H ~> T(x))) "
        "-o H ~> a(z, R(z), T(z))",
    ("conversation", "conv-with"):
        "forall Z:e, X:e. "
        "h.sig.VAR ~> Z * i.sig ~> X -o h.sig.RESTR ~> conv-with(Z, X)",
}

EXPECTED_COUNTS = {
    "bill-left": 2,
    "every-man-left": 2,
    "bill-finds-al": 3,
    "bill-seeks-al": 3,
    "bill-seeks-a-unicorn": 3,
    "conversation": 5,
}


@pytest.mark.parametrize("scenario_name,headword",
                         sorted(EXPECTED_PREMISES))
def test_instantiation_matches_written_out_form(corpus, scenario_name,
                                                headword):
    scenario, prems = corpus[scenario_name]
    got = [p.formula for p in prems if p.name == headword]
    assert len(got) == 1
    want = parse_glue(EXPECTED_PREMISES[scenario_name, headword],
                      scenario.lexicon.signature)
    assert got[0] == want


def test_premise_counts_and_names_follow_attachments(corpus):
    for name, (scenario, prems) in corpus.items():
        assert len(prems) == EXPECTED_COUNTS[name]
        assert [p.name for p in prems] == [w for w, _ in
                                           scenario.attachments]


def test_instantiation_is_deterministic(corpus):
    scenario, _ = corpus["conversation"]
    first = premises(scenario, scenario.lexicon)
    second = premises(scenario, scenario.lexicon)
    assert [p.formula for p in first] == [p.formula for p in second]


# ---------------------------------------------------------------------------
# constraint checking


LEXICON = parse_lexicon("""
entry left
PRED = leave
const leave : e -> t
glue forall X:e. (^ SUBJ).sig ~> X -o ^.sig ~> leave(X)

entry finds
PRED = find
const find : e -> e -> t
glue forall Z:e, Y:e.
  (^ SUBJ).sig ~> Z * (^ OBJ).sig ~> Y -o ^.sig ~> find(Z, Y)
""")


def _entry(headword):
    return LEXICON.entries[headword]


def test_pred_constraint_must_match_node():
    fs = parse_fstructure("f:[PRED 'sleep', SUBJ g:[PRED 'Bill']]")
    with pytest.raises(PredMismatch):
        instantiate(_entry("left"), "f", fs)


def test_unresolvable_template_path_is_reported():
    # 'finds' needs an OBJ under its anchor
    fs = parse_fstructure("f:[PRED 'find', SUBJ g:[PRED 'Bill']]")
    with pytest.raises(MissingAttribute):
        instantiate(_entry("finds"), "f", fs)


def test_a_constraint_attribute_may_begin_with_glue():
    # glue starts the template only as a whole word; it may end its line
    lexicon = parse_lexicon("entry left\nPRED = leave\nglued = yes\n"
                            "const leave : e -> t\nglue\n  forall X:e. "
                            "(^ SUBJ).sig ~> X -o ^.sig ~> leave(X)\n")
    entry = lexicon.entries["left"]
    assert entry.constraints == {"PRED": "leave", "glued": "yes"}
    assert entry.template == _entry("left").template


@pytest.mark.parametrize("line", ["glue = yes", "const = yes"])
def test_a_constraint_attribute_may_be_a_keyword(line):
    # an attribute named glue or const, with spaces around =, is a
    # constraint, not the template or a declaration
    lexicon = parse_lexicon(f"entry left\nPRED = leave\n{line}\n"
                            "const leave : e -> t\nglue forall X:e. "
                            "(^ SUBJ).sig ~> X -o ^.sig ~> leave(X)\n")
    entry = lexicon.entries["left"]
    assert entry.constraints == {"PRED": "leave", line.split()[0]: "yes"}
    assert entry.template == _entry("left").template


def test_attachment_to_unknown_entry_is_an_error():
    text = """scenario tiny
lexicon ../lexicon.glue
fstructure
  f:[PRED 'leave', SUBJ g:[PRED 'Bill']]
attach gallops -> f
goal f
"""
    scenario = parse_scenario(text)
    with pytest.raises(LexiconError):
        premises(scenario, LEXICON)


WIDE_SCENARIO = parse_scenario("""scenario wide
lexicon ../lexicon.glue
fstructure
  f:[PRED 'Bill']
attach wide -> f
goal f
""")


def test_a_3000_part_tensor_entry_instantiates():
    # a tensor chain is one node, so instantiation maps its parts in a loop
    lexicon = parse_lexicon("entry wide\nPRED = Bill\nconst Bill : e\nglue "
                            + " * ".join(["^.sig ~> Bill"] * 3000) + "\n")
    [premise] = premises(WIDE_SCENARIO, lexicon)
    part = parse_glue("f.sig ~> Bill", lexicon.signature)
    assert premise.formula == Tensor((part,) * 3000)


def test_a_template_too_deep_to_instantiate_is_a_lexicon_error():
    # parsed text cannot nest this deep (MAX_NESTING caps it), but a
    # template built in Python can; instantiation walks its 3,000 nested
    # implications recursively, and premises reports the RecursionError as a
    # LexiconError
    atom = GlueAtom(PathRef(()), Const("Bill", E), E)
    deep = atom
    for _ in range(3000):
        deep = Impl(atom, deep)
    lexicon = Lexicon(entries={"deep": LexicalEntry("deep", {}, deep)})
    scenario = parse_scenario("scenario deep\nlexicon ../lexicon.glue\n"
                              "fstructure\n  f:[PRED 'Bill']\n"
                              "attach deep -> f\ngoal f\n")
    with pytest.raises(LexiconError, match="^input too large to process"):
        premises(scenario, lexicon)


def test_a_3000_binder_entry_instantiates():
    # a run of quantifiers is one node, so instantiation maps its body once
    binders = ", ".join(f"X{i}:e" for i in range(3000))
    lexicon = parse_lexicon("entry wide\nPRED = Bill\nconst Bill : e\n"
                            f"glue forall {binders}. ^.sig ~> Bill\n")
    [premise] = premises(WIDE_SCENARIO, lexicon)
    assert isinstance(premise.formula, Forall)
    assert len(premise.formula.binders) == 3000


# ---------------------------------------------------------------------------
# scenario files


def test_parse_scenario_fields():
    scenario = parse_scenario("""scenario tiny
lexicon ../lexicon.glue
fstructure
  f:[PRED 'leave'
     SUBJ g:[PRED 'Bill']]
attach left -> f
goal f
""")
    assert scenario.name == "tiny"
    assert scenario.goal == "f"
    assert scenario.attachments == [("left", "f")]
    assert set(scenario.fs.nodes()) == {"f", "g"}
    assert scenario.lexicon is None  # resolved only by load_scenario


def test_load_scenario_resolves_lexicon(corpus_dir):
    scenario = load_scenario(str(corpus_dir / "bill-left" / "scenario.txt"))
    assert scenario.lexicon is not None
    assert "leave" in scenario.lexicon.signature


def test_scenario_goal_must_name_a_node():
    with pytest.raises(LexiconError):
        parse_scenario("""scenario tiny
lexicon ../lexicon.glue
fstructure
  f:[PRED 'leave']
attach left -> f
goal q
""")
