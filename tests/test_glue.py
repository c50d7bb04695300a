"""Composition-language formulas: parsing, well-formedness, currying, roles."""

import pytest
from conftest import CORPUS

from gluesem import prover
from gluesem.errors import (
    AtomTypeMismatch,
    OpenVariable,
    TensorInConclusion,
)
from gluesem.glue import (
    Forall,
    GlueAtom,
    Impl,
    Tensor,
    atoms,
    curry,
    format_glue,
    instantiate,
    open_formula,
    parse_glue,
)
from gluesem.fstructure import SemProjectionRef
from gluesem.lexicon import load_lexicon
from gluesem.terms import Const
from gluesem.types import E, ProjType, parse_type

SIG = {
    "Bill": parse_type("e"),
    "leave": parse_type("e -> t"),
    "find": parse_type("e -> e -> t"),
    "every": parse_type("(e -> t) -> (e -> t) -> t"),
    "man": parse_type("e -> t"),
    "seek": parse_type("e -> (s -> ((s -> (e -> t)) -> t)) -> t"),
}

LEAVE = "forall X:e. g.sig ~> X -o f.sig ~> leave(X)"
FIND = ("forall Z:e, Y:e. g.sig ~> Z * h.sig ~> Y -o "
        "f.sig ~> find(Z, Y)")
EVERY_MAN = ("forall H:proj(t), S:e -> t. "
             "(forall x:e. g.sig ~> x -o H ~> S(x)) -o "
             "H ~> every(z, man(z), S(z))")
SEEKS = ("forall Z:e, Y:(s -> (e -> t)) -> t. "
         "g.sig ~> Z * (forall s:proj(t), p:e -> t. "
         "(forall X:e. h.sig ~> X -o s ~> p(X)) -o s ~> Y(^p)) "
         "-o f.sig ~> seek(Z, ^Y)")


def parse(text):
    return parse_glue(text, SIG)


# ---------------------------------------------------------------------------
# parsing and well-formedness


def test_parse_round_trip_on_subject_verb_constructor():
    f = parse(LEAVE)
    assert parse(format_glue(f)) == f


def test_alpha_variants_are_equal_with_equal_hashes():
    a = parse("forall X:e. g.sig ~> X")
    b = parse("forall Y:e. g.sig ~> Y")
    assert a == b and hash(a) == hash(b)
    assert format_glue(a) != format_glue(b)  # the names stay for printing
    h = parse("forall H:proj(t), S:e -> t. H ~> S(Bill)")
    k = parse("forall K:proj(t), P:e -> t. K ~> P(Bill)")
    assert h == k and hash(h) == hash(k)
    assert parse("forall X:e, Y:e. h.sig ~> find(X, Y)") != \
        parse("forall X:e, Y:e. h.sig ~> find(Y, X)")


def test_free_projection_variable_rejected():
    with pytest.raises(OpenVariable):
        parse("forall S:e -> t. H ~> S(Bill)")


def test_atom_index_must_match_meaning_type():
    # an entity-typed meaning cannot sit at a proposition-indexed atom
    with pytest.raises(AtomTypeMismatch):
        parse("forall H:proj(t). H ~> Bill")


def test_facet_projections_parse():
    f = parse("forall R:e -> t. h.sig.VAR ~> Bill -o "
              "h.sig.RESTR ~> R(Bill)")
    names = [atom.proj for atom in atoms(f)]
    assert {repr(p) for p in names} == {"h.sig.VAR", "h.sig.RESTR"}


# ---------------------------------------------------------------------------
# currying


def test_curry_splits_tensor_antecedent():
    curried = curry(parse(FIND))
    body = curried
    while isinstance(body, Forall):
        body = body.body
    assert isinstance(body, Impl)
    assert isinstance(body.right, Impl)
    assert isinstance(body.left, GlueAtom)
    assert isinstance(body.right.left, GlueAtom)


def test_curry_is_identity_on_atoms():
    atom = parse("g.sig ~> Bill")
    assert curry(atom) == atom


def test_curry_on_intensional_verb_keeps_two_antecedents():
    curried = curry(parse(SEEKS))
    body = curried
    while isinstance(body, Forall):
        body = body.body
    assert isinstance(body, Impl)                  # subject antecedent
    assert isinstance(body.right, Impl)            # object antecedent
    assert isinstance(body.right.right, GlueAtom)  # clause conclusion


def test_curry_rejects_tensor_conclusion():
    f = parse_glue("g.sig ~> Bill * h.sig ~> Bill", SIG)
    with pytest.raises(TensorInConclusion):
        curry(Impl(parse("g.sig ~> Bill"), f))


@pytest.mark.parametrize("text, prenex", [
    ("forall X:e. g.sig ~> X -o (forall H:proj(t). H ~> leave(X))",
     "forall X:e, H:proj(t). g.sig ~> X -o H ~> leave(X)"),
    # the antecedent's own binders and its conclusion's quantifier stay
    # inside it; its loose indices step over the hoisted binders
    ("forall X:e, K:proj(e). (K ~> X -o (forall P:proj(t). P ~> leave(X)))"
     " -o (forall Z:e, H:proj(t). K ~> Z -o H ~> find(X, Z))",
     "forall X:e, K:proj(e), Z:e, H:proj(t). "
     "(forall P:proj(t). K ~> X -o P ~> leave(X)) -o K ~> Z -o "
     "H ~> find(X, Z)"),
    ("forall S:e -> t. (forall x:e. g.sig ~> x -o f.sig ~> "
     "every(z, man(z), S(z))) -o (forall Y:e. h.sig ~> Y -o f.sig ~> S(Y))",
     "forall S:(e -> t), Y:e. (forall x:e. g.sig ~> x -o f.sig ~> "
     "every(z, man(z), S(z))) -o h.sig ~> Y -o f.sig ~> S(Y)"),
])
def test_curry_moves_a_quantifier_out_of_a_conclusion(text, prenex):
    # A -o forall xs. B is forall xs. A -o B, as xs cannot occur in A
    curried = curry(parse(text))
    assert curried == parse(prenex)
    assert format_glue(curried) == prenex


def test_curry_leaves_no_tensor_anywhere():
    def has_tensor(f):
        if isinstance(f, Tensor):
            return True
        if isinstance(f, Forall):
            return has_tensor(f.body)
        if isinstance(f, Impl):
            return has_tensor(f.left) or has_tensor(f.right)
        return False

    for text in [LEAVE, FIND, EVERY_MAN, SEEKS]:
        assert not has_tensor(curry(parse(text)))


# ---------------------------------------------------------------------------
# opening a quantifier


BILL = Const("Bill", E)


def test_instantiate_same_kind_binder_shadows_meaning():
    f = parse("forall X:e. g.sig ~> X -o (forall X:e. h.sig ~> X)")
    assert instantiate(f, BILL) == \
        parse("g.sig ~> Bill -o (forall X:e. h.sig ~> X)")


def test_instantiate_same_kind_binder_shadows_projection():
    f = parse("forall H:proj(e). H ~> Bill -o (forall H:proj(e). H ~> Bill)")
    opened = instantiate(f, SemProjectionRef("g"))
    assert format_glue(opened) == \
        "g.sig ~> Bill -o (forall H:proj(e). H ~> Bill)"


def test_instantiate_meaning_passes_a_projection_binder_of_that_name():
    f = parse("forall X:e. forall X:proj(e). X ~> X")
    assert format_glue(instantiate(f, BILL)) == "forall X:proj(e). X ~> Bill"


def test_instantiate_projection_passes_a_meaning_binder_of_that_name():
    f = parse("forall X:proj(e). forall X:e. X ~> X")
    assert instantiate(f, SemProjectionRef("g")) == \
        parse("forall X:e. g.sig ~> X")


def _eigen(text):
    """The search's eigenvariable for the one binder of the formula text."""
    [binder] = parse(text).binders
    return prover._goal_eigen(binder, 99)


# check_proof quotes these refusals in its InvalidStep reason
SORT_REFUSALS = {
    "meaning-for-projection": (
        "forall H:proj(t). H ~> leave(Bill)", BILL, TypeError,
        "projection binder instantiated with a meaning term"),
    "reference-for-meaning": (
        "forall X:e. g.sig ~> leave(X)", SemProjectionRef("g"), TypeError,
        "meaning binder instantiated with a projection"),
    "projection-of-another-index": (
        "forall H:proj(t). H ~> leave(Bill)",
        _eigen("forall G:proj(e). G ~> Bill"), AtomTypeMismatch,
        "H indexes t resources, got proj(e)"),
    "projection-eigenvariable-for-meaning": (
        "forall X:e. g.sig ~> leave(X)",
        _eigen("forall G:proj(e). G ~> Bill"), TypeError,
        "meaning binder instantiated with a projection"),
    "meaning-eigenvariable-for-projection": (
        "forall H:proj(e). H ~> Bill", _eigen("forall Y:e. g.sig ~> Y"),
        TypeError, "projection binder instantiated with a meaning term"),
}


@pytest.mark.parametrize("case", SORT_REFUSALS)
def test_instantiate_refuses_a_value_of_the_other_sort(case):
    text, value, cls, message = SORT_REFUSALS[case]
    with pytest.raises(Exception) as caught:
        instantiate(parse(text), value)
    assert type(caught.value) is cls
    assert str(caught.value) == message


def test_open_formula_opens_both_kinds_at_once_with_same_kind_shadowing():
    # X and x are loose in the body, with indices 1 and 0; an inner binder of
    # the same kind and name shadows its variable, a binder of the other kind
    # shadows nothing
    body = parse("forall X:proj(e), x:e. X ~> x -o (forall x:e. X ~> x) -o "
                 "(forall X:proj(e). X ~> x) -o (forall X:e. X ~> X) -o "
                 "(forall x:proj(e). x ~> x) -o f.sig ~> leave(x)").body
    opened = open_formula(body, [SemProjectionRef("g"), BILL])
    assert format_glue(opened) == (
        "g.sig ~> Bill -o (forall x:e. g.sig ~> x) -o "
        "(forall X:proj(e). X ~> Bill) -o (forall X:e. g.sig ~> X) -o "
        "(forall x:proj(e). x ~> Bill) -o f.sig ~> leave(Bill)"
    )


def test_open_formula_lowers_the_indices_past_the_run():
    # the run of four is one Forall; opening its last two binders leaves H
    # and X loose, and each of their indices drops by two
    f = parse("forall H:proj(e), X:e. forall G:proj(e), Y:e. "
              "H ~> X -o G ~> Y")
    opened = open_formula(f.body, [SemProjectionRef("g"), BILL])
    assert Forall(f.binders[:2], opened) == \
        parse("forall H:proj(e), X:e. H ~> X -o g.sig ~> Bill")


LEXICON = load_lexicon(str(CORPUS / "lexicon.glue"))


@pytest.mark.parametrize("prepare", [lambda f: f, curry],
                         ids=["as-written", "curried"])
@pytest.mark.parametrize("name", sorted(LEXICON.entries))
def test_a_shipped_template_numbers_its_binders_in_one_count(name, prepare):
    # determiner runs mix H:proj(t) with meaning binders; opening the whole
    # run at once must agree with instantiating it binder by binder
    f = prepare(LEXICON.entries[name].template)
    assert parse_glue(format_glue(f), LEXICON.signature) == f
    binders = f.binders if isinstance(f, Forall) else ()
    values = [SemProjectionRef(f"n{i}") if isinstance(b.ty, ProjType)
              else Const(f"c{i}", b.ty) for i, b in enumerate(binders)]
    stepwise = f
    for value in values:
        stepwise = instantiate(stepwise, value)
    opened = open_formula(f.body, values) if binders else f
    assert opened == stepwise
    assert "#" not in format_glue(opened)  # nothing is left loose


# ---------------------------------------------------------------------------
# wide input: tensor chains are walked in a loop

WIDE = " * ".join(["g.sig ~> Bill"] * 3000)


def test_a_3000_part_tensor_prints_back_as_parsed():
    assert format_glue(parse(WIDE)) == WIDE


def test_a_tensor_in_first_position_joins_the_chain():
    g, h, i = "g.sig ~> Bill", "h.sig ~> Bill", "f.sig ~> Bill"
    flat = parse(f"{g} * {h} * {i}")
    assert flat.parts == (parse(g), parse(h), parse(i))
    assert parse(f"({g} * {h}) * {i}") == flat
    nested = parse(f"{g} * ({h} * {i})")
    assert nested.parts == (parse(g), parse(f"{h} * {i}"))
    assert format_glue(nested) == f"{g} * ({h} * {i})"


def test_3000_part_tensors_compare_and_hash():
    a, b = parse(WIDE), parse(WIDE)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse(WIDE + " * g.sig ~> Bill")


def test_a_3000_part_tensor_curries_as_an_antecedent():
    wide = parse(WIDE)
    with pytest.raises(TensorInConclusion):
        curry(wide)
    conclusion = parse("f.sig ~> leave(Bill)")
    f = curry(Impl(wide, conclusion))
    parts = []
    while isinstance(f, Impl):
        parts.append(f.left)
        f = f.right
    assert f == conclusion
    assert parts == [parse("g.sig ~> Bill")] * 3000


def test_a_3000_part_tensor_lists_its_atoms_and_checks():
    wide = parse(WIDE)
    assert list(atoms(wide)) == [parse("g.sig ~> Bill")] * 3000


def test_a_3000_part_tensor_opens():
    f = parse("forall X:e. " + " * ".join(["g.sig ~> X"] * 3000))
    assert format_glue(open_formula(f.body, [Const("Bill", E)])) \
        == WIDE
