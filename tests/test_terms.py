"""Meaning-language terms: typing, substitution, normalization, comparison."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gluesem.errors import (
    ExtensionOfNonIntension,
    TypeMismatch,
    UnboundVariable,
)
from gluesem.terms import (
    App,
    Bound,
    Const,
    Down,
    Eigen,
    Lam,
    MetaVar,
    Up,
    Var,
    app,
    lam,
    canonical_key,
    format_term,
    infer_type,
    normalize,
    open_bound,
    parse_term,
    type_of,
    typecheck,
)
from gluesem.types import E, S, T, ArrowType, arrow, parse_type

import reference_normalize as reference
from random_terms import TYPE_POOL, random_term, with_holes

ET = arrow(E, T)
SIG = {
    "Bill": E,
    "Al": E,
    "leave": ET,
    "man": ET,
    "unicorn": ET,
    "find": arrow(E, E, T),
    "seek": parse_type("e -> (s -> ((s -> (e -> t)) -> t)) -> t"),
    "every": arrow(ET, ET, T),
    "a": arrow(ET, ET, T),
}

BILL = Const("Bill", E)
LEAVE = Const("leave", ET)


# ---------------------------------------------------------------------------
# typechecking


def test_application_eliminates_arrow():
    assert typecheck(app(LEAVE, BILL)) == T


def test_quantified_scope_abstraction_type():
    # \P. a(z, unicorn(z), !P(z)) where P holds an individual concept's
    # property: the whole abstraction maps s -> (e -> t) down to t
    term = parse_term("\\P:(s -> e -> t). a(z, unicorn(z), !P(z))", SIG)
    assert typecheck(term) == ArrowType(arrow(S, E, T), T)


def test_extension_requires_an_intension():
    with pytest.raises(ExtensionOfNonIntension):
        typecheck(Down(BILL))


def test_free_variable_must_be_declared():
    with pytest.raises(UnboundVariable):
        typecheck(Var("X", E))
    assert typecheck(Var("X", E), {"X": E}) == E


def test_bound_index_must_match_its_binder():
    assert typecheck(Lam(E, Bound(0, E))) == arrow(E, E)
    with pytest.raises(UnboundVariable):
        typecheck(Bound(0, E))  # no binder at all
    with pytest.raises(UnboundVariable):
        typecheck(Lam(E, Bound(0, T)))  # a binder of another type


def test_application_domain_mismatch():
    with pytest.raises(TypeMismatch):
        typecheck(app(LEAVE, LEAVE))


def test_env_disagreeing_with_annotation_is_an_error():
    with pytest.raises(TypeMismatch):
        typecheck(Var("X", E), {"X": T})


# ---------------------------------------------------------------------------
# abstraction


def test_lam_over_an_open_body_shifts_its_loose_index():
    # the body of \y. find(x, y) mentions y as a loose index; abstracting x
    # inside it must keep that index pointing past the new binder
    x = Var("x", E)
    inner = parse_term("\\y:e. find(x, y)", SIG, {"x": E})
    rebuilt = Lam(inner.ty, lam(x, inner.body))
    assert rebuilt == parse_term("\\y:e. \\x:e. find(x, y)", SIG)


# ---------------------------------------------------------------------------
# normalization


def test_beta_step():
    redex = app(lam(Var("x", E), app(LEAVE, Var("x", E))), BILL)
    assert normalize(redex) == app(LEAVE, BILL)


def test_extension_of_intension_cancels():
    P = Var("P", arrow(S, E, T))
    assert normalize(Down(Up(P))) == P


def test_eta_contraction_of_simple_wrapper():
    wrapped = lam(Var("x", E), app(LEAVE, Var("x", E)))
    assert normalize(wrapped) == LEAVE


def test_eta_leaves_non_tail_occurrences_alone():
    # \x. find(x, Bill): x is not the final argument, so no eta step fires
    x = Var("x", E)
    term = lam(x, app(Const("find", arrow(E, E, T)), x, BILL))
    assert normalize(term) == term


def test_extension_of_an_abstraction_that_eta_contracts_to_an_intension():
    # !(\s. (^\x. find(x, x))(s)) is !^(\x. find(x, x)); applied to Bill
    # it is a redex that only eta and !^ at read-back expose
    find = Const("find", arrow(E, E, T))
    x, s = Var("x", E), Var("s", S)
    inner = lam(x, app(find, x, x))
    wrapped = Down(lam(s, app(Up(inner), s)))
    assert normalize(app(wrapped, BILL)) == app(find, BILL, BILL)
    # the same redex met while evaluating: P is bound to the abstraction
    P = Var("P", arrow(S, E, T))
    beta = app(lam(P, app(Down(P), BILL)), lam(s, app(Up(inner), s)))
    assert normalize(beta) == app(find, BILL, BILL)


def test_a_hole_filled_with_an_abstraction_is_applied():
    find = Const("find", arrow(E, E, T))
    x = Var("x", E)
    hole = MetaVar("F", 1, arrow(E, T), 1)
    fillers = {1: lam(x, app(find, x, x))}
    asked = []

    def holes(m):
        asked.append(m.uid)
        return fillers.get(m.uid)

    term = app(Const("and", arrow(T, T, T)), app(hole, BILL), app(hole, BILL))
    out = normalize(term, holes)
    assert out == app(Const("and", arrow(T, T, T)), app(find, BILL, BILL),
                      app(find, BILL, BILL))
    assert asked == [1]  # each hole is looked up once per call


def test_normalize_with_holes_matches_zonk_then_normalize():
    # the reference substitutes every filled hole and then reduces one redex
    # at a time; normalize fills and reduces in one pass
    rng = random.Random(2026)
    uids = itertools.count(1)
    for i in range(10000):
        ty = rng.choice(TYPE_POOL)
        term = random_term(rng, ty, [], rng.randint(0, 4))
        fillers = {}
        if i % 2:
            term = with_holes(rng, term, fillers, uids, 2)
        asked = Counter()

        def holes(m):
            asked[m.uid] += 1
            return fillers.get(m.uid)

        want = reference.normalize(
            reference.zonk(term, lambda m: fillers.get(m.uid)))
        got = normalize(term, holes)
        assert got == want, format_term(term)
        assert all(n == 1 for n in asked.values())
        assert normalize(want) is want
        assert normalize(got, holes) is got
        assert type_of(got) == ty


def test_normalization_is_stable_on_parsed_reading():
    text = "seek(Bill, ^(\\P:(s -> e -> t). a(z, unicorn(z), !P(z))))"
    term = parse_term(text, SIG)
    assert normalize(term) == normalize(normalize(term))


# ---------------------------------------------------------------------------
# alpha comparison


def test_alpha_equal_identity_functions():
    assert lam(Var("x", E), Var("x", E)) == lam(Var("y", E), Var("y", E))


def test_alpha_equal_quantified_bodies():
    a = parse_term("every(z, man(z), leave(z))", SIG)
    b = parse_term("every(w, man(w), leave(w))", SIG)
    assert a == b
    assert canonical_key(a) == canonical_key(b)


def test_alpha_distinguishes_argument_order():
    a = parse_term("\\x:e. \\y:e. find(x, y)", SIG)
    b = parse_term("\\x:e. \\y:e. find(y, x)", SIG)
    assert a != b


# ---------------------------------------------------------------------------
# parsing and printing


@pytest.mark.parametrize("text", [
    "leave(Bill)",
    "every(z, man(z), leave(z))",
    "seek(Bill, ^(\\P:(s -> e -> t). !P(Al)))",
    "\\x:e. find(x, Bill)",
    "^leave",
])
def test_print_parse_round_trip(text):
    term = parse_term(text, SIG)
    again = parse_term(format_term(term), SIG)
    assert term == again


def test_body_of_an_abstraction_prints_its_loose_index():
    body = lam(Var("x", E), app(LEAVE, Var("x", E))).body
    assert format_term(body) == "leave(#0)"
    x, y = Var("x", E), Var("y", E)
    nested = lam(x, lam(y, app(Const("find", arrow(E, E, T)), x, y))).body
    assert format_term(nested) == "\\z:e. find(#0, z)"


def test_eigenvariable_prints_its_uid_only_beside_a_namesake():
    find = Const("find", arrow(E, E, T))
    x5, x9 = Eigen("x", 5, E), Eigen("x", 9, E)
    assert format_term(app(LEAVE, x5)) == "leave(x)"
    assert format_term(app(find, x5, x9)) == "find(x#5, x#9)"
    assert format_term(app(find, x5, Var("x", E))) == "find(x#5, x)"
    assert canonical_key(x5) == "v:x#5:e"


def test_quantifier_sugar_is_application_underneath():
    term = parse_term("every(z, man(z), leave(z))", SIG)
    assert isinstance(term, App)
    assert term.fn == Const("every", arrow(ET, ET, T))
    assert len(term.args) == 2


def test_a_3000_argument_call_is_one_node():
    c = Const("c", E)
    g = Const("g", arrow(*[E] * 3000, T))
    wide = app(g, *[c] * 3000)
    assert wide.fn is g and len(wide.args) == 3000
    assert infer_type(wide) == T
    assert normalize(wide) is wide
    assert wide == app(g, *[c] * 3000)


def test_printer_regenerates_quantifier_sugar():
    term = app(Const("every", arrow(ET, ET, T)),
               Const("man", ET), Const("leave", ET))
    assert format_term(term) == "every(z, man(z), leave(z))"


# ---------------------------------------------------------------------------
# randomized properties

_TYPE_POOL = [E, T, S, ET, arrow(S, T), arrow(E, E), arrow(ET, T),
              arrow(S, E, T)]


def _gen_term(draw, ty, env, depth):
    choices = ["const"]
    scoped = [v for v in env if v.ty == ty]
    if scoped:
        choices.extend(["var", "var"])
    if depth > 0:
        if isinstance(ty, ArrowType):
            choices.extend(["lam", "lam"])
            if ty.dom == S:
                choices.append("up")
        choices.extend(["app", "down"])
    pick = draw(st.sampled_from(choices))
    if pick == "var":
        return draw(st.sampled_from(scoped))
    if pick == "lam":
        var = Var(f"v{len(env)}", ty.dom)
        return lam(var, _gen_term(draw, ty.cod, env + [var], depth - 1))
    if pick == "up":
        return Up(_gen_term(draw, ty.cod, env, depth - 1))
    if pick == "down":
        return Down(_gen_term(draw, ArrowType(S, ty), env, depth - 1))
    if pick == "app":
        arg_ty = draw(st.sampled_from(_TYPE_POOL))
        fun = _gen_term(draw, ArrowType(arg_ty, ty), env, depth - 1)
        arg = _gen_term(draw, arg_ty, env, depth - 1)
        return app(fun, arg)
    return Const(f"k_{str(ty).replace(' ', '')}", ty)


@st.composite
def closed_terms(draw):
    ty = draw(st.sampled_from(_TYPE_POOL))
    return _gen_term(draw, ty, [], draw(st.integers(0, 4)))


def _contains_cancelled_pair(t):
    if isinstance(t, Down) and isinstance(t.body, Up):
        return True
    if isinstance(t, (Up, Down)):
        return _contains_cancelled_pair(t.body)
    if isinstance(t, Lam):
        return _contains_cancelled_pair(t.body)
    if isinstance(t, App):
        return any(map(_contains_cancelled_pair, (t.fn,) + t.args))
    return False


@settings(max_examples=300, deadline=None)
@given(closed_terms())
def test_normalize_idempotent_and_type_preserving(term):
    once = normalize(term)
    assert normalize(once) == once
    assert infer_type(once) == infer_type(term)
    assert not _contains_cancelled_pair(once)


def _in_spine_form(t):
    # no call has a call as its head or no arguments
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            if isinstance(u.fn, App) or not u.args:
                return False
            stack.extend((u.fn,) + u.args)
        elif isinstance(u, (Lam, Up, Down)):
            stack.append(u.body)
    return True


@st.composite
def call_in_head_position(draw):
    """A call, and index 0 applied to an argument where the call goes."""
    ty = ArrowType(draw(st.sampled_from(_TYPE_POOL)),
                   draw(st.sampled_from(_TYPE_POOL)))
    first_ty = draw(st.sampled_from(_TYPE_POOL))
    fn = _gen_term(draw, ArrowType(first_ty, ty), [], draw(st.integers(0, 2)))
    call = app(fn, _gen_term(draw, first_ty, [], draw(st.integers(0, 2))))
    arg = _gen_term(draw, ty.dom, [], draw(st.integers(0, 2)))
    return call, app(Bound(0, ty), arg), arg


@settings(max_examples=200, deadline=None)
@given(closed_terms(), call_in_head_position())
def test_calls_stay_in_spine_form(term, placed):
    call, body, arg = placed
    opened = open_bound(body, (call,))
    assert opened == app(call, arg)
    for t in (normalize(term), opened, normalize(opened)):
        assert _in_spine_form(t)


@st.composite
def open_term_with_filler(draw):
    hole_ty = draw(st.sampled_from(_TYPE_POOL))
    hole = Var("hole", hole_ty)
    ty = draw(st.sampled_from(_TYPE_POOL))
    body = _gen_term(draw, ty, [hole], draw(st.integers(0, 3)))
    value = _gen_term(draw, hole_ty, [], draw(st.integers(0, 3)))
    return hole, body, value


@settings(max_examples=200, deadline=None)
@given(open_term_with_filler())
def test_substitution_commutes_with_normalization(case):
    hole, body, value = case
    direct = normalize(app(lam(hole, body), value))
    staged = normalize(app(lam(hole, normalize(body)), normalize(value)))
    assert direct == staged
