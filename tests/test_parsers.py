"""The four text parsers: exact syntax errors, with their offsets, and the
nesting limit."""

import time

import pytest

from gluesem.errors import (
    AtomTypeMismatch,
    ExtensionOfNonIntension,
    FStructureSyntaxError,
    GlueError,
    GlueSyntaxError,
    OpenVariable,
    TermSyntaxError,
    TypeMismatch,
)
from gluesem.fstructure import parse_fstructure
from gluesem.glue import parse_glue
from gluesem.terms import format_term, parse_term
from gluesem.types import MAX_NESTING, parse_type

SIG = {
    "Bill": parse_type("e"),
    "leave": parse_type("e -> t"),
    "man": parse_type("e -> t"),
    "every": parse_type("(e -> t) -> (e -> t) -> t"),
}

PARSERS = {
    "term": lambda text: parse_term(text, SIG),
    "type": parse_type,
    "glue": lambda text: parse_glue(text, SIG),
    "fs": parse_fstructure,
}

ERRORS = [
    ("term", "", TermSyntaxError, "expected an identifier (at offset 0)"),
    ("term", "leave(Bill", TermSyntaxError, "expected ')' (at offset 10)"),
    ("term", "\\x. leave(x)", TermSyntaxError, "expected ':' (at offset 2)"),
    ("term", "leave(Bob)", TermSyntaxError,
     "unknown identifier 'Bob' (at offset 9)"),
    ("term", "leave(Bill) Bill", TermSyntaxError,
     "trailing input 'Bill' (at offset 12)"),
    # not the quantifier sugar (two arguments), so reparsed as a plain call
    ("term", "every(z, man(z))", TermSyntaxError,
     "unknown identifier 'z' (at offset 7)"),
    ("term", "\\x:q. x", TermSyntaxError,
     "unknown type syntax at 'q. x' (at offset 3)"),
    ("type", "", TermSyntaxError, "expected a type (at offset 0)"),
    ("type", "e ->", TermSyntaxError, "expected a type (at offset 4)"),
    ("type", "(e -> t", TermSyntaxError, "expected ')' in type (at offset 7)"),
    ("type", "et", TermSyntaxError, "unknown type name at 'et' (at offset 0)"),
    ("type", "e t", TermSyntaxError,
     "trailing input after type: 't' (at offset 2)"),
    ("type", "x", TermSyntaxError, "unknown type syntax at 'x' (at offset 0)"),
    ("glue", "g.sig ~> Bill -o", GlueSyntaxError,
     "expected an identifier (at offset 16)"),
    ("glue", "(^ SUBJ).sig Bill", GlueSyntaxError,
     "expected '~>' (at offset 13)"),
    # ^ followed by '.' opens a parenthesized formula, not a path
    ("glue", "(^.sig ~> Bill", GlueSyntaxError, "expected ')' (at offset 14)"),
    ("glue", "((^ SUBJ).sig ~> Bill", GlueSyntaxError,
     "expected ')' (at offset 21)"),
    ("glue", "forall H:proj(t). H ~> Bill", AtomTypeMismatch,
     "H carries t resources but Bill has type e"),
    ("glue", "H ~> Bill", OpenVariable, "projection variable H is not bound"),
    # an unbound projection variable, then a syntax error: the syntax error wins
    ("glue", "H ~> Bill -o", GlueSyntaxError,
     "expected an identifier (at offset 12)"),
    ("glue", "forall X:e g.sig ~> X", GlueSyntaxError,
     "expected '.' (at offset 11)"),
    ("glue", "g.sig.FOO ~> Bill", GlueSyntaxError,
     "expected facet VAR or RESTR after '.' (at offset 5)"),
    ("glue", "g.sog ~> Bill", GlueSyntaxError,
     "expected 'sig' after '.' (at offset 2)"),
    ("glue", "g.sig ~> leave(", TermSyntaxError,
     "expected an identifier (at offset 15)"),
    ("glue", "forall X:proj(q). X ~> Bill", TermSyntaxError,
     "unknown type syntax at 'q). X ~>' (at offset 14)"),
    ("glue", "g.sig ~> Bill )", GlueSyntaxError,
     "trailing input ')' (at offset 14)"),
    # meanings are typechecked as they are read: no ill-typed atom is built
    ("glue", "g.sig ~> leave(leave)", TypeMismatch,
     "argument type e -> t does not match domain e"),
    ("glue", "forall X:e. g.sig ~> X(Bill)", TypeMismatch,
     "cannot apply term of type e"),
    ("glue", "g.sig ~> !Bill", ExtensionOfNonIntension,
     "! applied to term of type e"),
    ("fs", "1:[]", FStructureSyntaxError, "expected a node label (at offset 0)"),
    ("fs", "f [PRED 'x']", FStructureSyntaxError,
     "expected ':' after label f (at offset 2)"),
    ("fs", "f:PRED", FStructureSyntaxError, "expected '[' (at offset 2)"),
    ("fs", "f:[, ]", FStructureSyntaxError,
     "expected an attribute name (at offset 3)"),
    ("fs", "f:[PRED 'leave]", FStructureSyntaxError,
     "unterminated quoted value (at offset 9)"),
    ("fs", "f:[SUBJ 5]", FStructureSyntaxError,
     "expected a value for attribute SUBJ (at offset 8)"),
    ("fs", "f:[PRED 'leave'", FStructureSyntaxError,
     "expected ',' or ']' (at offset 15)"),
    ("fs", "f:[] x", FStructureSyntaxError, "trailing input 'x' (at offset 5)"),
]


@pytest.mark.parametrize("grammar,text,error,message", ERRORS)
def test_malformed_input_raises_the_exact_error(grammar, text, error, message):
    with pytest.raises(GlueError) as info:
        PARSERS[grammar](text)
    assert type(info.value) is error
    assert str(info.value) == message


# each makes input that nests exactly n levels
DEEP = [
    ("term", lambda n: "(" * n + "Bill" + ")" * n),
    # a lambda body, then quantifier sugar, which backtracks on syntax errors
    ("term", lambda n: "\\z:e. " + "every(z, man(z), " * (n - 2) + "man(z)"
     + ")" * (n - 2)),
    ("type", lambda n: "e -> " * n + "t"),
    ("glue", lambda n: "(" * n + "g.sig ~> Bill" + ")" * n),
    ("fs", lambda n: "".join(f"f{i}:[A " for i in range(n)) + "g:[]" + "]" * n),
]


@pytest.mark.parametrize("grammar,make", DEEP)
def test_nesting_past_the_limit_is_a_syntax_error(grammar, make):
    PARSERS[grammar](make(MAX_NESTING))
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(GlueError) as info:
            PARSERS[grammar](make(depth))
        assert str(info.value).startswith(
            f"nesting deeper than {MAX_NESTING} levels (at offset ")


def test_failed_quantifier_sugar_backtracks_in_polynomial_time():
    # each nested every(u, ... is tried as sugar, fails at the missing
    # parentheses, and is reparsed as a plain call
    text = "every(z, man(z), " + "every(u, " * 60 + "leave(u)"
    start = time.perf_counter()
    with pytest.raises(TermSyntaxError) as info:
        parse_term(text, SIG)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == "unknown identifier 'z' (at offset 7)"


def test_sugar_retried_once_its_binder_no_longer_hides_a_determiner():
    # as sugar, the outer binder a hides the determiner a, so the inner
    # every(w, ...) fails; reparsed as a plain call, a is the determiner
    # again and the same inner text is sugar after all
    sig = dict(SIG, a=SIG["every"])
    text = "every(a, man(a), every(w, a(v, man(v), leave(v)), leave(w)))"
    assert format_term(parse_term(text, sig)) == \
        "every(a, man(a), every(z, a(u, man(u), leave(u)), leave(z)))"
