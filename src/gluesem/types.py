"""Simple types for the meaning language, and the scanner the parsers share."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import TermSyntaxError


class SimpleType:
    """Base class; instances are BaseType or ArrowType."""

    __slots__ = ()


@dataclass(frozen=True)
class BaseType(SimpleType):
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class ArrowType(SimpleType):
    dom: SimpleType
    cod: SimpleType

    def __repr__(self):
        return format_type(self)


E = BaseType("e")
T = BaseType("t")
S = BaseType("s")

_BASE_TYPES = {"e": E, "t": T, "s": S}


def arrow(*types: SimpleType) -> SimpleType:
    """Right-associated function type: arrow(a, b, c) is a -> (b -> c)."""
    if not types:
        raise ValueError("arrow() needs at least one type")
    result = types[-1]
    for ty in reversed(types[:-1]):
        result = ArrowType(ty, result)
    return result


# Generalized determiners (every, a) take a restriction and a scope.
QUANTIFIER_TYPE = arrow(arrow(E, T), arrow(E, T), T)


def format_type(ty: SimpleType) -> str:
    if isinstance(ty, BaseType):
        return ty.name
    assert isinstance(ty, ArrowType)
    dom = format_type(ty.dom)
    if isinstance(ty.dom, ArrowType):
        dom = f"({dom})"
    return f"{dom} -> {format_type(ty.cod)}"


def parse_type(text: str) -> SimpleType:
    scanner = Scanner(text)
    return scanner.finish(scanner.type(), "trailing input after type:")


# ---------------------------------------------------------------------------
# the scanner under the text parsers

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*")

# Parentheses, argument lists, binder bodies, ^ and ! prefixes, the right
# side of -> and -o, and nested f-structures each open one level. The corpus
# nests at most 8; the limit keeps deep input a syntax error well inside
# Python's recursion limit.
MAX_NESTING = 100


class Scanner:
    """Cursor over text for the recursive-descent parsers of each format.

    Subclasses set syntax_error to their format's exception class. The type
    grammar lives here because terms and glue formulas embed it; a malformed
    type raises TermSyntaxError in every format.
    """

    syntax_error: type = TermSyntaxError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str) -> Exception:
        return self.syntax_error(msg, self.pos)

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        text, pos = self.text, self.pos
        end = len(text)
        while pos < end and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < end else ""

    skip_ws = peek  # for callers that want only the skip

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def ident(self, pattern: re.Pattern = IDENT_RE,
              what: str = "an identifier") -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def deeper(self) -> None:
        """Enter one nesting level; the caller leaves it with depth -= 1.

        An error unwinds without leaving, so depth > MAX_NESTING afterwards
        tells a caller that backtracks that the limit was hit. Callers make
        the recursive call themselves: a wrapper that made it added about
        10% to the time to parse the corpus lexicon.
        """
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    def finish(self, result, trailing: str = "trailing input"):
        """result, once nothing but whitespace is left."""
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"{trailing} {self.text[self.pos:]!r}")
        return result

    def type(self) -> SimpleType:
        """Parse a type; arrows associate to the right."""
        ch = self.peek()
        text, pos = self.text, self.pos
        if ch == "(":
            self.pos += 1
            self.deeper()
            ty = self.type()
            self.depth -= 1
            if self.peek() != ")":
                raise TermSyntaxError("expected ')' in type", self.pos)
            self.pos += 1
        elif ch in _BASE_TYPES:
            after = text[pos + 1:pos + 2]
            if after.isalnum() or after == "_":
                raise TermSyntaxError(
                    f"unknown type name at {text[pos:pos + 2]!r}", pos)
            ty = _BASE_TYPES[ch]
            self.pos = pos + 1
        elif ch:
            raise TermSyntaxError(
                f"unknown type syntax at {text[pos:pos + 8]!r}", pos)
        else:
            raise TermSyntaxError("expected a type", pos)
        self.skip_ws()
        if text.startswith("->", self.pos):
            self.pos += 2
            self.deeper()
            ty = ArrowType(ty, self.type())
            self.depth -= 1
        return ty
