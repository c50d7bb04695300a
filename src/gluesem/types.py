"""Simple types for the meaning language: e, t, s and function types."""

from __future__ import annotations

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
    ty, pos = _parse_type_at(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise TermSyntaxError(f"trailing input after type: {text[pos:]!r}", pos)
    return ty


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_type_at(text: str, pos: int) -> tuple[SimpleType, int]:
    """Parse a type starting at pos; arrows associate to the right."""
    left, pos = _parse_type_atom(text, pos)
    pos2 = _skip_ws(text, pos)
    if text.startswith("->", pos2):
        right, pos3 = _parse_type_at(text, pos2 + 2)
        return ArrowType(left, right), pos3
    return left, pos


def _parse_type_atom(text: str, pos: int) -> tuple[SimpleType, int]:
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise TermSyntaxError("expected a type", pos)
    ch = text[pos]
    if ch == "(":
        ty, pos = _parse_type_at(text, pos + 1)
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise TermSyntaxError("expected ')' in type", pos)
        return ty, pos + 1
    if ch in _BASE_TYPES:
        nxt = pos + 1
        if nxt < len(text) and (text[nxt].isalnum() or text[nxt] == "_"):
            raise TermSyntaxError(f"unknown type name at {text[pos:nxt+1]!r}", pos)
        return _BASE_TYPES[ch], nxt
    raise TermSyntaxError(f"unknown type syntax at {text[pos:pos+8]!r}", pos)
