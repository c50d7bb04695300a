"""F-structures: labeled attribute-value matrices and semantic projection refs.

Bracketed syntax:

    f:[PRED 'seek', SUBJ g:[PRED 'Bill'], OBJ h:[SPEC 'a', PRED 'unicorn']]

Atomic values are quoted symbols; nested nodes carry their own label. A bare
label in value position is a reference to a node defined elsewhere, which
gives re-entrancy (shared structure). Cycles are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import (
    AtomicValueOnPath,
    CyclicStructure,
    DuplicateAttribute,
    DuplicateLabel,
    FStructureSyntaxError,
    MissingAttribute,
    UnknownLabel,
)
from .types import IDENT_RE, Scanner

FACETS = ("MAIN", "VAR", "RESTR")


@dataclass(frozen=True)
class SemProjectionRef:
    """Reference to the semantic projection of an f-structure node.

    The VAR and RESTR facets address the variable and restriction slots that
    determiner premises use; MAIN is the projection itself.
    """

    label: str
    facet: str = "MAIN"

    def __post_init__(self):
        if self.facet not in FACETS:
            raise ValueError(f"unknown facet {self.facet!r}")

    def __repr__(self):
        if self.facet == "MAIN":
            return f"{self.label}.sig"
        return f"{self.label}.sig.{self.facet}"


@dataclass
class FStructure:
    label: str
    attrs: dict[str, Union[str, "FStructure"]] = field(default_factory=dict)

    def nodes(self) -> dict[str, "FStructure"]:
        """All reachable nodes by label, in pre-order.

        One walk over an explicit stack, so a long chain of references needs
        no recursion. It checks that labels are unique and that no node
        reaches itself: a node seen again must be done, not on the path.
        """
        seen: dict[str, FStructure] = {self.label: self}
        done: set[str] = set()
        stack = [(self, iter(self.attrs.values()))]
        while stack:
            node, rest = stack[-1]
            child = next((v for v in rest if isinstance(v, FStructure)), None)
            if child is None:
                done.add(node.label)
                stack.pop()
                continue
            known = seen.get(child.label)
            if known is None:
                seen[child.label] = child
                stack.append((child, iter(child.attrs.values())))
            elif known is not child:
                raise DuplicateLabel(
                    f"label {child.label} used for two distinct nodes")
            elif child.label not in done:
                raise CyclicStructure(f"cycle through node {child.label}")
        return seen

    def node(self, label: str) -> "FStructure":
        found = self.nodes().get(label)
        if found is None:
            raise UnknownLabel(f"no node labeled {label}")
        return found

    def validate(self) -> None:
        """Check label uniqueness and acyclicity."""
        self.nodes()

    def __eq__(self, other):
        """Equal labels and values, over an explicit stack of node pairs."""
        if not isinstance(other, FStructure):
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.label != b.label or a.attrs.keys() != b.attrs.keys():
                return False
            for attr, x in a.attrs.items():
                y = b.attrs[attr]
                if isinstance(x, FStructure) and isinstance(y, FStructure):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self):
        return format_fstructure(self)


def resolve_path(root: FStructure, path: Sequence[str],
                 start: Optional[str] = None) -> str:
    """Label of the node reached from start by following attribute names."""
    node = root if start is None else root.node(start)
    for i, attr in enumerate(path):
        value = node.attrs.get(attr)
        if value is None:
            raise MissingAttribute(
                f"node {node.label} has no attribute {attr}"
            )
        if not isinstance(value, FStructure):
            raise AtomicValueOnPath(
                f"attribute {attr} of {node.label} is atomic ({value!r}); "
                f"cannot follow {' '.join(path[i:])}"
            )
        node = value
    return node.label


# ---------------------------------------------------------------------------
# bracketed text format

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _FsParser(Scanner):
    syntax_error = FStructureSyntaxError

    def __init__(self, text: str):
        super().__init__(text)
        self.defined: dict[str, FStructure] = {}
        # re-entrant values, linked to their nodes once all are read
        self.pending: list[tuple[FStructure, str, str]] = []

    def node(self, label: str) -> FStructure:
        """The bracketed node after its label."""
        if self.peek() != ":":
            raise self.error(f"expected ':' after label {label}")
        self.pos += 1
        self.expect("[")
        if label in self.defined:
            raise DuplicateLabel(f"label {label} defined twice")
        node = self.defined[label] = FStructure(label)
        if self.peek() == "]":
            self.pos += 1
            return node
        while True:
            self.pair(node)
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return node
            # attribute pairs may also be separated by whitespace alone,
            # matching how attribute-value matrices are usually laid out
            if IDENT_RE.match(self.text, self.pos):
                continue
            raise self.error("expected ',' or ']'")

    def pair(self, node: FStructure) -> None:
        attr = self.ident(IDENT_RE, "an attribute name")
        if attr in node.attrs:
            raise DuplicateAttribute(
                f"attribute {attr} repeated on node {node.label}"
            )
        if self.peek() == "'":
            self.pos += 1
            end = self.text.find("'", self.pos)
            if end < 0:
                raise self.error("unterminated quoted value")
            node.attrs[attr] = self.text[self.pos:end]
            self.pos = end + 1
            return
        label = self.ident(_LABEL_RE, f"a value for attribute {attr}")
        if self.peek() == ":":
            self.deeper()
            node.attrs[attr] = self.node(label)
            self.depth -= 1
        else:
            # bare label: re-entrant reference, resolved after the full parse
            node.attrs[attr] = label
            self.pending.append((node, attr, label))


def parse_fstructure(text: str) -> FStructure:
    parser = _FsParser(text)
    root = parser.finish(parser.node(parser.ident(_LABEL_RE, "a node label")))
    for node, attr, label in parser.pending:
        target = parser.defined.get(label)
        if target is None:
            raise UnknownLabel(
                f"attribute {attr} of {node.label} references undefined "
                f"label {label}"
            )
        node.attrs[attr] = target
    root.validate()
    return root


def format_fstructure(fs: FStructure) -> str:
    """The bracketed text, written over an explicit stack of nodes and the
    text between them; a node met again prints as its label."""
    printed: set[str] = set()
    out: list[str] = []
    stack: list[Union[str, FStructure]] = [fs]
    while stack:
        node = stack.pop()
        if isinstance(node, str) or node.label in printed:
            out.append(node if isinstance(node, str) else node.label)
            continue
        printed.add(node.label)
        parts: list[Union[str, FStructure]] = [f"{node.label}:["]
        for attr, value in node.attrs.items():
            sep = ", " if len(parts) > 1 else ""
            parts += ([f"{sep}{attr} ", value] if isinstance(value, FStructure)
                      else [f"{sep}{attr} '{value}'"])
        stack += reversed(parts + ["]"])
    return "".join(out)
