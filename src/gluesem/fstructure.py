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
        """All reachable nodes by label; validates label uniqueness."""
        seen: dict[str, FStructure] = {}
        self._collect(seen)
        return seen

    def _collect(self, seen: dict[str, "FStructure"]) -> None:
        known = seen.get(self.label)
        if known is self:
            return
        if known is not None:
            raise DuplicateLabel(f"label {self.label} used for two distinct nodes")
        seen[self.label] = self
        for value in self.attrs.values():
            if isinstance(value, FStructure):
                value._collect(seen)

    def node(self, label: str) -> "FStructure":
        found = self.nodes().get(label)
        if found is None:
            raise UnknownLabel(f"no node labeled {label}")
        return found

    def validate(self) -> None:
        """Check label uniqueness and acyclicity."""
        self.nodes()
        _check_acyclic(self)

    def __repr__(self):
        return format_fstructure(self)


def _check_acyclic(root: FStructure) -> None:
    on_stack: set[int] = set()
    done: set[int] = set()

    def visit(node: FStructure) -> None:
        if id(node) in done:
            return
        if id(node) in on_stack:
            raise CyclicStructure(f"cycle through node {node.label}")
        on_stack.add(id(node))
        for value in node.attrs.values():
            if isinstance(value, FStructure):
                visit(value)
        on_stack.discard(id(node))
        done.add(id(node))

    visit(root)


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


class _Nodes:
    """The labeled nodes of one structure being read, and its references."""

    def __init__(self):
        self.defined: dict[str, FStructure] = {}
        self.pending: list[tuple[FStructure, str, str]] = []

    def new(self, label: str) -> FStructure:
        if label in self.defined:
            raise DuplicateLabel(f"label {label} defined twice")
        node = self.defined[label] = FStructure(label)
        return node

    def reference(self, node: FStructure, attr: str, label: str) -> None:
        """A re-entrant value, linked to its node once all are read."""
        node.attrs[attr] = label
        self.pending.append((node, attr, label))

    def link(self, root: FStructure) -> FStructure:
        for node, attr, label in self.pending:
            target = self.defined.get(label)
            if target is None:
                raise UnknownLabel(
                    f"attribute {attr} of {node.label} references undefined "
                    f"label {label}"
                )
            node.attrs[attr] = target
        root.validate()
        return root


class _FsParser(Scanner):
    syntax_error = FStructureSyntaxError

    def __init__(self, text: str):
        super().__init__(text)
        self.nodes = _Nodes()

    def node(self, label: str) -> FStructure:
        """The bracketed node after its label."""
        if self.peek() != ":":
            raise self.error(f"expected ':' after label {label}")
        self.pos += 1
        self.expect("[")
        node = self.nodes.new(label)
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
            self.nodes.reference(node, attr, label)


def parse_fstructure(text: str) -> FStructure:
    parser = _FsParser(text)
    root = parser.node(parser.ident(_LABEL_RE, "a node label"))
    return parser.nodes.link(parser.finish(root))


def format_fstructure(fs: FStructure) -> str:
    printed: set[str] = set()

    def render(node: FStructure) -> str:
        if node.label in printed:
            return node.label
        printed.add(node.label)
        parts = []
        for attr, value in node.attrs.items():
            if isinstance(value, FStructure):
                parts.append(f"{attr} {render(value)}")
            else:
                parts.append(f"{attr} '{value}'")
        return f"{node.label}:[{', '.join(parts)}]"

    return render(fs)

