"""Lexical entries, their instantiation against f-structures, and scenarios.

Lexicon files hold one entry per stanza (stanzas are separated by blank
lines, ``#`` starts a comment):

    entry left
      PRED = leave
      const leave : e -> t
      glue forall X:e. (^ SUBJ).sig ~> X -o ^.sig ~> leave(X)

Constraint lines (``ATTR = value``) state what the f-structure node an entry
attaches to must contain. ``const`` lines declare meaning constants; all
declarations are merged into one signature, so shared constants may be
repeated at the same type. The ``glue`` template is last and may span the
rest of the stanza.

Each attachment contributes one premise, its instantiated template. A
template that is a top-level tensor stays whole here; splitting it into
separate resources happens in ``prover.prepare_premises``.

Scenario files name an analysis to run:

    scenario bill-left
    lexicon lexicon.glue
    fstructure f:[PRED 'leave', SUBJ g:[PRED 'Bill']]
    attach Bill -> g
    attach left -> f
    goal f
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import LexiconError, PredMismatch
from .fstructure import FStructure, SemProjectionRef, parse_fstructure, resolve_path
from .glue import Formula, GlueAtom, PathRef, map_atoms, parse_glue
from .types import SimpleType, format_type, parse_type


@dataclass
class LexicalEntry:
    headword: str
    constraints: dict[str, str]
    template: Formula


@dataclass
class Lexicon:
    entries: dict[str, LexicalEntry] = field(default_factory=dict)
    signature: dict[str, SimpleType] = field(default_factory=dict)

    def entry(self, headword: str) -> LexicalEntry:
        found = self.entries.get(headword)
        if found is None:
            raise LexiconError(f"no lexical entry for {headword!r}")
        return found


@dataclass
class Premise:
    """One linear resource contributed to a derivation, with its origin."""

    name: str
    formula: Formula


@dataclass
class Scenario:
    name: str
    fs: FStructure
    attachments: list[tuple[str, str]]
    goal: str
    lexicon_path: Optional[str] = None
    lexicon: Optional[Lexicon] = None


# ---------------------------------------------------------------------------
# lexicon files

_CONSTRAINT_RE = re.compile(r"^([A-Za-z][A-Za-z0-9-]*)\s*=\s*(\S+)$")


def _strip_comments(text: str) -> list[str]:
    return [line.partition("#")[0].rstrip() for line in text.splitlines()]


def parse_lexicon(text: str) -> Lexicon:
    # stanzas are runs of nonblank lines
    stanzas = [list(run) for nonblank, run in
               itertools.groupby(_strip_comments(text), key=bool) if nonblank]
    lexicon = Lexicon()
    raw: list[tuple[str, dict[str, str], str]] = []
    for stanza in stanzas:
        head = stanza[0].strip()
        if not head.startswith("entry "):
            raise LexiconError(f"stanza must start with 'entry': {head!r}")
        headword = head[len("entry "):].strip()
        if any(r[0] == headword for r in raw):
            raise LexiconError(f"duplicate entry for {headword!r}")
        constraints: dict[str, str] = {}
        glue_text: Optional[str] = None
        for i in range(1, len(stanza)):
            line = stanza[i].strip()
            m = _CONSTRAINT_RE.match(line)  # first: glue = yes is a constraint
            if m:
                if m.group(1) in constraints:
                    raise LexiconError(
                        f"constraint {m.group(1)} repeated in {headword}"
                    )
                constraints[m.group(1)] = m.group(2)
            elif line.split(None, 1)[0] == "glue":
                glue_text = " ".join(
                    [line[len("glue"):].strip()]
                    + [l.strip() for l in stanza[i + 1:]]
                )
                break
            elif line.startswith("const "):
                name, _, ty_text = line[len("const "):].partition(":")
                name = name.strip()
                ty = parse_type(ty_text.strip())
                declared = lexicon.signature.get(name)
                if declared is not None and declared != ty:
                    raise LexiconError(
                        f"constant {name} declared at {format_type(declared)} "
                        f"and {format_type(ty)}"
                    )
                lexicon.signature[name] = ty
            else:
                raise LexiconError(
                    f"unrecognized line in entry {headword}: {line!r}"
                )
        if glue_text is None:
            raise LexiconError(f"entry {headword} has no glue template")
        raw.append((headword, constraints, glue_text))

    # templates may use constants from any stanza, so parse them second
    for headword, constraints, glue_text in raw:
        template = parse_glue(glue_text, lexicon.signature)
        lexicon.entries[headword] = LexicalEntry(headword, constraints, template)
    return lexicon


def read_text(path: str) -> str:
    """The contents of an input file, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path} is not UTF-8: {exc.reason} at byte "
                           f"{exc.start}") from None


_last_parse = ("", Lexicon())  # the text parsed last, and its lexicon


def load_lexicon(path: str) -> Lexicon:
    """Parse a lexicon file; unchanged text reuses the last parse, and the
    returned dicts belong to the caller (the entries are shared)."""
    global _last_parse
    text = read_text(path)
    last = _last_parse  # read once, as another thread may replace it
    parsed = last[1] if text == last[0] else parse_lexicon(text)
    _last_parse = (text, parsed)
    return Lexicon(dict(parsed.entries), dict(parsed.signature))


# ---------------------------------------------------------------------------
# instantiation

def instantiate(entry: LexicalEntry, node: str, fs: FStructure) -> Formula:
    """Attach an entry to the node with the given label.

    The node must satisfy the entry's attribute constraints; template paths
    are resolved relative to it.
    """
    node_fs = fs.node(node)
    for attr, expected in entry.constraints.items():
        actual = node_fs.attrs.get(attr)
        if actual != expected:
            have = f"{attr} {actual!r}" if actual is not None else f"no {attr}"
            raise PredMismatch(
                f"entry {entry.headword} requires {attr} = {expected!r} "
                f"but node {node} has {have}"
            )

    def resolve(a: GlueAtom, _) -> GlueAtom:
        if not isinstance(a.proj, PathRef):
            return a
        label = resolve_path(fs, a.proj.path, start=node)
        return GlueAtom(SemProjectionRef(label, a.proj.facet),
                        a.meaning, a.result_type)

    return map_atoms(entry.template, resolve)


def premises(scenario: Scenario, lexicon: Lexicon) -> list[Premise]:
    """Instantiate every attachment, one premise per attachment.

    A top-level tensor stays whole here; prover.prepare_premises splits it
    into its parts when the search, the oracle or check_proof consume it.
    """
    try:
        return [Premise(w, instantiate(lexicon.entry(w), label, scenario.fs))
                for w, label in scenario.attachments]
    except RecursionError as exc:  # last resort: input too wide to walk
        raise LexiconError(f"input too large to process: {exc}") from None


# ---------------------------------------------------------------------------
# scenario files

_KEYWORDS = ("scenario", "lexicon", "fstructure", "attach", "goal")


def parse_scenario(text: str) -> Scenario:
    name: Optional[str] = None
    lexicon_path: Optional[str] = None
    fs_text: Optional[list[str]] = None
    attachments: list[tuple[str, str]] = []
    goal: Optional[str] = None
    collecting_fs = False
    for line in _strip_comments(text):
        stripped = line.strip()
        if not stripped:
            continue
        keyword = stripped.split(None, 1)[0]
        if keyword in _KEYWORDS:
            collecting_fs = False
        if keyword == "scenario":
            name = stripped[len("scenario"):].strip()
        elif keyword == "lexicon":
            lexicon_path = stripped[len("lexicon"):].strip()
        elif keyword == "fstructure":
            fs_text = [stripped[len("fstructure"):].strip()]
            collecting_fs = True
        elif keyword == "attach":
            rest = stripped[len("attach"):].strip()
            word, sep, label = rest.partition("->")
            if not sep:
                raise LexiconError(f"attach line needs '->': {stripped!r}")
            attachments.append((word.strip(), label.strip()))
        elif keyword == "goal":
            goal = stripped[len("goal"):].strip()
        elif collecting_fs:
            fs_text.append(stripped)
        else:
            raise LexiconError(f"unrecognized scenario line: {stripped!r}")
    if name is None:
        raise LexiconError("scenario file has no 'scenario' line")
    if fs_text is None:
        raise LexiconError(f"scenario {name} has no f-structure")
    if goal is None:
        raise LexiconError(f"scenario {name} has no goal")
    fs = parse_fstructure(" ".join(fs_text))
    known = set(fs.nodes())
    for word, label in attachments:
        if label not in known:
            raise LexiconError(
                f"attachment {word!r} names unknown node {label!r}"
            )
    if goal not in known:
        raise LexiconError(f"goal names unknown node {goal!r}")
    return Scenario(name, fs, attachments, goal, lexicon_path)


def load_scenario(path: str) -> Scenario:
    """Load a scenario; a declared lexicon is loaded relative to the file."""
    scenario = parse_scenario(read_text(path))
    if scenario.lexicon_path is not None:
        base = os.path.dirname(os.path.abspath(path))
        scenario.lexicon = load_lexicon(
            os.path.join(base, scenario.lexicon_path)
        )
    return scenario
