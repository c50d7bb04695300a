"""Seeded input generators for the benchmark workloads (stdlib only).

Each generator is a pure function of its arguments: it returns the files it
would write as ``{relative path: text}``, so the same seed gives
byte-identical scenario and lexicon files. Nothing here imports gluesem;
the program under test only ever sees the files these functions produce.
"""

from __future__ import annotations

import itertools
import random

DETERMINERS = ("every", "a", "no", "some", "most")
NOUNS = ("man", "woman", "unicorn", "dog", "book")


# ---------------------------------------------------------------------------
# scope-k: k quantified NPs around one k-ary relation, k! readings

def relation(k: int) -> str:
    return f"rel{k}"


def scope_lexicon(k: int) -> str:
    """One quantifier entry per determiner and noun, plus the k-ary verb.

    The verb takes its arguments as one tensor antecedent, like ``finds`` in
    the shipped lexicon, so every quantifier scopes at the clause.
    """
    stanzas = []
    for det in DETERMINERS:
        for noun in NOUNS:
            stanzas.append(
                f"entry {det}-{noun}\n"
                f"SPEC = {det}\n"
                f"PRED = {noun}\n"
                f"const {det} : (e -> t) -> (e -> t) -> t\n"
                f"const {noun} : e -> t\n"
                f"glue forall H:proj(t), S:e -> t.\n"
                f"  (forall x:e. ^.sig ~> x -o H ~> S(x))"
                f" -o H ~> {det}(z, {noun}(z), S(z))\n"
            )
    rel = relation(k)
    binders = ", ".join(f"X{i}:e" for i in range(1, k + 1))
    antecedent = " * ".join(f"(^ ARG{i}).sig ~> X{i}" for i in range(1, k + 1))
    args = ", ".join(f"X{i}" for i in range(1, k + 1))
    stanzas.append(
        f"entry {rel}\n"
        f"PRED = {rel}\n"
        f"const {rel} : {' -> '.join(['e'] * k)} -> t\n"
        f"glue forall {binders}.\n"
        f"  {antecedent} -o ^.sig ~> {rel}({args})\n"
    )
    return "\n".join(stanzas)


def scope_scenario(rng: random.Random, k: int,
                   name: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """One scenario: determiner and noun per argument slot, shuffled attachments.

    Returns the scenario text and the (determiner, noun) of each slot, which
    is what the reference nestings are built from.
    """
    nps = tuple((rng.choice(DETERMINERS), rng.choice(NOUNS)) for _ in range(k))
    rel = relation(k)
    slots = "\n".join(
        f"     ARG{i} g{i}:[SPEC '{det}' PRED '{noun}']"
        for i, (det, noun) in enumerate(nps, 1)
    )
    attachments = [f"attach {det}-{noun} -> g{i}"
                   for i, (det, noun) in enumerate(nps, 1)]
    attachments.append(f"attach {rel} -> f")
    rng.shuffle(attachments)
    text = (f"scenario {name}\n"
            f"lexicon lexicon.glue\n"
            f"fstructure\n"
            f"  f:[PRED '{rel}'\n{slots}]\n"
            + "".join(line + "\n" for line in attachments)
            + "goal f\n")
    return text, nps


def scope_inputs(seed: int, k: int, count: int) \
        -> tuple[dict[str, str], list[tuple[str, tuple[tuple[str, str], ...]]]]:
    """The lexicon and ``count`` scenarios; returns (files, [(path, nps)])."""
    rng = random.Random(f"scope-k{k}:{seed}")
    files = {"lexicon.glue": scope_lexicon(k)}
    cases = []
    for i in range(count):
        path = f"s{i:03d}.txt"
        text, nps = scope_scenario(rng, k, f"scope-k{k}-{seed}-{i:03d}")
        files[path] = text
        cases.append((path, nps))
    return files, cases


def scope_references(nps: tuple[tuple[str, str], ...]) -> list[str]:
    """Every quantifier nesting over the relation, as term text.

    Slot i binds variable ``x<i>``; each permutation of the slots gives one
    nesting, outermost quantifier first, so k slots give k! terms.
    """
    rel = relation(len(nps))
    body = f"{rel}({', '.join(f'x{i}' for i in range(1, len(nps) + 1))})"
    out = []
    for order in itertools.permutations(range(1, len(nps) + 1)):
        term = body
        for i in reversed(order):
            det, noun = nps[i - 1]
            term = f"{det}(x{i}, {noun}(x{i}), {term})"
        out.append(term)
    return out


# ---------------------------------------------------------------------------
# verified: sentences over the shipped corpus lexicon

# entry name -> (SPEC, PRED) for quantified NPs; None marks a proper name
_NPS = {
    "Bill": None,
    "Al": None,
    "every-man": ("every", "man"),
    "a-unicorn": ("a", "unicorn"),
    "every-unicorn": ("every", "unicorn"),
}
_CONVERSATION = "a-conversation-with-every-unicorn"
_VERBS = {"left": "leave", "finds": "find", "seeks": "seek"}
_FIRST = ("Bill", "seeks", "a-unicorn")  # two readings, a mid-cost sentence


def verified_sentences() -> list[tuple[str, str, str | None]]:
    """Every (subject, verb, object) the generator draws from.

    Subjects and objects are the shipped names and quantified NPs; ``left``
    takes no object, and only ``seeks`` takes the relational-noun object.
    """
    subjects = list(_NPS)
    out: list[tuple[str, str, str | None]] = []
    for subj in subjects:
        out.append((subj, "left", None))
        out.extend((subj, "finds", obj) for obj in subjects)
        out.extend((subj, "seeks", obj) for obj in subjects + [_CONVERSATION])
    return out


def _np(label: str, word: str) -> tuple[str, list[tuple[str, str]]]:
    if word == _CONVERSATION:
        return (f"{label}:[SPEC 'a' PRED 'conversation' "
                f"OBL-WITH {label}w:[SPEC 'every' PRED 'unicorn']]",
                [("a", label), ("conv-with", label),
                 ("every-unicorn", f"{label}w")])
    spec = _NPS[word]
    if spec is None:
        return f"{label}:[PRED '{word}']", [(word, label)]
    return f"{label}:[SPEC '{spec[0]}' PRED '{spec[1]}']", [(word, label)]


def verified_scenario(rng: random.Random, sentence: tuple[str, str, str | None],
                      name: str, lexicon_ref: str) -> str:
    subj, verb, obj = sentence
    subj_fs, attachments = _np("g", subj)
    parts = [f"SUBJ {subj_fs}"]
    attachments.append((verb, "f"))
    if obj is not None:
        obj_fs, obj_attachments = _np("h", obj)
        parts.append(f"OBJ {obj_fs}")
        attachments.extend(obj_attachments)
    rng.shuffle(attachments)
    return (f"scenario {name}\n"
            f"lexicon {lexicon_ref}\n"
            f"fstructure\n"
            f"  f:[PRED '{_VERBS[verb]}'\n"
            + "".join(f"     {part}\n" for part in parts[:-1])
            + f"     {parts[-1]}]\n"
            + "".join(f"attach {w} -> {label}\n" for w, label in attachments)
            + "goal f\n")


def verified_inputs(seed: int, lexicon_ref: str) \
        -> tuple[dict[str, str], list[str]]:
    """One pass: an opening sentence, then every sentence once in seeded order.

    Drawing each sentence once per pass rather than independently keeps the
    mix of cheap and expensive sentences the same for every seed, so the
    latency median measures the program and not the draw. The opening
    sentence is the same for every seed because the set-up runs it as the
    warm-up operation; it also makes the pass odd-sized (61), so the median
    falls inside one sentence's latencies rather than on the gap between
    two. Attachment order is shuffled in every scenario. Returns (files,
    scenario paths in pass order).
    """
    rng = random.Random(f"verified:{seed}")
    sentences = verified_sentences()
    rng.shuffle(sentences)
    sentences.insert(0, _FIRST)
    files: dict[str, str] = {}
    for i, sentence in enumerate(sentences):
        path = f"v{i:03d}.txt"
        files[path] = verified_scenario(rng, sentence,
                                        f"verified-{seed}-{i:03d}", lexicon_ref)
    return files, list(files)
