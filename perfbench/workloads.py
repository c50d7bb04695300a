"""The three workloads: how each makes its inputs and runs one operation.

An operation calls gluesem the way ``gluesem batch`` / ``gluesem run`` do,
one library call at a time through a tracer, and checks the result against a
reference that does not come from the prover: the corpus ``expected`` files,
the benchmark's own quantifier nestings, or ``oracle_enumerate`` plus
``check_proof``. It returns the problems it found; an empty list means the
operation was verified. ``g`` is the imported ``gluesem`` package, passed in
so that a set-up can re-import it and a test can substitute a fake.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen

SCOPE_K = 5
SCOPE_SCENARIOS = 32  # more than one run gets through; ops cycle over them


@dataclass
class Counts:
    """Work counted at the layer boundaries, summed over operations."""

    premises: int = 0
    nodes: int = 0
    proofs_found: int = 0
    readings: int = 0
    limit_hits: int = 0
    proofs_checked: int = 0
    rejected: int = 0
    oracle_nodes: int = 0
    disagreements: int = 0


def _derive(g, tr, counts: Counts, path: Path, problems: list[str]):
    scenario = tr.call("lexicon.load_scenario", g.load_scenario, str(path))
    ps = tr.call("lexicon.premises", g.premises, scenario, scenario.lexicon)
    stats = g.SearchStats()
    readings = tr.call("prover.derive_readings", g.derive_readings,
                       ps, scenario.goal, None, stats)
    counts.premises += len(ps)
    counts.nodes += stats.nodes
    counts.proofs_found += stats.proofs_found
    counts.readings += stats.readings
    if stats.limit_hit:
        counts.limit_hits += 1
        problems.append(f"{path.name}: depth limit hit, reading set incomplete")
    return scenario, ps, readings


def _reading_keys(g, tr, readings) -> list[str]:
    """Render every reading as the CLI prints it, and key it."""
    for r in readings:
        tr.call("terms.format_term", g.format_term, r.meaning)
    return sorted(tr.call("terms.canonical_key", g.canonical_key, r.meaning)
                  for r in readings)


def _reference_keys(g, tr, texts: list[str], signature) -> list[str]:
    return sorted(
        tr.call("terms.canonical_key", g.canonical_key,
                tr.call("terms.normalize", g.normalize,
                        tr.call("terms.parse_term", g.parse_term, text,
                                signature)))
        for text in texts
    )


# ---------------------------------------------------------------------------
# corpus: a pass over the shipped scenarios, as `gluesem batch corpus/`

def corpus_inputs(root: Path, work: Path, seed: int) -> list[Any]:
    """One input: every shipped scenario with its expected file.

    The corpus is fixed, so the seed changes nothing here.
    """
    corpus = root / "corpus"
    cases = tuple((d / "scenario.txt", d / "expected")
                  for d in sorted(corpus.iterdir())
                  if (d / "scenario.txt").is_file())
    return [cases]


def corpus_op(g, tr, counts: Counts, cases) -> list[str]:
    problems: list[str] = []
    for scenario_path, expected_path in cases:
        scenario, _, readings = _derive(g, tr, counts, scenario_path, problems)
        lines = [line.strip() for line in
                 expected_path.read_text(encoding="utf-8").splitlines()]
        lines = [line for line in lines if line]
        signature = scenario.lexicon.signature
        for line in lines:  # batch validates the golden file before use
            tr.call("terms.parse_term", g.parse_term, line, signature)
        got = _reading_keys(g, tr, readings)
        want = _reference_keys(g, tr, lines, signature)
        if got != want:
            problems.append(f"{scenario.name}: {len(got)} readings derived, "
                            f"{len(want)} expected, sets differ")
    return problems


# ---------------------------------------------------------------------------
# scope-k5: five quantified NPs around a 5-ary relation, 120 readings

def scope_inputs(root: Path, work: Path, seed: int) -> list[Any]:
    files, cases = gen.scope_inputs(seed, SCOPE_K, SCOPE_SCENARIOS)
    directory = work / f"scope-k{SCOPE_K}"
    write_files(directory, files)
    return [(directory / path, nps) for path, nps in cases]


def scope_op(g, tr, counts: Counts, case) -> list[str]:
    path, nps = case
    problems: list[str] = []
    scenario, _, readings = _derive(g, tr, counts, path, problems)
    got = _reading_keys(g, tr, readings)
    want = _reference_keys(g, tr, gen.scope_references(nps),
                           scenario.lexicon.signature)
    if len(set(want)) != math.factorial(len(nps)):
        problems.append(f"{scenario.name}: reference nestings not distinct")
    if got != want:
        problems.append(f"{scenario.name}: {len(got)} readings derived, "
                        f"{len(want)} quantifier nestings, sets differ")
    return problems


# ---------------------------------------------------------------------------
# verified: random sentences with proofs, as `gluesem run --trace --oracle`

def verified_inputs(root: Path, work: Path, seed: int) -> list[Any]:
    directory = work / "verified"
    lexicon_ref = os.path.relpath(root / "corpus" / "lexicon.glue", directory)
    files, paths = gen.verified_inputs(seed, Path(lexicon_ref).as_posix())
    write_files(directory, files)
    return [directory / path for path in paths]


def verified_op(g, tr, counts: Counts, path: Path) -> list[str]:
    problems: list[str] = []
    scenario, ps, readings = _derive(g, tr, counts, path, problems)
    for r in readings:
        if r.proof is None:
            problems.append(f"{scenario.name}: a reading has no proof")
            continue
        tr.call("prover.format_proof", g.format_proof, r.proof)
        counts.proofs_checked += 1
        try:
            tr.call("proofcheck.check_proof", g.check_proof,
                    r.proof, None, ps, scenario.goal)
        except g.InvalidStep as exc:
            counts.rejected += 1
            problems.append(f"{scenario.name}: check_proof rejects: {exc}")
    got = _reading_keys(g, tr, readings)
    oracle_stats = g.SearchStats()
    reference = tr.call("oracle.oracle_enumerate", g.oracle_enumerate,
                        ps, scenario.goal, 64, oracle_stats)
    counts.oracle_nodes += oracle_stats.nodes
    want = sorted(tr.call("terms.canonical_key", g.canonical_key, r.meaning)
                  for r in reference)
    if got != want:
        counts.disagreements += 1
        problems.append(f"{scenario.name}: search gives {len(got)} readings, "
                        f"oracle {len(want)}")
    return problems


def write_files(directory: Path, files: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[Path, Path, int], list[Any]]
    op: Callable[..., list[str]]
    # stop only after whole passes over the inputs, so every run sees the
    # same mix of cheap and expensive operations
    whole_passes: bool


WORKLOADS = {
    "corpus": Workload(corpus_inputs, corpus_op, whole_passes=False),
    "scope-k5": Workload(scope_inputs, scope_op, whole_passes=False),
    "verified": Workload(verified_inputs, verified_op, whole_passes=True),
}
