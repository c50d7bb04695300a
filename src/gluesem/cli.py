"""Command-line front end for deriving readings.

Two subcommands: `run` derives the readings of one scenario and prints them
(optionally with proof traces, as JSON, or as a bare count), `batch` walks a
corpus directory and compares every scenario against its `expected` golden
file. Exit codes separate semantic failure from tool error: `run` exits 0
when at least one reading is derived, 2 when the scenario is well formed but
has no readings, and 1 on any error; `batch` exits nonzero iff any scenario
mismatches or errors.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .errors import GlueError, ProverError
from .lexicon import Scenario, load_lexicon, load_scenario, premises, read_text
from .oracle import oracle_enumerate
from .prover import (
    Reading,
    SearchLimits,
    SearchStats,
    derive_readings,
    format_proof,
    proof_json,
)
from .terms import canonical_key, format_term, normalize, parse_term


def _load(scenario_path: str, lexicon_path: Optional[str]) -> Scenario:
    scenario = load_scenario(scenario_path)
    if lexicon_path is not None:
        scenario.lexicon = load_lexicon(lexicon_path)
    if scenario.lexicon is None:
        raise GlueError(
            f"{scenario_path} names no lexicon; pass one with --lexicon"
        )
    return scenario


def _derive(scenario: Scenario, max_depth: Optional[int],
            check_oracle: bool, err: TextIO) -> tuple[list[Reading],
                                                      SearchStats, float]:
    limits = SearchLimits() if max_depth is None \
        else SearchLimits(max_depth=max_depth)
    stats = SearchStats()
    ps = premises(scenario, scenario.lexicon)
    start = time.perf_counter()
    readings = derive_readings(ps, scenario.goal, limits, stats)
    seconds = time.perf_counter() - start
    if check_oracle:
        # an oracle out of depth makes a depth-limited run, not a mismatch
        oracle_stats = SearchStats()
        reference = oracle_enumerate(ps, scenario.goal,
                                     depth=limits.max_depth,
                                     stats=oracle_stats)
        stats.limit_hit = stats.limit_hit or oracle_stats.limit_hit
        mine = [format_term(r.meaning) for r in readings]
        theirs = [format_term(r.meaning) for r in reference]
        if not oracle_stats.limit_hit and \
                [canonical_key(r.meaning) for r in readings] != \
                [canonical_key(r.meaning) for r in reference]:
            for line in difflib.unified_diff(theirs, mine,
                                             fromfile="oracle",
                                             tofile="search", lineterm=""):
                print(line, file=err)
            raise ProverError(
                f"search and reference enumeration disagree on "
                f"{scenario.name}: {len(reference)} vs {len(readings)} "
                f"readings"
            )
    return readings, stats, seconds


def run(scenario_path: str, lexicon_path: Optional[str] = None, *,
        trace: bool = False, as_json: bool = False, count_only: bool = False,
        max_depth: Optional[int] = None, oracle: bool = False,
        out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    """Derive one scenario's readings, print the report, return the count."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    scenario = _load(scenario_path, lexicon_path)
    readings, stats, seconds = _derive(scenario, max_depth, oracle, err)
    count = len(readings)
    if count_only:
        print(count, file=out)
    elif as_json:
        payload: dict = {
            "scenario": scenario.name,
            "readings": [format_term(r.meaning) for r in readings],
            "count": count,
            "seconds": round(seconds, 6),
            "limit_hit": stats.limit_hit,
        }
        if trace:
            payload["traces"] = [proof_json(r.proof) for r in readings]
        json.dump(payload, out, indent=2)
        print(file=out)
    else:
        note = " (depth limit hit)" if stats.limit_hit else ""
        print(f"{scenario.name}: {count} reading"
              f"{'s' if count != 1 else ''}{note}", file=out)
        for i, r in enumerate(readings, 1):
            print(f"  {i}. {format_term(r.meaning)}", file=out)
            if trace:
                for line in format_proof(r.proof).splitlines():
                    print(f"     {line}", file=out)
    return count


def _read_expected(path: Path,
                   scenario: Scenario) -> tuple[list[str], list[str]]:
    """The golden lines and their sorted reading keys.

    A corrupted line fails to parse here, loudly.
    """
    lines = [line.strip() for line in read_text(str(path)).splitlines()]
    lines = [line for line in lines if line]
    signature = scenario.lexicon.signature
    keys = sorted(canonical_key(normalize(parse_term(line, signature)))
                  for line in lines)
    return lines, keys


def _batch_one(directory: Path, max_depth: Optional[int],
               oracle: bool) -> tuple[bool, list[str]]:
    """Evaluate one scenario directory; returns (passed, report lines)."""
    lines: list[str] = []
    err_buffer = io.StringIO()
    try:
        scenario = _load(str(directory / "scenario.txt"), None)
        expected_path = directory / "expected"
        if not expected_path.exists():
            return False, [f"{directory.name}: FAIL (no expected file)"]
        readings, _, seconds = _derive(scenario, max_depth, oracle,
                                       err_buffer)
        expected, want_keys = _read_expected(expected_path, scenario)
        got = [format_term(r.meaning) for r in readings]
        got_keys = [canonical_key(r.meaning) for r in readings]
        if want_keys == got_keys:
            lines.append(f"{directory.name}: PASS "
                         f"({len(got)} readings, {seconds:.2f}s)")
            return True, lines
        lines.append(f"{directory.name}: FAIL (readings differ)")
        diff = difflib.unified_diff(expected, got, fromfile="expected",
                                    tofile="derived", lineterm="")
        lines.extend(f"  {line}" for line in diff)
        return False, lines
    except (GlueError, OSError) as exc:
        lines.append(f"{directory.name}: FAIL ({exc})")
        lines.extend(f"  {line}"
                     for line in err_buffer.getvalue().splitlines())
        return False, lines


def batch(corpus_dir: str, *, max_depth: Optional[int] = None,
          oracle: bool = False, out: Optional[TextIO] = None) -> int:
    """Compare every scenario under corpus_dir to its golden readings.

    Returns the number of failing scenarios; reports are printed whole, in
    directory order.
    """
    out = sys.stdout if out is None else out
    root = Path(corpus_dir)
    if not root.is_dir():
        raise GlueError(f"not a directory: {corpus_dir}")
    directories = sorted(
        child for child in root.iterdir()
        if child.is_dir() and (child / "scenario.txt").exists()
    )
    if not directories:
        print("0 scenarios, trivially passing", file=out)
        return 0
    failures = 0
    for directory in directories:
        passed, lines = _batch_one(directory, max_depth, oracle)
        if not passed:
            failures += 1
        for line in lines:
            print(line, file=out)
    print(f"{len(directories) - failures}/{len(directories)} scenarios pass",
          file=out)
    return failures


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gluesem",
        description="Derive sentence readings by linear-logic proof search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="derive readings for one scenario")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.add_argument("--lexicon", default=None,
                       help="lexicon file overriding the scenario's own")
    run_p.add_argument("--trace", action="store_true",
                       help="print a proof trace under each reading")
    run_p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON")
    run_p.add_argument("--count-only", action="store_true",
                       help="print only the number of readings")
    run_p.add_argument("--max-depth", type=int, default=None, metavar="N",
                       help="cap rule applications per branch")
    run_p.add_argument("--oracle", action="store_true",
                       help="cross-check against the reference enumerator")

    batch_p = sub.add_parser("batch",
                             help="check a corpus against golden readings")
    batch_p.add_argument("corpus", help="directory of scenario directories")
    batch_p.add_argument("--max-depth", type=int, default=None, metavar="N")
    batch_p.add_argument("--oracle", action="store_true",
                         help="also cross-check each scenario")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            count = run(
                args.scenario, args.lexicon, trace=args.trace,
                as_json=args.as_json, count_only=args.count_only,
                max_depth=args.max_depth, oracle=args.oracle,
            )
            return 0 if count else 2
        failures = batch(args.corpus, max_depth=args.max_depth,
                         oracle=args.oracle)
        return 1 if failures else 0
    except (GlueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:  # last resort: input too wide to walk
        print(f"error: input too large to process: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
