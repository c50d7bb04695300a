"""gluesem benchmark: seeded closed-loop workloads with verified outputs.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

One client, one thread, one process. The run sets up (imports gluesem,
generates the workload's inputs from the seed, runs one untimed warm-up
operation) several times and reports the median as ``setup_s``; then it runs
operations back to back for ``--seconds`` and checks each one against its
reference. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced operations on the same
inputs and prints the per-layer metrics from the traced ones, plus the
tracing overhead. Human-readable lines go first; the last line of standard
output is one JSON object. Spans of a traced run are written to
``perfbench/_out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import OP, NullTracer, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Counts  # noqa: E402

SETUPS = 5
LAYERS = ("lexicon", "prover", "terms", "proofcheck", "oracle", "bench")
# per-layer busy times: metric name -> the span names it sums
BUSY = {
    "lexicon.load_scenario_ms": ("lexicon.load_scenario",),
    "lexicon.premises_ms": ("lexicon.premises",),
    "prover.derive_readings_ms": ("prover.derive_readings",),
    "prover.format_proof_ms": ("prover.format_proof",),
    "terms.render_ms": ("terms.format_term", "terms.canonical_key",
                        "terms.parse_term", "terms.normalize"),
    "proofcheck.check_proof_ms": ("proofcheck.check_proof",),
    "oracle.oracle_enumerate_ms": ("oracle.oracle_enumerate",),
    "bench.self_ms": (OP,),
}


def _purge_gluesem() -> None:
    for name in [m for m in sys.modules
                 if m == "gluesem" or m.startswith("gluesem.")]:
        del sys.modules[name]


def _run_op(g, workload, tr, counts: Counts, item) -> tuple[int, list[str]]:
    """One operation: (latency in ns, problems). An exception is a problem."""
    start = time.perf_counter_ns()
    try:
        problems = tr.call(OP, workload.op, g, tr, counts, item)
    except Exception:  # the loop must go on; the failure is counted
        problems = [traceback.format_exc()]
    return time.perf_counter_ns() - start, problems


def set_up(workload, work: Path, seed: int):
    """Import gluesem afresh, make the inputs, run one untimed operation."""
    _purge_gluesem()
    start = time.perf_counter()
    g = importlib.import_module("gluesem")
    pool = workload.inputs(ROOT, work, seed)
    _, problems = _run_op(g, workload, NullTracer(), Counts(), pool[0])
    return time.perf_counter() - start, g, pool, problems


class Loop:
    """The measured closed loop and what it observed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # ms; a failed operation is inf
        self.traced: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ns: int, problems: list[str], into: list[float]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            into.append(math.inf)
        else:
            into.append(ns / 1e6)


def measure(g, workload, pool, seconds: float, tracer: Tracer | None):
    loop = Loop()
    counts = Counts()
    null = NullTracer()
    start = time.perf_counter()
    i = 0
    while True:
        item = pool[i % len(pool)]
        if tracer is None:
            steps = [(null, counts, loop.latencies)]
        else:
            # same input traced and untraced, alternating which goes first;
            # counts come from the traced operations only
            tracer.op = i
            steps = [(null, Counts(), loop.latencies),
                     (tracer, counts, loop.traced)]
            if i % 2:
                steps.reverse()
        for tr, into_counts, into in steps:
            loop.record(*_run_op(g, workload, tr, into_counts, item), into)
        i += 1
        at_boundary = not workload.whole_passes or i % len(pool) == 0
        if at_boundary and time.perf_counter() - start >= seconds:
            return loop, counts, time.perf_counter() - start


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def end_to_end(loop: Loop, elapsed: float, setup_s: float) -> dict:
    """The gated metrics; the median and p90 are printed for the reader.

    On a shared host that time-slices the vCPU in phases of seconds to
    minutes, the median of identical operations jumps between two levels
    from run to run. The 10th percentile reads the program's own cost
    whenever a tenth of the run gets the whole core, so it is the gated
    latency.
    """
    p10, _ = percentile(loop.latencies, 0.1)
    p50, _ = percentile(loop.latencies, 0.5)
    p90, beyond = percentile(loop.latencies, 0.9)
    n = len(loop.latencies)
    print(f"operations: {loop.attempted} attempted, {loop.failed} failed, "
          f"failed_ratio {loop.failed / loop.attempted:.6g}")
    print(f"latency_p10_ms: {p10:.4f} ms (n={n})")
    print(f"latency_p50_ms: {p50:.4f} ms (n={n})")
    if beyond >= 10:
        print(f"latency_p90_ms: {p90:.4f} ms (n={n}, {beyond} beyond p90)")
    else:
        print(f"latency_p90_ms: not reported (n={n}, {beyond} beyond p90, "
              f"needs 10)")
    metrics = {
        "latency_p10_ms": metric(p10, "ms"),
        "ops_per_s": metric((loop.attempted - loop.failed) / elapsed, "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": metric(setup_s, "s"),
    }
    return metrics


def per_layer(loop: Loop, counts: Counts, tracer: Tracer) -> dict:
    times = self_times(tracer.spans)
    ops = len(loop.traced)
    op_ns = sum(times.values())  # every span descends from an op root
    busy = {name: sum(times.get(s, 0) for s in spans)
            for name, spans in BUSY.items()}
    metrics = {name: metric(ns / ops / 1e6, "ms")
               for name, ns in busy.items()}
    layer_ns = {layer: sum(ns for name, ns in times.items()
                           if name.split(".")[0] == layer)
                for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.share_pct"] = metric(
            100 * layer_ns[layer] / op_ns, "%")
    metrics["bench.traced_op_ms"] = metric(op_ns / ops / 1e6, "ms")
    untraced_p50, _ = percentile(loop.latencies, 0.5)
    traced_p50, _ = percentile(loop.traced, 0.5)
    overhead = 100 * (traced_p50 - untraced_p50) / untraced_p50
    metrics["bench.trace_overhead_pct"] = metric(overhead, "%")
    per_op = {
        "lexicon.premises": counts.premises,
        "prover.nodes": counts.nodes,
        "prover.proofs_found": counts.proofs_found,
        "prover.readings": counts.readings,
        "proofcheck.proofs_checked": counts.proofs_checked,
        "oracle.nodes": counts.oracle_nodes,
    }
    for name, total in per_op.items():
        metrics[name] = metric(total / ops, "count/op")
    for name, total in (("prover.limit_hits", counts.limit_hits),
                        ("proofcheck.rejected", counts.rejected),
                        ("oracle.disagreements", counts.disagreements)):
        metrics[name] = metric(total, "count")
    metrics["prover.readings_per_proof"] = metric(
        counts.readings / counts.proofs_found if counts.proofs_found
        else math.nan, "ratio")
    metrics["prover.nodes_per_reading"] = metric(
        counts.nodes / counts.readings if counts.readings else math.nan,
        "ratio")
    print(f"traced operations: {ops}, {op_ns / ops / 1e6:.4f} ms each; "
          f"layer self times below add up to "
          f"{100 * sum(layer_ns.values()) / op_ns:.1f}% of it")
    for layer in LAYERS:
        print(f"  {layer:<11} {layer_ns[layer] / ops / 1e6:10.4f} ms/op "
              f"{100 * layer_ns[layer] / op_ns:6.2f}%")
    print(f"tracing overhead on latency_p50_ms: {overhead:.2f}% "
          f"(untraced {untraced_p50:.4f} ms, traced {traced_p50:.4f} ms)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "gluesem" / "__init__.py",
              ROOT / "corpus" / "lexicon.glue"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a gluesem checkout, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    work = HERE / "_out" / f"work-{os.getpid()}"
    try:
        setups = [set_up(workload, work, args.seed) for _ in range(SETUPS)]
        setup_s = statistics.median(s[0] for s in setups)
        _, g, pool, _ = setups[-1]
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{len(pool)} inputs; setup_s {setup_s:.4f} s (median of "
              f"{', '.join(f'{s[0]:.4f}' for s in setups)})")
        tracer = Tracer() if args.trace else None
        loop, counts, elapsed = measure(g, workload, pool, args.seconds,
                                        tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for s in setups for p in s[3]] + loop.problems
    for problem in problems[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(loop, elapsed, setup_s)
    else:
        metrics = per_layer(loop, counts, tracer)
        tracer.dump(HERE / "_out" / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
