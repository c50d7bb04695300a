"""Spans around the benchmark's calls into gluesem.

Every call the benchmark makes into a gluesem module goes through
``tracer.call(name, fn, *args)``. Names are ``<layer>.<function>``, where
the layer is the gluesem module; ``bench.op`` is the root span of one
operation. ``Tracer`` keeps every span in memory and writes them out when
the run ends; ``NullTracer`` just makes the call, for the untraced runs that
give the end-to-end numbers.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

OP = "bench.op"


@dataclass
class Span:
    name: str
    op: int  # shared by all spans of one operation
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for an operation's root


class NullTracer:
    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = Span(name, self.op, time.perf_counter_ns(), 0, parent)
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[str, int]:
    """Nanoseconds per span name, minus the time covered by child spans."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end_ns - s.start_ns
    totals: dict[str, int] = defaultdict(int)
    for s, ns in zip(spans, own):
        totals[s.name] += ns
    return dict(totals)
