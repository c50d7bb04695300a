"""Tests of the benchmark itself: generators, references and failure checks.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gluesem  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import OP, NullTracer, Tracer, self_times  # noqa: E402
from workloads import Counts  # noqa: E402


def _keys(texts, signature):
    return sorted(gluesem.canonical_key(gluesem.normalize(
        gluesem.parse_term(t, signature))) for t in texts)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["scope-k5", "verified"])
def test_generators_are_deterministic(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first = workload.inputs(ROOT, tmp_path / "a", 11)
    second = workload.inputs(ROOT, tmp_path / "b", 11)
    other = workload.inputs(ROOT, tmp_path / "c", 12)
    (a,), (b,), (c,) = ([d for d in (tmp_path / x).iterdir()]
                        for x in "abc")
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)
    assert len(first) == len(second) == len(other)


def test_same_seed_same_bytes_in_place(tmp_path):
    workloads.verified_inputs(ROOT, tmp_path, 3)
    before = _files(tmp_path / "verified")
    workloads.verified_inputs(ROOT, tmp_path, 3)
    assert _files(tmp_path / "verified") == before


def test_verified_pass_draws_every_sentence_once():
    files, paths = gen.verified_inputs(5, "lexicon.glue")
    assert len(gen.verified_sentences()) == 60
    assert len(paths) == len(set(files.values())) == 61  # odd-sized pass


def test_scope_reference_has_120_distinct_keys():
    signature = gluesem.parse_lexicon(gen.scope_lexicon(5)).signature
    nps = (("every", "man"),) * 5  # identical NPs still scope distinctly
    references = gen.scope_references(nps)
    assert len(references) == 120
    assert len(set(_keys(references, signature))) == 120


def test_scope_reference_agrees_with_search_and_oracle_at_k3(tmp_path):
    files, cases = gen.scope_inputs(seed=4, k=3, count=3)
    workloads.write_files(tmp_path, files)
    for path, nps in cases:
        scenario = gluesem.load_scenario(str(tmp_path / path))
        ps = gluesem.premises(scenario, scenario.lexicon)
        want = _keys(gen.scope_references(nps), scenario.lexicon.signature)
        assert len(want) == math.factorial(3)
        search = sorted(gluesem.canonical_key(r.meaning)
                        for r in gluesem.derive_readings(ps, scenario.goal))
        oracle = sorted(gluesem.canonical_key(r.meaning)
                        for r in gluesem.oracle_enumerate(ps, scenario.goal))
        assert search == want
        assert oracle == want


def _corpus_case(name: str) -> tuple[Path, Path]:
    return (ROOT / "corpus" / name / "scenario.txt",
            ROOT / "corpus" / name / "expected")


def test_corpus_pass_verifies_on_shipped_corpus(tmp_path):
    (cases,) = workloads.corpus_inputs(ROOT, tmp_path, 0)
    assert len(cases) == 6
    assert workloads.corpus_op(gluesem, NullTracer(), Counts(), cases) == []


def test_planted_wrong_expectation_is_a_failure(tmp_path):
    scenario, expected = _corpus_case("bill-seeks-a-unicorn")
    wrong = tmp_path / "expected"
    # drop the de re reading from the golden file
    wrong.write_text(expected.read_text().splitlines()[1] + "\n")
    problems = workloads.corpus_op(gluesem, NullTracer(), Counts(),
                                   [(scenario, wrong)])
    assert problems and "sets differ" in problems[0]


def test_planted_wrong_nesting_is_a_failure(tmp_path):
    files, [(path, nps)] = gen.scope_inputs(seed=2, k=3, count=1)
    workloads.write_files(tmp_path, files)
    det, noun = nps[0]
    other = next(n for n in gen.NOUNS if n != noun)
    problems = workloads.scope_op(gluesem, NullTracer(), Counts(),
                                  (tmp_path / path, ((det, other),) + nps[1:]))
    assert problems and "sets differ" in problems[-1]


def test_oracle_disagreement_is_a_failure(tmp_path):
    def dropping_oracle(*args):
        return gluesem.oracle_enumerate(*args)[1:]

    fake = types.SimpleNamespace(**{name: getattr(gluesem, name)
                                    for name in gluesem.__all__})
    fake.oracle_enumerate = dropping_oracle
    scenario, _ = _corpus_case("bill-seeks-a-unicorn")
    counts = Counts()
    assert workloads.verified_op(gluesem, NullTracer(), Counts(),
                                 scenario) == []
    problems = workloads.verified_op(fake, NullTracer(), counts, scenario)
    assert problems and counts.disagreements == 1


def test_rejected_proof_is_a_failure():
    def rejecting_check(proof, *args):
        raise gluesem.InvalidStep((), "planted")

    fake = types.SimpleNamespace(**{name: getattr(gluesem, name)
                                    for name in gluesem.__all__})
    fake.check_proof = rejecting_check
    scenario, _ = _corpus_case("bill-left")
    counts = Counts()
    problems = workloads.verified_op(fake, NullTracer(), counts, scenario)
    assert problems and counts.rejected == counts.proofs_checked == 1


def test_exception_counts_as_failed_and_misses_latency_limits():
    def broken(g, tr, counts, item):
        raise ValueError("planted")

    workload = workloads.Workload(lambda *a: [None], broken,
                                  whole_passes=False)
    loop, _, _ = run.measure(gluesem, workload, [None], 0.0, None)
    assert loop.attempted == loop.failed == 1
    assert loop.latencies == [math.inf]
    assert "planted" in loop.problems[0]


def test_self_times_account_for_the_operation():
    tracer = Tracer()

    def op():
        tracer.call("terms.format_term", sum, range(1000))
        tracer.call("prover.derive_readings",
                    lambda: tracer.call("terms.normalize", sorted, [3, 1]))

    for tracer.op in range(3):
        tracer.call(OP, op)
    times = self_times(tracer.spans)
    roots = sum(s.end_ns - s.start_ns for s in tracer.spans if s.name == OP)
    assert sum(times.values()) == roots
    assert all(ns >= 0 for ns in times.values())
    assert {s.op for s in tracer.spans} == {0, 1, 2}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_prints_the_metrics_benchmark_json_names(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}
