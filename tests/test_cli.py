"""Command line behaviour: exit codes, output formats, batch evaluation."""

import json
import re
import shutil
from pathlib import Path

import pytest
from conftest import SCENARIO_NAMES

from gluesem import prover
from gluesem.cli import main
from gluesem.types import MAX_NESTING

GOLDEN = Path(__file__).resolve().parent / "golden"

NO_READINGS = """scenario unused-verb
lexicon {lexicon}
fstructure
  f:[PRED 'leave'
     SUBJ g:[PRED 'Bill']]
attach Bill -> g
attach left -> f
goal g
"""


@pytest.fixture
def corpus_copy(tmp_path, corpus_dir):
    target = tmp_path / "corpus"
    shutil.copytree(corpus_dir, target)
    return target


def scenario_path(corpus_dir, name):
    return str(corpus_dir / name / "scenario.txt")


# ---------------------------------------------------------------------------
# run


def test_run_reports_readings(corpus_dir, capsys):
    code = main(["run", scenario_path(corpus_dir, "bill-seeks-a-unicorn")])
    out = capsys.readouterr().out
    assert code == 0
    assert "bill-seeks-a-unicorn: 2 readings" in out
    assert "seek(Bill" in out


def test_run_exits_two_when_nothing_derivable(tmp_path, corpus_dir, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        NO_READINGS.format(lexicon=corpus_dir / "lexicon.glue"),
        encoding="utf-8",
    )
    code = main(["run", str(scenario)])
    out = capsys.readouterr().out
    assert code == 2
    assert "0 readings" in out


def test_run_exits_one_on_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def _append_a_non_utf8_byte(path):
    path.write_bytes(path.read_bytes() + b"\xff")


@pytest.mark.parametrize("name", ["bill-left/scenario.txt", "lexicon.glue"])
def test_run_exits_one_on_a_file_that_is_not_utf8(corpus_copy, capsys, name):
    _append_a_non_utf8_byte(corpus_copy / name)
    code = main(["run", str(corpus_copy / "bill-left" / "scenario.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # the message names the file, as the scenario's lexicon line spells it
    assert re.match(rf"error: \S*{Path(name).name} is not UTF-8: ",
                    captured.err)


@pytest.mark.parametrize("deep_file", ["scenario", "lexicon"])
def test_run_reports_input_nested_3000_deep(tmp_path, corpus_dir, capsys,
                                            deep_file):
    lexicon = (corpus_dir / "lexicon.glue").read_text(encoding="utf-8")
    fs = "f:[PRED 'leave', SUBJ g:[PRED 'Bill']]"
    if deep_file == "lexicon":
        lexicon += ("\nentry deep\nPRED = deep\nglue "
                    + "(" * 3000 + "^.sig ~> Bill" + ")" * 3000 + "\n")
    else:
        deep = "".join(f"d{i}:[A " for i in range(3000)) + "d:[]" + "]" * 3000
        fs = f"f:[PRED 'leave', SUBJ g:[PRED 'Bill'], DEEP {deep}]"
    (tmp_path / "lexicon.glue").write_text(lexicon, encoding="utf-8")
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        f"scenario deep\nlexicon lexicon.glue\nfstructure {fs}\n"
        "attach Bill -> g\nattach left -> f\ngoal f\n", encoding="utf-8")
    code = main(["run", str(scenario)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: nesting deeper than {MAX_NESTING} levels")


def test_run_reports_a_3000_part_tensor_without_a_traceback(tmp_path,
                                                           corpus_dir, capsys):
    lexicon = (corpus_dir / "lexicon.glue").read_text(encoding="utf-8")
    lexicon += ("\nentry wide\nPRED = Bill\nglue "
                + " * ".join(["^.sig ~> Bill"] * 3000) + "\n")
    (tmp_path / "lexicon.glue").write_text(lexicon, encoding="utf-8")
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "scenario wide\nlexicon lexicon.glue\n"
        "fstructure f:[PRED 'leave', SUBJ g:[PRED 'Bill']]\n"
        "attach wide -> g\nattach left -> f\ngoal f\n", encoding="utf-8")
    code = main(["run", str(scenario)])
    captured = capsys.readouterr()
    # the entry instantiates and splits into 3,000 resources, of which the
    # verb consumes one, so no derivation uses them all
    assert code == 2
    assert captured.out == "wide: 0 readings\n"
    assert "Traceback" not in captured.out + captured.err


def test_run_count_only(corpus_dir, capsys):
    code = main(["run", scenario_path(corpus_dir, "bill-seeks-a-unicorn"),
                 "--count-only"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_run_json_matches_the_golden_readings(corpus_dir, capsys):
    code = main(["run", scenario_path(corpus_dir, "bill-seeks-a-unicorn"),
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    golden = (corpus_dir / "bill-seeks-a-unicorn" / "expected") \
        .read_text(encoding="utf-8").strip().splitlines()
    assert payload["scenario"] == "bill-seeks-a-unicorn"
    assert payload["count"] == 2
    assert payload["readings"] == golden
    assert payload["limit_hit"] is False
    assert payload["seconds"] >= 0


def test_run_trace_prints_rule_lines(corpus_dir, capsys):
    code = main(["run", scenario_path(corpus_dir, "bill-left"), "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "axiom:" in out
    assert "|-" in out


def test_run_json_trace_carries_proof_trees(corpus_dir, capsys):
    code = main(["run", scenario_path(corpus_dir, "bill-left"),
                 "--json", "--trace"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["traces"]) == 1
    assert payload["traces"][0]["rule"]


@pytest.mark.parametrize("flags, suffix", [
    (["--trace"], "trace.txt"),
    (["--json", "--trace"], "trace.json"),
], ids=["trace", "json-trace"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_run_trace_is_byte_identical_to_golden(corpus_dir, capsys, name,
                                               flags, suffix):
    code = main(["run", scenario_path(corpus_dir, name), *flags])
    assert code == 0
    # the run time is the only field that differs between runs
    out = re.sub(r'^  "seconds": .*\n', "", capsys.readouterr().out,
                 flags=re.M)
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{suffix}").read_bytes()


def test_run_max_depth_flags_the_limit(corpus_dir, capsys):
    code = main(["run", scenario_path(corpus_dir, "bill-seeks-a-unicorn"),
                 "--max-depth", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "depth limit hit" in out


def test_run_oracle_cross_check_passes(corpus_dir, capsys):
    code = main(["run", scenario_path(corpus_dir, "conversation"),
                 "--oracle"])
    assert code == 0
    assert "5 readings" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# batch


def test_batch_passes_on_the_corpus(corpus_dir, capsys):
    code = main(["batch", str(corpus_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "6/6 scenarios pass" in out
    assert out.count("PASS") == 6


def test_batch_empty_directory_trivially_passes(tmp_path, capsys):
    code = main(["batch", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 scenarios" in out


def test_batch_reports_a_tampered_golden_with_a_diff(corpus_copy, capsys):
    expected = corpus_copy / "bill-left" / "expected"
    expected.write_text("leave(Al)\n", encoding="utf-8")
    code = main(["batch", str(corpus_copy)])
    out = capsys.readouterr().out
    assert code == 1
    assert "bill-left: FAIL" in out
    assert "5/6 scenarios pass" in out
    # the diff shows both sides
    assert "leave(Al)" in out
    assert "leave(Bill)" in out


def test_batch_corrupted_expected_fails_only_that_scenario(corpus_copy,
                                                           capsys):
    expected = corpus_copy / "every-man-left" / "expected"
    expected.write_text("this is not ( a term\n", encoding="utf-8")
    code = main(["batch", str(corpus_copy)])
    out = capsys.readouterr().out
    assert code == 1
    assert "every-man-left: FAIL" in out
    assert "5/6 scenarios pass" in out


@pytest.mark.parametrize("name", ["scenario.txt", "expected"])
def test_batch_fails_only_the_scenario_with_a_non_utf8_file(corpus_copy,
                                                            capsys, name):
    _append_a_non_utf8_byte(corpus_copy / "bill-seeks-al" / name)
    code = main(["batch", str(corpus_copy)])
    out = capsys.readouterr().out
    assert code == 1
    assert (f"bill-seeks-al: FAIL ({corpus_copy / 'bill-seeks-al' / name} "
            "is not UTF-8") in out
    assert "conversation: PASS" in out
    assert out.endswith("5/6 scenarios pass\n")


def test_batch_goes_on_past_a_3000_link_chain_of_references(tmp_path,
                                                            corpus_dir,
                                                            capsys):
    # every node is nested 2 deep, so only the chain is long
    shutil.copy(corpus_dir / "lexicon.glue", tmp_path)
    shutil.copytree(corpus_dir / "bill-left", tmp_path / "bill-left")
    links = "".join(f", X{i} a{i}:[N a{i + 1}]" for i in range(3000))
    chain = tmp_path / "a-chain"
    chain.mkdir()
    (chain / "scenario.txt").write_text(
        "scenario a-chain\nlexicon ../lexicon.glue\nfstructure "
        f"f:[PRED 'leave', SUBJ g:[PRED 'Bill']{links}, X3000 a3000:[]]\n"
        "attach Bill -> g\nattach left -> f\ngoal f\n", encoding="utf-8")
    (chain / "expected").write_text("leave(Bill)\n", encoding="utf-8")
    code = main(["batch", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "a-chain: PASS" in out
    assert out.endswith("2/2 scenarios pass\n")


def test_batch_missing_expected_is_a_failure(corpus_copy, capsys):
    (corpus_copy / "bill-finds-al" / "expected").unlink()
    code = main(["batch", str(corpus_copy)])
    out = capsys.readouterr().out
    assert code == 1
    assert "bill-finds-al: FAIL (no expected file)" in out


def test_batch_oracle_mode_passes(corpus_dir, capsys):
    code = main(["batch", str(corpus_dir), "--oracle"])
    assert code == 0
    assert "6/6 scenarios pass" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# proofs are rebuilt only where a trace prints them


def _report(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    # run times are the only part of a report that differs between runs
    out = re.sub(r'^  "seconds": .*\n', "", captured.out, flags=re.M)
    return code, re.sub(r", \d+\.\d+s\)", ")", out), captured.err


def test_reports_without_a_trace_build_no_proof(corpus_dir, capsys,
                                                monkeypatch):
    commands = [["run", scenario_path(corpus_dir, name), *flags]
                for name in SCENARIO_NAMES
                for flags in ([], ["--count-only"], ["--json"])]
    commands.append(["batch", str(corpus_dir)])
    before = [_report(argv, capsys) for argv in commands]

    def no_proof(*args):
        raise AssertionError("a proof was rebuilt")

    monkeypatch.setattr(prover, "_proof", no_proof)
    assert [_report(argv, capsys) for argv in commands] == before
    with pytest.raises(AssertionError, match="a proof was rebuilt"):
        main(["run", scenario_path(corpus_dir, "bill-left"), "--trace"])
