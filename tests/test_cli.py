import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cohortqa.cli
from cohortqa.cli import main

FIX = "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", f"{FIX}/cohorts.jsonl")
    assert code == 0
    assert "hotpotqa-film-0001: ok" in out


def test_validate_bad_member(tmp_path, capsys):
    record = json.loads(Path(f"{FIX}/cohorts.jsonl").read_text(encoding="utf-8").splitlines()[0])
    record["original"]["question"] = "A completely different question?"
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "template-match" in out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("{nope\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "line 1" in err


def test_check_passing_batch(capsys):
    code, out, _ = run(
        capsys, "check",
        "--cohorts", f"{FIX}/cohorts.jsonl",
        "--programs", f"{FIX}/programs/conjunction_batch.jsonl",
    )
    assert code == 0
    assert "retrieves=2" in out


def test_check_shortcut_fails(capsys):
    code, out, _ = run(
        capsys, "check",
        "--cohorts", f"{FIX}/cohorts.jsonl",
        "--programs", f"{FIX}/programs/shortcut_batch.jsonl",
    )
    assert code == 1
    assert "min_retrieves=False" in out


def test_exec_emits_trace_and_result(capsys):
    code, out, _ = run(
        capsys, "exec",
        "--program", f"{FIX}/programs/conjunction.py",
        "--cohorts", f"{FIX}/cohorts.jsonl",
        "--cohort-id", "hotpotqa-film-0001",
        "--member", "0",
        "--facts", f"{FIX}/facts.jsonl",
    )
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 3  # two trace events + the result
    assert lines[0]["outcome"] == "value"
    assert lines[2]["status"] == "answered"
    assert lines[2]["answer"] == 1


def test_exec_mock_requires_facts():
    with pytest.raises(SystemExit) as excinfo:
        main([
            "exec", "--program", f"{FIX}/programs/conjunction.py",
            "--cohorts", f"{FIX}/cohorts.jsonl",
            "--cohort-id", "hotpotqa-film-0001",
        ])
    assert excinfo.value.code == 2


def test_remote_requires_endpoint():
    with pytest.raises(SystemExit) as excinfo:
        main([
            "exec", "--program", f"{FIX}/programs/conjunction.py",
            "--cohorts", f"{FIX}/cohorts.jsonl",
            "--cohort-id", "hotpotqa-film-0001",
            "--retriever", "remote",
        ])
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_eval_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "eval",
        "--cohorts", f"{FIX}/cohorts.jsonl",
        "--programs", f"{FIX}/programs/conjunction_batch.jsonl",
        "--facts", f"{FIX}/facts.jsonl",
        "--criterion", "strict",
        "--no-timestamp",
        "--output", str(out_path),
    )
    assert code == 0
    assert "Strict accuracy" in out
    report = json.loads(out_path.read_text())
    assert report["accuracy"]["overall"]["pass_rate"] == 1.0
    assert report["cohorts"][0]["n_correct"] == 6
    assert report["config"]["criterion"] == "strict"
    assert "timestamp" not in report


def test_eval_shortcut_fails_strict(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "eval",
        "--cohorts", f"{FIX}/cohorts.jsonl",
        "--programs", f"{FIX}/programs/shortcut_batch.jsonl",
        "--facts", f"{FIX}/facts.jsonl",
        "--criterion", "strict",
        "--no-timestamp",
        "--output", str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["cohorts"][0]["passed"] is False
    assert report["cohorts"][0]["n_calls"] == 0


def test_reward_recomputes_breakdowns(tmp_path, capsys):
    outcomes = tmp_path / "outcomes.jsonl"
    outcomes.write_text(
        json.dumps({
            "cohort_id": "c", "sample_index": 0, "variant": "cohort",
            "n_correct": 3, "n_calls": 2, "n_rejected": 1,
        }) + "\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "reward", "--outcomes", str(outcomes))
    assert code == 0
    record = json.loads(out.strip())
    assert record["r_acc"] == 0.0  # gated below 4/6
    assert record["r_ret"] == 0.6
    assert record["r_rej"] == -0.1


def test_reward_output_is_not_created_when_the_input_is_missing(tmp_path, capsys):
    output = tmp_path / "rewards.jsonl"
    code, _, err = run(capsys, "reward", "--outcomes", str(tmp_path / "missing.jsonl"),
                       "--output", str(output))
    assert code == 1
    assert err.startswith("reward: ")
    assert list(tmp_path.iterdir()) == []


def test_reward_output_is_untouched_by_a_bad_line(tmp_path, capsys):
    outcomes, output = tmp_path / "outcomes.jsonl", tmp_path / "rewards.jsonl"
    outcomes.write_text(f"{_OUTCOME}\n" * 4 + "{nope\n", encoding="utf-8")
    output.write_text("earlier rewards\n", encoding="utf-8")
    code, _, err = run(capsys, "reward", "--outcomes", str(outcomes), "--output", str(output))
    assert code == 1
    assert err.startswith(f"reward: {outcomes}: line 5: ")
    assert output.read_text(encoding="utf-8") == "earlier rewards\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outcomes.jsonl", "rewards.jsonl"]

    outcomes.write_text(f"{_OUTCOME}\n" * 4, encoding="utf-8")
    assert run(capsys, "reward", "--outcomes", str(outcomes), "--output", str(output))[0] == 0
    assert len(output.read_text(encoding="utf-8").splitlines()) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outcomes.jsonl", "rewards.jsonl"]


@pytest.mark.parametrize("counts, error", [
    ({"n_correct": True, "n_calls": 2.5, "n_rejected": False},
     "n_correct must be an integer, not True (at n_correct)"),
    ({"n_correct": 3, "n_calls": 2.5, "n_rejected": 0},
     "n_calls must be an integer, not 2.5 (at n_calls)"),
    ({"n_correct": 3, "n_calls": 2, "n_rejected": False},
     "n_rejected must be an integer, not False (at n_rejected)"),
    ({"n_correct": "3", "n_calls": 2, "n_rejected": 0},
     "n_correct must be an integer, not '3' (at n_correct)"),
], ids=["bools-and-float", "float-calls", "bool-rejected", "text-correct"])
def test_reward_counts_must_be_integers(counts, error, tmp_path, capsys):
    outcomes = tmp_path / "outcomes.jsonl"
    outcomes.write_text(f"{_OUTCOME}\n{json.dumps(counts)}\n", encoding="utf-8")
    code, out, err = run(capsys, "reward", "--outcomes", str(outcomes))
    assert code == 1
    assert len(out.splitlines()) == 1  # the first line's record
    assert err == f"reward: {outcomes}: line 2: {error}\n"


def test_sim_runs_and_logs(tmp_path, capsys):
    log_path = tmp_path / "log.jsonl"
    code, out, _ = run(
        capsys, "sim",
        "--variant", "cohort",
        "--updates", "20",
        "--pool", f"{FIX}/pool.jsonl",
        "--cohorts", f"{FIX}/sim_cohorts.jsonl",
        "--facts", f"{FIX}/facts.jsonl",
        "--no-timestamp",
        "--output", str(log_path),
    )
    assert code == 0
    final = json.loads(out.strip())["final_probabilities"]
    assert final["generalizer"] > final["shortcut"]
    lines = log_path.read_text().strip().splitlines()
    assert len(lines) == 21  # meta line + one record per update
    assert json.loads(lines[0])["variant"] == "cohort"
    # seed 0's draws: random.Random gives the same stream on every Python
    # version, so a change of generator, of seeding or of draws per rollout
    # shows here on each of them
    sampled = ([[1, 1, 0, 0, 1]] + [[0] * 5] * 2 + [[0, 0, 1, 0, 0]] + [[0] * 5] * 14
               + [[0, 0, 0, 0, 1], [0] * 5])
    records = [json.loads(line) for line in lines[1:]]
    assert [record["sampled"] for record in records] == sampled
    # generalizer 1.5 (5/6 correct, 2 calls, 1 rejected), shortcut -0.6
    assert [record["rewards"] for record in records] == [
        [{0: 1.5, 1: -0.6}[i] for i in draws] for draws in sampled]


def test_stats_renders_table(tmp_path, capsys):
    traces = tmp_path / "trace.jsonl"
    traces.write_text(
        '{"q": "Is Amy a documentary film?", "kind": "bool", "outcome": "rejected"}\n'
        '{"q": "Is Senna a documentary film?", "kind": "bool", "outcome": "value", "value": true}\n',
        encoding="utf-8",
    )
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"Is Amy a documentary film?": "films"}), encoding="utf-8")
    code, out, _ = run(
        capsys, "stats", "--traces", str(traces), "--labels", str(labels),
        "--no-timestamp",
    )
    assert code == 0
    assert "films" in out
    assert "uncategorized" in out
    assert "Overall" in out


def test_stats_empty_trace_fails(tmp_path, capsys):
    traces = tmp_path / "trace.jsonl"
    traces.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "stats", "--traces", str(traces))
    assert code == 1



def test_stats_on_exec_output_names_the_result_line(tmp_path, capsys):
    # exec prints its retrieve events and then a result line, which has no "q"
    code, out, _ = run(
        capsys, "exec", "--program", f"{FIX}/programs/conjunction.py",
        "--cohorts", f"{FIX}/cohorts.jsonl", "--cohort-id", "hotpotqa-film-0001",
        "--facts", f"{FIX}/facts.jsonl",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 2 and "q" not in json.loads(lines[-1])
    traces = tmp_path / "exec.jsonl"
    traces.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "stats", "--traces", str(traces))
    assert code == 1
    assert out == ""
    assert err == f"stats: {traces}:{len(lines)}: not a retrieve event\n"

    # the retrieve events alone are read as they are
    traces.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "stats", "--traces", str(traces))
    assert code == 0
    assert "Overall" in out


def test_stats_rejects_line_without_outcome(tmp_path, capsys):
    traces = tmp_path / "trace.jsonl"
    traces.write_text('\n{"q": "Is Amy a documentary film?"}\n', encoding="utf-8")
    code, _, err = run(capsys, "stats", "--traces", str(traces))
    assert code == 1
    assert err == f"stats: {traces}:2: not a retrieve event\n"


@pytest.mark.parametrize("event", [{"q": ["Is Amy a documentary film?"], "outcome": "value"},
                                   {"q": "Is Amy a documentary film?", "outcome": 1}])
def test_stats_rejects_a_question_or_outcome_that_is_not_text(event, tmp_path, capsys):
    traces = tmp_path / "trace.jsonl"
    traces.write_text(json.dumps(event) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "stats", "--traces", str(traces))
    assert code == 1
    assert err == f"stats: {traces}:1: not a retrieve event\n"


def test_report_renders_eval_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    run(
        capsys, "eval",
        "--cohorts", f"{FIX}/cohorts.jsonl",
        "--programs", f"{FIX}/programs/conjunction_batch.jsonl",
        "--facts", f"{FIX}/facts.jsonl",
        "--no-timestamp",
        "--output", str(out_path),
    )
    code, out, _ = run(capsys, "report", str(out_path))
    assert code == 0
    assert "hotpotqa" in out
    assert "overall" in out


@pytest.mark.parametrize("argv", [
    ["eval", "--jobs", "0"],
    ["eval", "--k", "0"],
    ["eval", "--max-steps", "0"],
    ["sim", "--rollouts", "1"],
    ["sim", "--updates", "0"],
    ["sim", "--updates", "-3"],
    ["sim", "--seed", "-1"],
    ["sim", "--lr", "nan"],
    ["sim", "--lr", "inf"],
])
def test_bad_counts_are_usage_errors(argv, capsys):
    inputs = ["--cohorts", f"{FIX}/cohorts.jsonl", "--facts", f"{FIX}/facts.jsonl"]
    if argv[0] == "eval":
        inputs += ["--programs", f"{FIX}/programs/conjunction_batch.jsonl"]
    else:
        inputs += ["--pool", f"{FIX}/pool.jsonl"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + inputs)
    assert excinfo.value.code == 2
    assert argv[1] in capsys.readouterr().err


def _copies_of_fixture_cohort(path, cohort_ids):
    cohort = json.loads(Path(f"{FIX}/cohorts.jsonl").read_text(encoding="utf-8"))
    with open(path, "w") as out:
        for cohort_id in cohort_ids:
            print(json.dumps(dict(cohort, cohort_id=cohort_id)), file=out)


def _write_batch(path, samples):
    with open(path, "w") as out:
        for cohort_id, sources in samples.items():
            for index, source in enumerate(sources):
                record = {"cohort_id": cohort_id, "sample_index": index, "source": source}
                print(json.dumps(record), file=out)


def _fixture_source(name):
    return json.loads(Path(f"{FIX}/programs/{name}_batch.jsonl").read_text(encoding="utf-8"))["source"]


def test_eval_parses_each_distinct_source_once_per_cohort(tmp_path, capsys, monkeypatch):
    from cohortqa.data_model import load_cohorts
    from cohortqa.dsl import parse_program
    from cohortqa.evaluation import LENIENT_CRITERION, apply_criterion, run_cohort, vote
    from cohortqa.retriever import FactTable, MockRetriever

    conj, short = _fixture_source("conjunction"), _fixture_source("shortcut")
    samples = {"film-a": [conj, short, conj, conj], "film-b": [short, conj, short, short]}
    cohorts, programs = tmp_path / "cohorts.jsonl", tmp_path / "programs.jsonl"
    _copies_of_fixture_cohort(cohorts, samples)
    _write_batch(programs, samples)
    parsed = Counter()

    def counting_parse(source, header):
        parsed[source] += 1
        return parse_program(source, header)

    monkeypatch.setattr(cohortqa.cli, "parse_program", counting_parse)
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "eval", "--cohorts", str(cohorts), "--programs", str(programs),
        "--facts", f"{FIX}/facts.jsonl", "--k", "4", "--no-timestamp", "--output", str(report),
    )
    assert code == 0
    assert parsed == {conj: 2, short: 2}  # once in each cohort

    # a fresh parse per sample gives the same rows
    retriever = MockRetriever(FactTable.from_jsonl(f"{FIX}/facts.jsonl"))
    rows = json.loads(report.read_text())["cohorts"]
    for row, cohort in zip(rows, load_cohorts(cohorts)):
        header = cohort.template.function_header
        outcome = vote([
            run_cohort(parse_program(source, header), cohort, retriever)
            for source in samples[cohort.cohort_id]
        ], cohort)
        assert (row["cohort_id"], row["n_correct"], row["n_rejected"], row["n_calls"],
                row["passed"]) == (cohort.cohort_id, outcome.n_correct, outcome.n_rejected,
                                   outcome.summary.n_calls,
                                   apply_criterion(outcome, LENIENT_CRITERION))


def test_eval_leaves_backend_errored_cohorts_out_of_accuracy(tmp_path, capsys):
    # the mock answers an empty question with an error outcome
    empty_lookup = (
        "def answer(Film1: str, Film2: str, DocumentaryType: str, Country: str) -> int:\n"
        "    ok = retrieve(\"\", bool)\n"
        "    return 1\n"
    )
    samples = {"film-a": [_fixture_source("conjunction")], "film-b": [empty_lookup]}
    cohorts, programs = tmp_path / "cohorts.jsonl", tmp_path / "programs.jsonl"
    _copies_of_fixture_cohort(cohorts, samples)
    _write_batch(programs, samples)
    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "eval", "--cohorts", str(cohorts), "--programs", str(programs),
        "--facts", f"{FIX}/facts.jsonl", "--no-timestamp", "--output", str(report),
    )
    assert code == 3
    assert "backend" in err
    data = json.loads(report.read_text())
    assert [row["backend_errors"] for row in data["cohorts"]] == [0, 6]
    assert data["accuracy"]["overall"] == {"pass_rate": 1.0, "ci_halfwidth": 0.0, "n": 1}
    assert "100.0" in out


def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports cohortqa from this checkout's src/."""
    src = str(Path(cohortqa.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)


def test_importing_the_cli_loads_neither_numpy_nor_requests():
    probe = ("import sys, cohortqa.cli, cohortqa.sim; "
             "print(sorted({'numpy', 'requests'} & set(sys.modules)))")
    result = _python("-c", probe)
    assert (result.returncode, result.stdout.strip()) == (0, "[]")


def test_sim_runs_where_numpy_cannot_be_imported(tmp_path, capsys):
    argv = ["sim", "--pool", f"{FIX}/pool.jsonl", "--cohorts", f"{FIX}/sim_cohorts.jsonl",
            "--facts", f"{FIX}/facts.jsonl", "--updates", "50", "--seed", "3", "--no-timestamp"]
    code, out, _ = run(capsys, *argv, "--output", str(tmp_path / "normal.jsonl"))
    assert code == 0
    # a None entry in sys.modules makes `import numpy` raise ImportError
    blocked = ("import sys; sys.modules['numpy'] = None; "
               "from cohortqa.cli import main; sys.exit(main(sys.argv[1:]))")
    result = _python("-c", blocked, *argv, "--output", str(tmp_path / "no-numpy.jsonl"))
    assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
    assert (tmp_path / "no-numpy.jsonl").read_bytes() == (tmp_path / "normal.jsonl").read_bytes()


def _first_line(path: str) -> str:
    return Path(path).read_text(encoding="utf-8").splitlines()[0]


# each JSONL input: the command that reads it, and one valid line to put first
_OUTCOME = '{"n_correct": 3, "n_calls": 2, "n_rejected": 0}'
_JSONL_INPUTS = {
    "cohorts": (lambda path: ["validate", path],
                _first_line(f"{FIX}/cohorts.jsonl")),
    "facts": (lambda path: ["eval", "--cohorts", f"{FIX}/cohorts.jsonl",
                            "--programs", f"{FIX}/programs/conjunction_batch.jsonl",
                            "--facts", path],
              _first_line(f"{FIX}/facts.jsonl")),
    "programs": (lambda path: ["eval", "--cohorts", f"{FIX}/cohorts.jsonl", "--programs", path,
                               "--facts", f"{FIX}/facts.jsonl"],
                 _first_line(f"{FIX}/programs/conjunction_batch.jsonl")),
    "check-programs": (lambda path: ["check", "--cohorts", f"{FIX}/cohorts.jsonl",
                                     "--programs", path],
                       _first_line(f"{FIX}/programs/conjunction_batch.jsonl")),
    "pool": (lambda path: ["sim", "--pool", path, "--cohorts", f"{FIX}/sim_cohorts.jsonl",
                           "--facts", f"{FIX}/facts.jsonl", "--updates", "3"],
             _first_line(f"{FIX}/pool.jsonl")),
    "outcomes": (lambda path: ["reward", "--outcomes", path], _OUTCOME),
    "traces": (lambda path: ["stats", "--traces", path],
               '{"q": "Is Amy a documentary film?", "outcome": "value"}'),
}
# stats has no missing-key case: its own message for that is pinned above
_REQUIRED_KEY = {"cohorts": "options", "facts": "q", "programs": "source", "pool": "source",
                 "outcomes": "n_correct"}


def _without(line: str, key: str) -> str:
    record = json.loads(line)
    del record[key]
    return json.dumps(record)


def _with(line: str, key: str, value) -> str:
    return json.dumps(dict(json.loads(line), **{key: value}))


# a program batch's first line has an int sample_index, so "b" makes it mixed
_BATCH_TYPES = [("mixed-sample-index", "sample_index", "b"),
                ("bool-sample-index", "sample_index", True),
                ("list-cohort-id", "cohort_id", ["hotpotqa-film-0001"]),
                ("int-source", "source", 5)]

# the cohort keys that must be strings
_COHORT_TEXT_FIELDS = [("null-cohort-id", "cohort_id", None),
                       ("int-cohort-id", "cohort_id", 5),
                       ("int-masked-question", "masked_question", 5),
                       ("int-function-header", "function_header", 5)]


_BAD_LINES = [
    *((name, "malformed-json", "{nope") for name in _JSONL_INPUTS),
    *((name, "not-an-object", "1") for name in _JSONL_INPUTS),
    *((name, "missing-key", _without(_JSONL_INPUTS[name][1], key))
      for name, key in _REQUIRED_KEY.items()),
    ("facts", "bad-kind", '{"q": "Is x?", "kind": "colour", "value": "red"}'),
    ("facts", "conflicting-repeat", _with(_JSONL_INPUTS["facts"][1], "value", False)),
    *(("cohorts", case, _with(_JSONL_INPUTS["cohorts"][1], key, value))
      for case, key, value in _COHORT_TEXT_FIELDS),
    ("outcomes", "count-out-of-range", _OUTCOME.replace('"n_correct": 3', '"n_correct": 9')),
    *((name, case, _with(_JSONL_INPUTS[name][1], key, value))
      for name in ("programs", "check-programs") for case, key, value in _BATCH_TYPES),
]


@pytest.mark.parametrize("name, case, bad_line", _BAD_LINES,
                         ids=[f"{name}-{case}" for name, case, _ in _BAD_LINES])
def test_bad_jsonl_line_names_file_and_line(name, case, bad_line, tmp_path, capsys):
    argv_for, first_line = _JSONL_INPUTS[name]
    path = tmp_path / f"{name}.jsonl"
    # the blank line is skipped but still counted
    path.write_text(f"{first_line}\n\n{bad_line}\n", encoding="utf-8")
    argv = argv_for(str(path))
    code, _, err = run(capsys, *argv)  # an exception escaping main would be a traceback
    assert code == 1
    assert err.startswith(f"{argv[0]}: {path}: line 3: ")


@pytest.mark.parametrize("empty", ["--cohorts", "--pool"])
def test_sim_on_an_empty_input_names_the_file(empty, tmp_path, capsys):
    inputs = {"--pool": f"{FIX}/pool.jsonl", "--cohorts": f"{FIX}/sim_cohorts.jsonl",
              "--facts": f"{FIX}/facts.jsonl"}
    inputs[empty] = str(tmp_path / "empty.jsonl")
    (tmp_path / "empty.jsonl").write_text("\n", encoding="utf-8")
    code, out, err = run(capsys, "sim", "--updates", "3", *(a for kv in inputs.items() for a in kv))
    assert code == 1
    assert out == ""
    assert err.startswith(f"sim: {inputs[empty]}: no ")


def test_sim_reports_a_diverged_policy(tmp_path, capsys):
    # a finite learning rate can still overflow the logits to +-inf
    code, out, err = run(capsys, "sim", "--lr=1e308", "--pool", f"{FIX}/pool.jsonl",
                         "--cohorts", f"{FIX}/sim_cohorts.jsonl", "--facts", f"{FIX}/facts.jsonl")
    assert code == 1
    assert out == ""
    assert err == "sim: policy diverged at update 1: probabilities sum to nan, not 1\n"


def test_stats_labels_that_are_not_an_object(tmp_path, capsys):
    traces, labels = tmp_path / "trace.jsonl", tmp_path / "labels.json"
    traces.write_text('{"q": "Is Amy a documentary film?", "outcome": "value"}\n', encoding="utf-8")
    labels.write_text('["Is Amy a documentary film?"]\n', encoding="utf-8")
    code, _, err = run(capsys, "stats", "--traces", str(traces), "--labels", str(labels))
    assert code == 1
    assert err == f"stats: {labels}: not a JSON object\n"


def test_stats_label_that_is_not_a_string(tmp_path, capsys):
    traces, labels = tmp_path / "trace.jsonl", tmp_path / "labels.json"
    traces.write_text('{"q": "Is A a B?", "outcome": "value"}\n', encoding="utf-8")
    labels.write_text('{"Is A a B?": 1}\n', encoding="utf-8")
    code, out, err = run(capsys, "stats", "--traces", str(traces), "--labels", str(labels))
    assert code == 1
    assert out == ""
    assert err == f"stats: {labels}: the label of 'Is A a B?' must be a string, not 1\n"



@pytest.mark.parametrize("labels_json, error", [
    ('{"Is A a B?": "x", "is a a b": "y"}',
     "labels 'Is A a B?' and 'is a a b' name the same question with different categories"),
    ('{"Is A a B?": "x", "is a a b": "x", "IS A A B": "y"}',
     "labels 'Is A a B?' and 'IS A A B' name the same question with different categories"),
    ('{"Is A a B?": "x", "is a a b": "x"}', None),
])
def test_stats_labels_that_normalize_alike(tmp_path, capsys, labels_json, error):
    traces, labels = tmp_path / "trace.jsonl", tmp_path / "labels.json"
    traces.write_text('{"q": "Is A a B?", "outcome": "rejected"}\n', encoding="utf-8")
    labels.write_text(labels_json + "\n", encoding="utf-8")
    code, out, err = run(capsys, "stats", "--traces", str(traces), "--labels", str(labels))
    if error is None:
        assert (code, err) == (0, "")
        assert "x" in out.split()
        return
    assert code == 1
    assert out == ""
    assert err == f"stats: {labels}: {error}\n"

def test_report_on_a_json_list(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("[]\n", encoding="utf-8")
    code, out, err = run(capsys, "report", str(path))
    assert code == 1
    assert out == ""
    assert err == f"report: {path}: not a JSON object\n"


@pytest.mark.parametrize("report, problem", [
    ({"accuracy": {"overall": {}}}, "accuracy has no key 'per_domain'"),
    ({"accuracy": {"per_domain": {}, "overall": {"pass_rate": 1.0, "n": 3}}},
     "accuracy.overall has no key 'ci_halfwidth'"),
    ({"accuracy": {"per_domain": {"film": []}, "overall": {}}},
     "accuracy.per_domain.film must be an object, not []"),
    ({"rejection": {"per_category": 3}}, "rejection.per_category must be an object, not 3"),
    ({"rejection": {"per_category": {}, "overall": {"rate": "0.5"}}},
     "rejection.overall.rate must be a number, not '0.5'"),
    ({"config": [], "rejection": None}, "config must be an object, not []"),
    ({"config": {"criterion": 1}}, "config.criterion must be a string, not 1"),
])
def test_report_on_a_malformed_report_names_the_key(report, problem, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "report", str(path))
    assert code == 1
    assert out == ""
    assert err == f"report: {path}: {problem}\n"


# each command that loads cohorts, with its other inputs
_LOADS_COHORTS = {
    "validate": lambda path: ["validate", path],
    "check": lambda path: ["check", "--cohorts", path,
                           "--programs", f"{FIX}/programs/conjunction_batch.jsonl"],
    "eval": lambda path: ["eval", "--cohorts", path, "--facts", f"{FIX}/facts.jsonl",
                          "--programs", f"{FIX}/programs/conjunction_batch.jsonl"],
    "exec": lambda path: ["exec", "--cohorts", path, "--facts", f"{FIX}/facts.jsonl",
                          "--program", f"{FIX}/programs/conjunction.py",
                          "--cohort-id", "hotpotqa-film-0001", "--member", "3"],
    "sim": lambda path: ["sim", "--cohorts", path, "--facts", f"{FIX}/facts.jsonl",
                         "--pool", f"{FIX}/pool.jsonl", "--updates", "3"],
}


@pytest.mark.parametrize("command", _LOADS_COHORTS)
def test_binding_keys_that_differ_from_the_parameters_fail_at_load(command, tmp_path, capsys):
    record = json.loads(_first_line(f"{FIX}/cohorts.jsonl"))
    del record["variants"][2]["bindings"]["Film1"]
    path = tmp_path / "cohorts.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run(capsys, *_LOADS_COHORTS[command](str(path)))
    assert code == 1
    assert out == ""
    assert err == (
        f"{command}: {path}: line 1: binding keys ['Country', 'DocumentaryType', 'Film2'] "
        "!= parameters ['Country', 'DocumentaryType', 'Film1', 'Film2'] "
        "(at variants[2].bindings)\n"
    )


@pytest.mark.parametrize("command", _LOADS_COHORTS)
def test_out_of_range_gold_fails_at_load_naming_the_member(command, tmp_path, capsys):
    record = json.loads(_first_line(f"{FIX}/cohorts.jsonl"))
    record["variants"][1]["gold"] = 5
    path = tmp_path / "cohorts.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run(capsys, *_LOADS_COHORTS[command](str(path)))
    assert code == 1
    assert out == ""
    assert err == (
        f"{command}: {path}: line 1: gold index 5 out of range for 2 options "
        "(at variants[1].gold)\n"
    )


@pytest.mark.parametrize("command", _LOADS_COHORTS)
def test_a_header_kind_programs_cannot_take_fails_at_load(command, tmp_path, capsys):
    record = json.loads(_first_line(f"{FIX}/cohorts.jsonl"))
    record["function_header"] = record["function_header"].replace("DocumentaryType: str",
                                                                  "DocumentaryType: dict")
    path = tmp_path / "cohorts.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run(capsys, *_LOADS_COHORTS[command](str(path)))
    assert code == 1
    assert out == ""
    assert err == (
        f"{command}: {path}: line 1: signature mismatch: expected 'parameter annotated with "
        "int/float/str/bool/list', found 'DocumentaryType: dict' (at function_header)\n"
    )


# each command that loads facts, with its other inputs
_LOADS_FACTS = {
    "eval": lambda path: ["eval", "--cohorts", f"{FIX}/cohorts.jsonl", "--facts", path,
                          "--programs", f"{FIX}/programs/conjunction_batch.jsonl"],
    "exec": lambda path: ["exec", "--cohorts", f"{FIX}/cohorts.jsonl", "--facts", path,
                          "--program", f"{FIX}/programs/conjunction.py",
                          "--cohort-id", "hotpotqa-film-0001"],
    "sim": lambda path: ["sim", "--cohorts", f"{FIX}/sim_cohorts.jsonl", "--facts", path,
                         "--pool", f"{FIX}/pool.jsonl", "--updates", "3"],
}


def _facts_with_conflicting_repeat() -> tuple[str, str]:
    """The fixture facts plus a last line that repeats line 2's question with
    another value, and the message naming it (after `<command>: <file>: `)."""
    facts = Path(f"{FIX}/facts.jsonl").read_text(encoding="utf-8").splitlines()
    question = json.loads(facts[1])["q"].lower().rstrip("?")
    repeat = json.dumps({"q": question, "kind": "bool", "value": False})
    error = (f"line {len(facts) + 1}: question {question!r} "
             "repeats line 2 with a different kind or value\n")
    return "\n".join([*facts, repeat]) + "\n", error


@pytest.mark.parametrize("command", _LOADS_FACTS)
def test_a_fact_that_repeats_with_another_value_fails_at_load(command, tmp_path, capsys):
    text, error = _facts_with_conflicting_repeat()
    path = tmp_path / "facts.jsonl"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *_LOADS_FACTS[command](str(path)))
    assert code == 1
    assert out == ""
    assert err == f"{command}: {path}: {error}"


@pytest.mark.parametrize("command", _LOADS_FACTS)
def test_a_conflicting_fact_repeat_in_a_pipe_fails_at_load(command, capsys):
    # `--facts <(cat facts.jsonl)`: the pipe cannot be read a second time
    text, error = _facts_with_conflicting_repeat()
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        code, out, err = run(capsys, *_LOADS_FACTS[command](path))
    finally:
        os.close(read_end)
    assert (code, out) == (1, "")
    assert err == f"{command}: {path}: {error}"


def _xy_cohort(cohort_id: str) -> dict:
    def member(x: str, y: str) -> dict:
        return {"bindings": {"X": x, "Y": y}, "question": f"Is {x} bigger than {y}?", "gold": 0}

    return {
        "cohort_id": cohort_id, "domain": "other", "masked_question": "Is {X} bigger than {Y}?",
        "parameters": ["X", "Y"], "options": ["No", "Yes"],
        "function_header": "def answer(X: str, Y: str) -> int",
        "original": member("a0", "b0"), "variants": [member(f"a{i}", f"b{i}") for i in range(1, 6)],
    }


def test_sim_rejects_cohorts_with_different_parameters(tmp_path, capsys):
    path = tmp_path / "cohorts.jsonl"
    path.write_text(_first_line(f"{FIX}/sim_cohorts.jsonl") + "\n"
                    + json.dumps(_xy_cohort("xy-1")) + "\n", encoding="utf-8")
    log = tmp_path / "log.jsonl"
    code, out, err = run(capsys, "sim", "--cohorts", str(path), "--facts", f"{FIX}/facts.jsonl",
                         "--pool", f"{FIX}/pool.jsonl", "--updates", "3", "--output", str(log))
    assert code == 1
    assert out == ""
    assert err == (
        f"sim: {path}: cohort 'xy-1' params ['X', 'Y'] do not match the first cohort's "
        "params ['Film1', 'Film2', 'DocumentaryType', 'Country']\n"
    )
    assert not log.exists()


def test_sim_rejects_cohorts_whose_parameter_kinds_differ(tmp_path, capsys):
    first = _first_line(f"{FIX}/sim_cohorts.jsonl")
    header = "def answer(Film1: str, Film2: str, DocumentaryType: bool, Country: list) -> int"
    second = dict(json.loads(first), cohort_id="kinds-1", function_header=header)
    path = tmp_path / "cohorts.jsonl"
    path.write_text(first + "\n" + json.dumps(second) + "\n", encoding="utf-8")
    log = tmp_path / "log.jsonl"
    code, out, err = run(capsys, "sim", "--cohorts", str(path), "--facts", f"{FIX}/facts.jsonl",
                         "--pool", f"{FIX}/pool.jsonl", "--updates", "3", "--output", str(log))
    assert code == 1
    assert out == ""
    assert err == (
        f"sim: {path}: cohort 'kinds-1' header {header!r} does not match the first cohort's "
        f"header {json.loads(first)['function_header']!r}\n"
    )
    assert not log.exists()


def test_report_constants_are_pinned(tmp_path, capsys):
    import numpy as np

    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "eval", "--cohorts", f"{FIX}/cohorts.jsonl",
                     "--programs", f"{FIX}/programs/conjunction_batch.jsonl",
                     "--facts", f"{FIX}/facts.jsonl", "--no-timestamp", "--output", str(report))
    assert code == 0
    assert json.loads(report.read_text(encoding="utf-8"))["accuracy"]["z"] == 1.96

    log = tmp_path / "log.jsonl"
    code, _, _ = run(capsys, "sim", "--cohorts", f"{FIX}/sim_cohorts.jsonl",
                     "--facts", f"{FIX}/facts.jsonl", "--pool", f"{FIX}/pool.jsonl",
                     "--updates", "20", "--no-timestamp", "--output", str(log))
    assert code == 0
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(records) == 20
    for record in records:
        rewards = np.asarray(record["rewards"])
        # exact: group advantages use epsilon 1e-8 and match numpy below 8 rollouts
        expected = ((rewards - rewards.mean()) / (rewards.std() + 1e-8)).tolist()
        assert record["advantages"] == expected


def test_eval_refuses_a_batch_before_any_report(refused_batch, tmp_path, capsys):
    cohorts, programs, error = refused_batch
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "eval", "--cohorts", str(cohorts), "--programs", str(programs),
                         "--facts", f"{FIX}/facts.jsonl", "--k", "2", "--output", str(report))
    assert (code, out, err) == (1, "", error)
    assert not report.exists()


@pytest.mark.parametrize("command", ["eval", "check", "exec", "validate"])
def test_a_repeated_cohort_id_names_the_id_and_the_file(command, tmp_path, capsys):
    cohort = json.loads(_first_line(f"{FIX}/cohorts.jsonl"))
    cohorts = tmp_path / "cohorts.jsonl"
    cohorts.write_text(json.dumps(cohort) + "\n" + json.dumps(dict(cohort, domain="other")) + "\n",
                       encoding="utf-8")
    args = {
        "eval": ["--cohorts", str(cohorts), "--programs", f"{FIX}/programs/conjunction_batch.jsonl",
                 "--facts", f"{FIX}/facts.jsonl"],
        "check": ["--cohorts", str(cohorts), "--programs", f"{FIX}/programs/conjunction_batch.jsonl"],
        "exec": ["--cohorts", str(cohorts), "--program", f"{FIX}/programs/conjunction.py",
                 "--cohort-id", cohort["cohort_id"], "--facts", f"{FIX}/facts.jsonl"],
        "validate": [str(cohorts)],
    }[command]
    code, out, err = run(capsys, command, *args)
    assert (code, out) == (1, "")
    assert err == f"{command}: {cohorts}: cohort_id {cohort['cohort_id']!r} repeats\n"


_NO_NAME = object()


@pytest.mark.parametrize("names, error", [
    (("generalizer", 7), "line 2: name must be a string, not 7 (at name)"),
    (("generalizer", None), "line 2: name must be a string, not None (at name)"),
    (("shortcut", "shortcut"), "line 2: candidate name 'shortcut' repeats line 1"),
    ((_NO_NAME, "candidate-0"), "line 2: candidate name 'candidate-0' repeats line 1"),
    (("candidate-1", _NO_NAME), "line 2: candidate name 'candidate-1' repeats line 1"),
    ((_NO_NAME, _NO_NAME), None),
], ids=["int", "null", "repeated", "default-repeated", "repeats-a-default", "defaults"])
def test_sim_pool_names_must_be_distinct_strings(names, error, tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    lines = Path(f"{FIX}/pool.jsonl").read_text(encoding="utf-8").splitlines()
    with open(pool, "w", encoding="utf-8") as out:
        for line, name in zip(lines, names):
            line = _without(line, "name")
            print(line if name is _NO_NAME else _with(line, "name", name), file=out)
    code, out, err = run(capsys, "sim", "--pool", str(pool), "--cohorts", f"{FIX}/sim_cohorts.jsonl",
                         "--facts", f"{FIX}/facts.jsonl", "--updates", "3")
    if error is None:
        assert (code, err) == (0, "")
        assert list(json.loads(out)["final_probabilities"]) == ["candidate-0", "candidate-1"]
        return
    assert (code, out) == (1, "")
    assert err == f"sim: {pool}: {error}\n"


@pytest.mark.parametrize("command", ["eval", "check"])
def test_a_repeated_sample_names_both_lines(command, tmp_path, capsys):
    conjunction = json.loads(_first_line(f"{FIX}/programs/conjunction_batch.jsonl"))
    shortcut = json.loads(_first_line(f"{FIX}/programs/shortcut_batch.jsonl"))
    programs = tmp_path / "programs.jsonl"
    # the same sample index under another cohort is no repeat
    lines = [conjunction, dict(conjunction, cohort_id="other-cohort"), shortcut]
    programs.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    args = ["--cohorts", f"{FIX}/cohorts.jsonl", "--programs", str(programs)]
    if command == "eval":
        args += ["--k", "1", "--facts", f"{FIX}/facts.jsonl"]
    code, out, err = run(capsys, command, *args)
    assert code == 1
    assert err == f"{command}: {programs}: line 3: sample hotpotqa-film-0001#0 repeats line 1\n"
    # check reports each line as it reads it; eval reads the whole batch first
    assert out.count("hotpotqa-film-0001#0") == (1 if command == "check" else 0)
