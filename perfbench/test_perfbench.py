"""Tests of the benchmark itself: generator, reference checker, stub, runner.

    python3 -m pytest perfbench/test_perfbench.py -q

They run cohortqa from ``src/`` of this checkout, on the tiny ``--smoke``
inputs, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import reference
import stub

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cohortqa(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "cohortqa.cli", *args], env=ENV,
                          capture_output=True, text=True, check=True, timeout=120)


def test_generator_is_deterministic_and_sources_are_per_cohort(tmp_path):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for path, seed in ((first, 5), (second, 5), (other, 6)):
        path.mkdir()
        gen.generate_eval(path, seed, 30, 4)
    for name in ("cohorts.jsonl", "facts.jsonl", "programs.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / name).read_bytes() != (other / name).read_bytes()
    owners: dict[str, set] = {}
    for record in reference.load_jsonl(first / "programs.jsonl"):
        owners.setdefault(record["source"], set()).add(record["cohort_id"])
    assert all(len(ids) == 1 for ids in owners.values())
    assert len(owners) < 30 * 4  # some samples of a cohort are duplicates


def test_eval_check_catches_one_altered_row(tmp_path):
    paths = gen.generate_eval(tmp_path, 3, 12, 4)
    expected = reference.expected_eval(paths["cohorts"], paths["programs"], paths["facts"], 4)
    report_path = tmp_path / "report.json"
    cohortqa("eval", "--cohorts", str(paths["cohorts"]), "--programs", str(paths["programs"]),
             "--facts", str(paths["facts"]), "--k", "4", "--no-timestamp", "--output", str(report_path))
    report = json.loads(report_path.read_text())
    assert reference.check_eval_report(report, expected) == []

    row = report["cohorts"][5]
    row["n_correct"] = (row["n_correct"] + 1) % 7
    problems = reference.check_eval_report(report, expected)
    assert len(problems) == 1 and problems[0].startswith(row["cohort_id"])

    del report["cohorts"][5]
    assert reference.check_eval_report(report, expected) == [f"{row['cohort_id']}: row missing"]


def test_sim_check_catches_an_altered_reward_or_swapped_advantages(tmp_path):
    paths = gen.generate_sim(tmp_path, 3, 10)
    rewards = reference.expected_sim_rewards(paths["cohorts"], paths["pool"], paths["facts"])
    log_path = tmp_path / "log.jsonl"
    done = cohortqa("sim", "--variant", "cohort", "--pool", str(paths["pool"]),
                    "--cohorts", str(paths["cohorts"]), "--facts", str(paths["facts"]),
                    "--updates", "200", "--seed", "3", "--no-timestamp", "--output", str(log_path))
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert reference.check_sim_log(log_path, final, rewards, 10, 200) == ([], [])
    header, *records = [json.loads(line) for line in log_path.read_text().splitlines()]

    def check_altered(index: int, alter) -> list[str]:
        altered = json.loads(json.dumps(records))
        alter(altered[index])
        log_path.write_text("".join(json.dumps(r) + "\n" for r in [header, *altered]))
        problems, run_problems = reference.check_sim_log(log_path, final, rewards, 10, 200)
        assert run_problems == []
        return problems

    def add_to_reward(record):
        record["rewards"][0] += 0.1

    def swap_advantages(record):
        record["advantages"][0], record["advantages"][1] = record["advantages"][1], record["advantages"][0]

    problems = check_altered(6, add_to_reward)
    assert len(problems) == 1 and problems[0].startswith("update 6: rewards")
    unequal = next(i for i, r in enumerate(records) if abs(r["advantages"][0] - r["advantages"][1]) > 0.1)
    problems = check_altered(unequal, swap_advantages)
    assert len(problems) == 1 and problems[0].startswith(f"update {unequal}: advantages")


def test_stub_rejects_a_payload_without_the_exemplars():
    messages = [{"role": "system", "content": 'reply ```json {"answer": ...}``` or "idk"'},
                {"role": "user", "content": "Is X a bird? (bool)"}]
    problem, _, _ = stub.check_payload({"model": "m", "temperature": 0.7, "messages": messages})
    assert problem.startswith("expected 24 messages")


def _manifest_names(trace: int) -> set[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in manifest["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["eval-mock", "eval-remote", "sim-train"])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, done.stderr
    assert set(result["metrics"]) == _manifest_names(trace)


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-mock", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
