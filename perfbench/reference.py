"""Reference checker for the cohortqa benchmark. It never imports cohortqa.

Each generated program runs under CPython ``exec`` with a ``retrieve()``
shim over the generated facts: a question the table lacks is rejected and
yields the type default, as the harness specifies. From the per-member
answers it derives what ``cohortqa eval`` and ``cohortqa sim`` must report,
using the paper's constants, and compares the program's outputs with that.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter

# cohortqa eval's default (lenient) criterion: at least 4 of 6 members correct
PASS_MIN_CORRECT = 4

# the paper's composite reward
ACC_PER_MEMBER = 0.2
GATE_MIN_CORRECT = 4
RET_NONE, RET_ONE, RET_MANY = -0.6, 0.0, 0.6
REJ_PER_MEMBER = -0.1

_KINDS = {bool: "bool", int: "int", float: "float", str: "str", list: "list"}
_DEFAULTS = {"bool": False, "int": 0, "float": 0.0, "str": "", "list": []}


def normalize(question: str) -> str:
    return " ".join(question.split()).casefold().rstrip(string.punctuation + " ")


def load_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_facts(path) -> dict[str, tuple[str, object]]:
    return {normalize(f["q"]): (f["kind"], f["value"]) for f in load_jsonl(path)}


def members(cohort: dict) -> list[dict]:
    return [cohort["original"], *cohort["variants"]]


class _KindMismatch(Exception):
    pass


class Runner:
    """Runs program sources on member bindings; caches compiled code."""

    def __init__(self, facts: dict):
        self.facts = facts
        self._code: dict[str, object] = {}

    def run(self, source: str, bindings: dict) -> tuple:
        """(answer or None on failure, retrieve calls made, any rejected)."""
        calls = 0
        rejected = False

        def retrieve(question, kind):
            nonlocal calls, rejected
            calls += 1
            name = _KINDS[kind]
            entry = self.facts.get(normalize(question))
            if entry is None:
                rejected = True
                return list(_DEFAULTS[name]) if name == "list" else _DEFAULTS[name]
            if entry[0] != name:
                raise _KindMismatch(question)
            return list(entry[1]) if name == "list" else entry[1]

        code = self._code.get(source)
        if code is None:
            code = self._code[source] = compile(source, "<program>", "exec")
        namespace = {"retrieve": retrieve}
        exec(code, namespace)
        try:
            answer = namespace["answer"](**bindings)
        except Exception:  # any runtime fault of the program is a failed member
            answer = None
        if isinstance(answer, bool) or not isinstance(answer, int) or answer < 0:
            answer = None
        return answer, calls, rejected


def _majority(answers: list) -> object:
    votes = Counter(a for a in answers if a is not None)
    ranked = votes.most_common()
    if not ranked or (len(ranked) > 1 and ranked[0][1] == ranked[1][1]):
        return None  # no vote, or a tie: counts as incorrect
    return ranked[0][0]


def expected_eval(cohorts_path, programs_path, facts_path, k: int) -> dict:
    """cohort_id -> the row fields ``cohortqa eval --k k`` must report."""
    runner = Runner(load_facts(facts_path))
    samples: dict[str, list[dict]] = {}
    for record in load_jsonl(programs_path):
        samples.setdefault(record["cohort_id"], []).append(record)
    expected = {}
    for cohort in load_jsonl(cohorts_path):
        group = sorted(samples.get(cohort["cohort_id"], []), key=lambda r: r["sample_index"])[:k]
        if not group:
            continue
        runs = [[runner.run(r["source"], m["bindings"]) for m in members(cohort)] for r in group]
        n_correct = 0
        for index, member in enumerate(members(cohort)):
            n_correct += _majority([run[index][0] for run in runs]) == member["gold"]
        expected[cohort["cohort_id"]] = {
            "k": len(group),
            "n_correct": n_correct,
            "passed": n_correct >= PASS_MIN_CORRECT,
            "any_rejected": any(m[2] for run in runs for m in run),
        }
    return expected


def check_eval_report(report: dict, expected: dict) -> list[str]:
    """One problem string per cohort whose row is missing or wrong."""
    rows = {row.get("cohort_id"): row for row in report.get("cohorts", [])}
    problems = []
    for cohort_id, want in expected.items():
        row = rows.get(cohort_id)
        if row is None:
            problems.append(f"{cohort_id}: row missing")
            continue
        got = {"k": row.get("k"), "n_correct": row.get("n_correct"), "passed": row.get("passed"),
               "any_rejected": bool(row.get("n_rejected"))}
        if got != want:
            problems.append(f"{cohort_id}: reported {got}, expected {want}")
    return problems


def reward(n_correct: int, n_calls: int, n_rejected: int) -> float:
    """The cohort variant of R_acc + R_ret + R_rej."""
    r_acc = ACC_PER_MEMBER * n_correct if n_correct >= GATE_MIN_CORRECT else 0.0
    r_ret = RET_NONE if n_calls == 0 else RET_ONE if n_calls == 1 else RET_MANY
    return r_acc + r_ret + REJ_PER_MEMBER * n_rejected


def expected_sim_rewards(cohorts_path, pool_path, facts_path) -> list[list[float]]:
    """rewards[program][cohort] for ``cohortqa sim --variant cohort``."""
    runner = Runner(load_facts(facts_path))
    cohorts = load_jsonl(cohorts_path)
    table = []
    for candidate in load_jsonl(pool_path):
        row = []
        for cohort in cohorts:
            runs = [runner.run(candidate["source"], m["bindings"]) for m in members(cohort)]
            n_correct = sum(run[0] == m["gold"] for run, m in zip(runs, members(cohort)))
            # n_calls is the dynamic retrieve count on the original member
            row.append(reward(n_correct, runs[0][1], sum(run[2] for run in runs)))
        table.append(row)
    return table


# Logged rewards may differ from the exact sums by float rounding, so they
# are compared to 1e-9. Advantages are checked to 1e-6: rewards equal under
# the paper's constants can still differ by rounding in the program, and
# normalizing by std + 1e-8 then turns them into advantages near 1e-8.
REWARD_TOL = 1e-9
ADVANTAGE_TOL = 1e-6
ADVANTAGE_EPSILON = 1e-8


def advantages(rewards: list[float]) -> list[float]:
    """Group-relative advantages: (r - mean) / (population std + 1e-8)."""
    mean = sum(rewards) / len(rewards)
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / len(rewards))
    return [(r - mean) / (std + ADVANTAGE_EPSILON) for r in rewards]


def check_sim_update(index: int, record: dict, rewards: list[list[float]], n_cohorts: int) -> str:
    """Empty string when one logged update agrees with the reference."""
    if record.get("cohort_index") != index % n_cohorts:
        return f"update {index}: cohort_index {record.get('cohort_index')}"
    sampled, got, adv = record.get("sampled", []), record.get("rewards", []), record.get("advantages", [])
    if not sampled or len(got) != len(sampled) or len(adv) != len(sampled):
        return f"update {index}: malformed record"
    want = [rewards[s][record["cohort_index"]] for s in sampled]
    if any(abs(g - w) > REWARD_TOL for g, w in zip(got, want)):
        return f"update {index}: rewards {got}, expected {want}"
    want_adv = advantages(want)
    if any(abs(a - w) > ADVANTAGE_TOL for a, w in zip(adv, want_adv)):
        return f"update {index}: advantages {adv}, expected {want_adv}"
    return ""


def check_sim_log(log_path, final: dict, rewards: list[list[float]], n_cohorts: int,
                  updates: int) -> tuple[list[str], list[str]]:
    """(per-update problems, whole-run problems) for one ``cohortqa sim`` log."""
    records = load_jsonl(log_path)
    if not records or records[0].get("kind") != "sim-log":
        return [], ["log has no sim-log header"]
    body = records[1:]
    problems = [p for i, r in enumerate(body) if (p := check_sim_update(i, r, rewards, n_cohorts))]
    problems += [f"update {i}: missing" for i in range(len(body), updates)]
    run_problems = []
    if len(body) > updates:
        run_problems.append(f"{len(body)} updates logged, {updates} run")
    probs = final.get("final_probabilities", {})
    if not probs.get("generalizer", 0.0) > probs.get("shortcut", 1.0):
        run_problems.append(f"generalizer does not end above the shortcut: {probs}")
    return problems, run_problems
