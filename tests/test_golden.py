"""Golden outputs: every subcommand, run in-process on `fixtures/` and on
inputs derived from it, must reproduce its exit code, stdout, stderr and
output files byte for byte.

Each case runs with `--no-timestamp` where the subcommand has it, in a
temporary directory that holds a copy of `fixtures/`, with every path
relative, so the recorded messages name the same files on every machine.
Cases run in order, and a later case may read an earlier case's output.

The expected bytes live in `tests/golden/<case>/`: `exit`, `stdout`,
`stderr` and one file per output. To record them for a new case, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

from cohortqa.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_COHORTS = "fixtures/cohorts.jsonl"
_FACTS = "fixtures/facts.jsonl"
_SIM = ("--pool", "fixtures/pool.jsonl", "--cohorts", "fixtures/sim_cohorts.jsonl",
        "--facts", _FACTS, "--no-timestamp")

# (name, argv, output files)
CASES = [
    ("validate-ok", ["validate", _COHORTS], []),
    ("validate-fail", ["validate", "derived/bad-member.jsonl"], []),
    ("validate-bad-gold", ["validate", "derived/bad-gold.jsonl"], []),
    ("validate-bad-header", ["validate", "derived/bad-header.jsonl"], []),
    ("validate-bad-bindings", ["validate", "derived/bad-bindings.jsonl"], []),
    ("check-conjunction",
     ["check", "--cohorts", _COHORTS, "--programs", "fixtures/programs/conjunction_batch.jsonl"], []),
    ("check-shortcut",
     ["check", "--cohorts", _COHORTS, "--programs", "fixtures/programs/shortcut_batch.jsonl"], []),
    ("check-mixed", ["check", "--cohorts", _COHORTS, "--programs", "derived/mixed-batch.jsonl"], []),
    ("exec-conjunction",
     ["exec", "--program", "fixtures/programs/conjunction.py", "--cohorts", _COHORTS,
      "--cohort-id", "hotpotqa-film-0001", "--facts", _FACTS], []),
    ("exec-conjunction-member-3",
     ["exec", "--program", "fixtures/programs/conjunction.py", "--cohorts", _COHORTS,
      "--cohort-id", "hotpotqa-film-0001", "--member", "3", "--facts", _FACTS], []),
    ("exec-shortcut",
     ["exec", "--program", "fixtures/programs/shortcut.py", "--cohorts", _COHORTS,
      "--cohort-id", "hotpotqa-film-0001", "--facts", _FACTS], []),
    ("eval-lenient",
     ["eval", "--cohorts", _COHORTS, "--programs", "fixtures/programs/conjunction_batch.jsonl",
      "--facts", _FACTS, "--no-timestamp", "--output", "out/eval-lenient.json"],
     ["out/eval-lenient.json"]),
    ("eval-strict",
     ["eval", "--cohorts", _COHORTS, "--programs", "fixtures/programs/shortcut_batch.jsonl",
      "--facts", _FACTS, "--criterion", "strict", "--no-timestamp",
      "--output", "out/eval-strict.json"],
     ["out/eval-strict.json"]),
    ("eval-k3",
     ["eval", "--cohorts", "derived/two-cohorts.jsonl", "--programs", "derived/k3-batch.jsonl",
      "--facts", _FACTS, "--k", "3", "--no-timestamp", "--output", "out/eval-k3.json"],
     ["out/eval-k3.json"]),
    ("sim-cohort", ["sim", *_SIM, "--variant", "cohort", "--output", "out/sim-cohort.jsonl"],
     ["out/sim-cohort.jsonl"]),
    ("sim-normal", ["sim", *_SIM, "--variant", "normal", "--output", "out/sim-normal.jsonl"],
     ["out/sim-normal.jsonl"]),
    ("sim-org", ["sim", *_SIM, "--variant", "org", "--output", "out/sim-org.jsonl"],
     ["out/sim-org.jsonl"]),
    ("reward", ["reward", "--outcomes", "derived/outcomes.jsonl"], []),
    ("reward-output",
     ["reward", "--outcomes", "derived/outcomes.jsonl", "--output", "out/rewards.jsonl"],
     ["out/rewards.jsonl"]),
    ("stats", ["stats", "--traces", "derived/traces.jsonl", "--no-timestamp"], []),
    ("stats-labels",
     ["stats", "--traces", "derived/traces.jsonl", "derived/traces-2.jsonl",
      "--labels", "derived/labels.json", "--no-timestamp", "--output", "out/stats.json"],
     ["out/stats.json"]),
    ("report",
     ["report", "out/eval-lenient.json", "out/eval-strict.json", "out/eval-k3.json",
      "out/stats.json"], []),
]


def _write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" if r is not None else "\n" for r in records),
                    encoding="utf-8")


def _derive_inputs(root: Path) -> None:
    """Inputs built from the fixtures: failing cohorts, mixed batches, outcome
    records, and retrieve events over the fact table's questions."""
    derived = root / "derived"
    derived.mkdir()
    (root / "out").mkdir()
    cohort = json.loads((root / _COHORTS).read_text(encoding="utf-8"))
    conj, short = (
        json.loads((root / f"fixtures/programs/{name}_batch.jsonl").read_text(encoding="utf-8"))
        for name in ("conjunction", "shortcut")
    )

    def variant(cohort_id: str, change) -> dict:
        record = json.loads(json.dumps(cohort))
        record["cohort_id"] = cohort_id
        change(record)
        return record

    def bad_member(record):
        record["original"]["question"] = "A completely different question?"
        record["variants"][1]["question"] += " Really?"

    _write_jsonl(derived / "bad-member.jsonl", [variant("film-a", lambda r: None),
                                                variant("film-b", bad_member)])
    _write_jsonl(derived / "bad-gold.jsonl", [
        cohort, None, variant("film-b", lambda r: r["variants"][2].update(gold=7))])
    _write_jsonl(derived / "bad-header.jsonl", [cohort, variant(
        "film-b", lambda r: r.update(function_header=r["function_header"].replace(
            "DocumentaryType: str", "DocumentaryType: dict")))])
    _write_jsonl(derived / "bad-bindings.jsonl", [cohort, variant(
        "film-b", lambda r: r["variants"][3]["bindings"].pop("Country"))])
    _write_jsonl(derived / "two-cohorts.jsonl", [variant("film-a", lambda r: None),
                                                 variant("film-b", lambda r: None)])

    renamed = conj["source"].replace("Country: str", "Nation: str")
    as_str = short["source"].replace("-> int", "-> str")
    reordered = short["source"].replace("Film1: str, Film2: str", "Film2: str, Film1: str")
    _write_jsonl(derived / "mixed-batch.jsonl", [
        conj,
        dict(short, sample_index=1),
        dict(conj, sample_index=2, source=renamed),
        dict(conj, sample_index=3, source=as_str),
        dict(conj, sample_index=4, source=reordered),
        dict(conj, cohort_id="no-such-cohort"),
    ])
    _write_jsonl(derived / "k3-batch.jsonl", [
        dict(conj, cohort_id="film-a", sample_index=2),
        dict(short, cohort_id="film-a", sample_index=0),
        dict(conj, cohort_id="film-a", sample_index=1),
        dict(short, cohort_id="film-b", sample_index=0),
        dict(short, cohort_id="film-b", sample_index=1),
        dict(conj, cohort_id="film-b", sample_index=2),
        dict(conj, cohort_id="film-b", sample_index=3),
    ])

    _write_jsonl(derived / "outcomes.jsonl", [
        {"cohort_id": "film-a", "sample_index": i, "n_correct": correct, "n_calls": calls,
         "n_rejected": rejected, "variant": name}
        for i, (correct, calls, rejected) in enumerate([(6, 2, 0), (3, 1, 2), (4, 0, 6)])
        for name in ("cohort", "normal")
    ] + [{"n_correct": 5, "n_calls": 3, "n_rejected": 1}])

    facts = [json.loads(line) for line in (root / _FACTS).read_text(encoding="utf-8").splitlines()]
    events = [{"q": f["q"], "kind": f["kind"], "outcome": "value", "value": f["value"]}
              for f in facts[:12]]
    events += [{"q": f["q"].replace("documentary", "comedy"), "kind": f["kind"],
                "outcome": "rejected"} for f in facts[12:]]
    _write_jsonl(derived / "traces.jsonl", events[::2])
    _write_jsonl(derived / "traces-2.jsonl", events[1::2])
    labels = {f["q"]: ("iraq" if "Iraq" in f["q"] else "other") for f in facts[::3]}
    (derived / "labels.json").write_text(json.dumps(labels), encoding="utf-8")


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"exit": f"{code}\n".encode(), "stdout": stdout.getvalue().encode("utf-8"),
            "stderr": stderr.getvalue().encode("utf-8")}


def _outputs(root: Path):
    """Run every case in `root`; yield (case, {name: bytes})."""
    shutil.copytree(ROOT / "fixtures", root / "fixtures")
    _derive_inputs(root)
    for name, argv, files in CASES:
        produced = _run(argv)
        for path in files:
            produced[Path(path).name] = (root / path).read_bytes()
        yield name, produced


def test_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for case, produced in _outputs(tmp_path):
        for part, data in produced.items():
            golden = GOLDEN / case / part
            expected = golden.read_bytes() if golden.exists() else None
            if data != expected:
                mismatches.append(f"{case}/{part}:\n--- golden\n{expected!r}\n--- now\n{data!r}")
    assert not mismatches, "\n\n".join(mismatches)


def _record(root: Path) -> None:
    for case, produced in _outputs(root):
        for part, data in produced.items():
            (GOLDEN / case).mkdir(parents=True, exist_ok=True)
            (GOLDEN / case / part).write_bytes(data)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        _record(Path(scratch))
    sys.exit(0)
