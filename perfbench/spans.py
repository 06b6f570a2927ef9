"""Span tracing of one ``cohortqa`` command, and the per-layer metrics.

Run as a script, this module wraps the public functions of each cohortqa
layer, runs the CLI in-process and, when it returns, writes every span to
a JSON file:

    python3 perfbench/spans.py SPANS.json -- eval --cohorts ... --k 4

A span is ``[id, parent, name, start_ns, end_ns, note]``. The parent is the
span open in the calling context; the worker threads that ``run_cohort``
starts inherit that context, so their spans link to the ``run_cohort`` that
fanned them out. ``note`` holds what the metrics need from arguments or the
result (a status, a count, a hash of a parse input). Spans stay in memory
until the command ends.

Imported, it gives ``layer_metrics``, which turns spans into the per-layer
metrics the benchmark reports. The wrappers live only here: the program
under test is not changed.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

_current = contextvars.ContextVar("perfbench_span", default=0)


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, note=None):
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id, parent = next(ids), _current.get()
            token = _current.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, parent, name, start, clock(), None))
                raise
            finally:
                _current.reset(token)
            spans.append((span_id, parent, name, start, clock(), note(args, result) if note else None))
            return result

        return traced


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so spans link."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def install(recorder: Recorder):
    """Wrap each layer's public functions wherever cohortqa refers to them."""
    import cohortqa.cli
    from cohortqa import data_model, evaluation, retriever, reward, runtime, sim
    from cohortqa.dsl import parser

    functions = (
        ("data_model.load_cohorts", data_model.load_cohorts, lambda a, r: len(r)),
        ("dsl.parse_program", parser.parse_program, lambda a, r: hash((a[0], a[1]))),
        ("dsl.parse_header", parser.parse_header, None),
        ("runtime.execute", runtime.execute, lambda a, r: [r.status, len(r.trace)]),
        ("evaluation.run_cohort", evaluation.run_cohort, None),
        ("evaluation.self_consistency", evaluation.self_consistency, None),
        ("reward.cohort_reward", reward.cohort_reward, None),
        ("reward.group_advantages", reward.group_advantages, None),
        ("sim.policy_gradient_step", sim.policy_gradient_step, None),
        ("sim.run_toy_training", sim.run_toy_training,
         lambda a, r: [len(r.updates), a[0].rollouts_per_update]),
    )
    modules = [m for n, m in list(sys.modules.items()) if n == "cohortqa" or n.startswith("cohortqa.")]
    for name, fn, note in functions:
        wrapped = recorder.wrap(name, fn, note)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    outcome = lambda a, r: r.outcome  # noqa: E731
    retriever.MockRetriever.retrieve = recorder.wrap(
        "retriever.mock", retriever.MockRetriever.retrieve, outcome)
    retriever.RemoteRetriever.retrieve = recorder.wrap(
        "retriever.remote", retriever.RemoteRetriever.retrieve, outcome)
    from_jsonl = vars(retriever.FactTable)["from_jsonl"].__func__
    retriever.FactTable.from_jsonl = classmethod(
        recorder.wrap("retriever.fact_table_load", from_jsonl, lambda a, r: len(r)))
    evaluation.ThreadPoolExecutor = _ContextPool
    return recorder.wrap("cli.main", cohortqa.cli.main)


def main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: spans.py SPANS.json -- COHORTQA-ARGS...", file=sys.stderr)
        return 2
    recorder = Recorder()
    code = install(recorder)(cli_args)
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(recorder.spans, out)
    return code


# --- analysis -------------------------------------------------------------

def _covered(start: int, end: int, children: list) -> int:
    """Nanoseconds of [start, end] covered by the union of child intervals."""
    total, reach = 0, start
    for c_start, c_end in sorted((max(c[3], start), min(c[4], end)) for c in children):
        if c_end <= reach:
            continue
        total += c_end - max(c_start, reach)
        reach = c_end
    return total


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] if ordered else 0.0


def layer_metrics(spans: list, latency_ms: float) -> dict[str, float]:
    """Per-layer metrics from one traced command; 0 where a layer did not run."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
        children[span[1]].append(span)

    def dur(span) -> int:
        return span[4] - span[3]

    def self_ns(span) -> int:
        return dur(span) - _covered(span[3], span[4], children[span[0]])

    def mean_us(name: str, measure=dur) -> float:
        group = by_name[name]
        return sum(measure(s) for s in group) / len(group) / 1e3 if group else 0.0

    def per_item_us(name: str) -> float:
        group = by_name[name]
        items = sum(s[5] for s in group)
        return sum(dur(s) for s in group) / items / 1e3 if items else 0.0

    remote_ms = [dur(s) / 1e6 for s in by_name["retriever.remote"]]
    remote_outcomes = Counter(s[5] for s in by_name["retriever.remote"])
    executes = by_name["runtime.execute"]
    statuses = Counter(s[5][0] for s in executes)
    parses = by_name["dsl.parse_program"]
    trainings = by_name["sim.run_toy_training"]
    updates = sum(s[5][0] for s in trainings)
    rollouts = sum(s[5][0] * s[5][1] for s in trainings)
    training_ids = {s[0] for s in trainings}
    sim_run_cohorts = sum(1 for s in by_name["evaluation.run_cohort"] if s[1] in training_ids)
    remote_p50 = _percentile(remote_ms, 0.50)
    return {
        "data_model.load_cohorts.us_per_cohort": per_item_us("data_model.load_cohorts"),
        "retriever.fact_table_load.us_per_fact": per_item_us("retriever.fact_table_load"),
        "retriever.mock.calls": len(by_name["retriever.mock"]),
        "retriever.mock.us_per_call": mean_us("retriever.mock"),
        "retriever.remote.calls": len(remote_ms),
        "retriever.remote.p50_ms": remote_p50,
        "retriever.remote.p99_ms": _percentile(remote_ms, 0.99),
        "retriever.remote.overhead_ms": remote_p50 - latency_ms if remote_ms else 0.0,
        "retriever.remote.outcome.value": remote_outcomes["value"],
        "retriever.remote.outcome.rejected": remote_outcomes["rejected"],
        "retriever.remote.outcome.error": remote_outcomes["error"],
        "dsl.parse_program.calls": len(parses),
        "dsl.parse_program.us_per_call": mean_us("dsl.parse_program"),
        "dsl.parse_program.distinct_share": len({s[5] for s in parses}) / len(parses) if parses else 0.0,
        "dsl.parse_header.calls": len(by_name["dsl.parse_header"]),
        "dsl.parse_header.us_per_call": mean_us("dsl.parse_header"),
        "runtime.execute.calls": len(executes),
        "runtime.execute.self_us_per_call": mean_us("runtime.execute", self_ns),
        "runtime.execute.retrieves_per_call": sum(s[5][1] for s in executes) / len(executes) if executes else 0.0,
        "runtime.execute.status.answered": statuses["answered"],
        "runtime.execute.status.runtime_failure": statuses["runtime_failure"],
        "runtime.execute.status.limit_exceeded": statuses["limit_exceeded"],
        "evaluation.run_cohort.calls": len(by_name["evaluation.run_cohort"]),
        "evaluation.run_cohort.self_us_per_call": mean_us("evaluation.run_cohort", self_ns),
        "evaluation.self_consistency.self_us_per_call": mean_us("evaluation.self_consistency", self_ns),
        "reward.cohort_reward.us_per_call": mean_us("reward.cohort_reward"),
        "reward.group_advantages.us_per_call": mean_us("reward.group_advantages"),
        "sim.policy_gradient_step.us_per_call": mean_us("sim.policy_gradient_step"),
        "sim.update.self_us": sum(self_ns(s) for s in trainings) / updates / 1e3 if updates else 0.0,
        "sim.run_cohort.miss_share": sim_run_cohorts / rollouts if rollouts else 0.0,
        "cli.self_s": sum(self_ns(s) for s in by_name["cli.main"]) / 1e9,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
