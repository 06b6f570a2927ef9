"""Single entry point wiring all modules: validate, check, exec, eval,
reward, sim, stats, report."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import closing
from dataclasses import asdict
from pathlib import Path
from typing import Iterator
from urllib.parse import urlsplit

from . import __version__
from .data_model import CohortInstance, SchemaError, load_cohorts, read_jsonl, validate_cohort
from .dsl import ParseError, Program, check_program, parse_program
from .evaluation import (
    EvalCriterion,
    aggregate,
    apply_criterion,
    rejection_stats,
    run_cohorts,
    vote,
)
from .retriever import (
    OUTCOME_ERROR,
    FactTable,
    MockRetriever,
    RemoteRetriever,
    RemoteRetrieverConfig,
    normalize_question,
)
from .reward import CohortExecutionSummary, cohort_reward
from .runtime import ExecutionLimits, execute

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BACKEND = 3  # 2, a usage error, is argparse's parser.error exit


# one encoder for the run: json.dumps(obj, sort_keys=True) would build a new
# one on every call, and sim writes a line per update
_dump = json.JSONEncoder(sort_keys=True).encode


def _base_report(args) -> dict:
    report = {"version": __version__, "seed": getattr(args, "seed", 0)}
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return report


def _add_retriever_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retriever", choices=["mock", "remote"], default="mock")
    parser.add_argument("--facts", help="fact table JSONL (required for mock)")
    parser.add_argument("--endpoint", help="chat-completion URL (required for remote)")
    parser.add_argument("--model", default="retriever")
    parser.add_argument("--temperature", type=float, default=0.7)
    parser.add_argument("--timeout-ms", type=int, default=30_000)
    parser.add_argument("--max-retries", type=int, default=3)


def _add_limit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-retrieve-calls", type=int, default=64)
    parser.add_argument("--max-steps", type=int, default=10_000)
    parser.add_argument("--max-list-len", type=int, default=1024)


def _make_retriever(args, parser: argparse.ArgumentParser):
    if args.retriever == "mock":
        if not args.facts:
            parser.error("--retriever mock requires --facts")
        return MockRetriever(FactTable.from_jsonl(args.facts))
    if not args.endpoint:
        parser.error("--retriever remote requires --endpoint")
    try:
        return RemoteRetriever(RemoteRetrieverConfig(
            endpoint=args.endpoint,
            model=args.model,
            temperature=args.temperature,
            timeout_s=args.timeout_ms / 1000.0,
            max_retries=args.max_retries,
        ))
    except ValueError as exc:
        parser.error(f"--retriever remote: {exc}")


def _make_limits(args, parser: argparse.ArgumentParser) -> ExecutionLimits:
    try:
        return ExecutionLimits(
            max_retrieve_calls=args.max_retrieve_calls,
            max_steps=args.max_steps,
            max_list_len=args.max_list_len,
        )
    except ValueError as exc:
        parser.error(f"--max-retrieve-calls, --max-steps, --max-list-len: {exc}")


def _retriever_config_json(args) -> dict:
    config = {"retriever": args.retriever}
    if args.retriever == "mock":
        config["facts"] = args.facts
    else:
        # the report keeps no credentials; requests still send them
        netloc = urlsplit(args.endpoint).netloc
        endpoint = args.endpoint.replace(netloc, netloc.rpartition("@")[2], 1)
        config.update(endpoint=endpoint, model=args.model, temperature=args.temperature)
    return config


_NUMBER = (int, float)
_NOUNS = {int: "an integer", str: "a string", _NUMBER: "a number"}


def _typed(value, kind, where: str, field_path: str = "") -> None:
    """Raise a SchemaError unless `value` is a `kind`; a bool is no number."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{where} must be {_NOUNS[kind]}, not {value!r}", field_path)


def _typed_keys(record: dict, types: dict) -> dict:
    """`record`, each key of `types` checked to hold a value of that type."""
    for key, kind in types.items():
        _typed(record[key], kind, key, key)
    return record


_BATCH_TYPES = {"cohort_id": str, "sample_index": int, "source": str}
_OUTCOME_TYPES = {"n_correct": int, "n_calls": int, "n_rejected": int}


def _read_batch(path: str) -> Iterator[dict]:
    """The records of a program batch, each line's keys checked for type; a
    repeated (cohort_id, sample_index) is a SchemaError."""
    first_lines: dict[tuple[str, int], int] = {}

    def record(obj: dict, line: int) -> dict:
        tag = (_typed_keys(obj, _BATCH_TYPES)["cohort_id"], obj["sample_index"])
        first = first_lines.setdefault(tag, line)
        if first != line:
            raise SchemaError(f"sample {tag[0]}#{tag[1]} repeats line {first}")
        return obj

    return read_jsonl(path, record, tuple(_BATCH_TYPES))


def _read_json_object(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}", path=path) from exc
    if not isinstance(data, dict):
        raise SchemaError("not a JSON object", path=path)
    return data


def _cohorts_by_id(path: str) -> dict[str, CohortInstance]:
    """The cohorts of a file by id; a repeated id is a SchemaError."""
    cohorts: dict[str, CohortInstance] = {}
    for cohort in load_cohorts(path):
        if cohorts.setdefault(cohort.cohort_id, cohort) is not cohort:
            raise SchemaError(f"cohort_id {cohort.cohort_id!r} repeats", path=path)
    return cohorts


# --- subcommands ---------------------------------------------------------

def cmd_validate(args, parser) -> int:
    cohorts = list(_cohorts_by_id(args.cohorts).values())
    if not cohorts:
        print("0 cohorts")
        return EXIT_OK
    failures = 0
    for cohort in cohorts:
        matches = validate_cohort(cohort)
        print(f"{cohort.cohort_id}: {'ok' if all(matches) else 'FAIL'}")
        if not all(matches):
            failures += 1
            for i, match in enumerate(matches):
                if not match:
                    label = "original" if i == 0 else f"variant {i - 1}"
                    print(f"  {label}: template-match")
    print(f"{len(cohorts)} cohorts, {failures} failing")
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_check(args, parser) -> int:
    cohorts = _cohorts_by_id(args.cohorts)
    any_fail = False
    for record in _read_batch(args.programs):
        tag = f"{record['cohort_id']}#{record['sample_index']}"
        cohort = cohorts.get(record["cohort_id"])
        if cohort is None:
            print(f"{tag}: unknown cohort")
            any_fail = True
            continue
        try:
            program = parse_program(record["source"], cohort.template.function_header)
        except ParseError as exc:
            print(f"{tag}: parse error: {exc}")
            any_fail = True
            continue
        report = check_program(program, cohort.template)
        print(
            f"{tag}: params_used={report.all_params_used} "
            f"retrieves={report.static_retrieve_count} "
            f"min_retrieves={report.meets_min_retrieves} "
            f"all_paths_return={report.every_path_returns}"
        )
        if not report.ok:
            any_fail = True
    return EXIT_FAILURE if any_fail else EXIT_OK


def cmd_exec(args, parser) -> int:
    cohort = _cohorts_by_id(args.cohorts).get(args.cohort_id)
    if cohort is None:
        print(f"exec: unknown cohort {args.cohort_id!r}", file=sys.stderr)
        return EXIT_FAILURE
    if not 0 <= args.member < len(cohort.members):
        parser.error(f"--member must be in [0, {len(cohort.members) - 1}]")
    source = Path(args.program).read_text(encoding="utf-8")
    try:
        program = parse_program(source, cohort.template.function_header)
    except ParseError as exc:
        print(f"exec: parse error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    with closing(_make_retriever(args, parser)) as retriever:
        result = execute(
            program, cohort.members[args.member].bindings, retriever, _make_limits(args, parser)
        )
    for event in result.trace:
        print(_dump(event.to_json()))
    print(_dump({
        "status": result.status,
        "answer": result.answer,
        "failure_reason": result.failure_reason,
        "limit": result.limit_which,
        "was_rejected": result.was_rejected,
        "dynamic_retrieve_count": result.dynamic_retrieve_count,
    }))
    if any(event.outcome == OUTCOME_ERROR for event in result.trace):
        return EXIT_BACKEND
    return EXIT_OK


def cmd_eval(args, parser) -> int:
    if args.k < 1:
        parser.error("--k must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    limits = _make_limits(args, parser)
    cohorts = _cohorts_by_id(args.cohorts)
    by_cohort: dict[str, list[dict]] = defaultdict(list)
    for record in _read_batch(args.programs):
        by_cohort[record["cohort_id"]].append(record)
    retriever = _make_retriever(args, parser)
    # the mock is GIL-bound: threads would only add overhead
    jobs = 1 if args.retriever == "mock" else args.jobs
    criterion = EvalCriterion(args.criterion)

    def groups():
        for cohort_id in sorted(by_cohort):
            cohort = cohorts.get(cohort_id)
            if cohort is None:
                raise SchemaError(f"unknown cohort {cohort_id!r}")
            sources = [r["source"] for r in
                       sorted(by_cohort[cohort_id], key=lambda r: r["sample_index"])[: args.k]]
            # duplicate samples share one parse; a Program is immutable
            parsed: dict[str, Program] = {}
            for source in sources:
                if source not in parsed:
                    try:
                        parsed[source] = parse_program(source, cohort.template.function_header)
                    except ParseError as exc:
                        raise SchemaError(f"parse error in {cohort_id}: {exc}") from exc
            yield cohort, [parsed[source] for source in sources]

    rows = []
    # closes the outcome stream first: that joins the pool, so no thread still
    # holds a connection when the retriever closes
    with closing(retriever), closing(run_cohorts(groups(), retriever, limits, jobs)) as outcomes:
        for samples in outcomes:
            cohort = cohorts[samples[0].cohort_id]
            outcome = vote(samples, cohort)
            rows.append({
                "cohort_id": cohort.cohort_id,
                "domain": cohort.template.domain_tag,
                "k": len(samples),
                "n_correct": outcome.n_correct,
                "n_rejected": outcome.n_rejected,
                "n_calls": outcome.summary.n_calls,
                "passed": apply_criterion(outcome, criterion),
                "backend_errors": sum(
                    event.outcome == OUTCOME_ERROR
                    for sample in samples
                    for trace in sample.traces
                    for event in trace
                ),
            })
    if not rows:
        print("eval: no programs to evaluate", file=sys.stderr)
        return EXIT_FAILURE

    # a cohort whose lookups failed says nothing about the programs
    scored = [(row["domain"], row["passed"]) for row in rows if not row["backend_errors"]]
    accuracy = aggregate(scored).to_json() if scored else None
    report = _base_report(args)
    report.update(
        config={
            **_retriever_config_json(args),
            "criterion": args.criterion,
            "k": args.k,
            "limits": asdict(limits),
        },
        cohorts=rows,
        accuracy=accuracy,
    )
    if args.output:
        Path(args.output).write_text(_dump(report) + "\n", encoding="utf-8")
    if accuracy is None:
        print("eval: no accuracy: every cohort had a backend error", file=sys.stderr)
    else:
        print(_accuracy_table(accuracy, args.criterion))
    if any(row["backend_errors"] for row in rows):
        print("eval: the retriever backend failed; see backend_errors in the report",
              file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def _accuracy_table(accuracy: dict, criterion: str) -> str:
    """Render the JSON form of an `AccuracyReport`."""
    lines = [f"{criterion.capitalize()} accuracy (%)",
             f"{'Domain':<16}{'Accuracy':>10}{'±':>8}{'N':>7}"]
    for domain, stats in [*accuracy["per_domain"].items(), ("overall", accuracy["overall"])]:
        lines.append(
            f"{domain:<16}{stats['pass_rate'] * 100:>10.1f}"
            f"{stats['ci_halfwidth'] * 100:>8.1f}{stats['n']:>7}"
        )
    return "\n".join(lines)


def _rejection_table(rejection: dict) -> str:
    """Render the JSON form of a `RejectionStats`."""
    lines = [f"{'Category':<40}{'Rejection Rate(%)':>18}"]
    for category, entry in [*rejection["per_category"].items(), ("Overall", rejection["overall"])]:
        lines.append(f"{category:<40}{entry['rate'] * 100:>18.1f}")
    return "\n".join(lines)


def _reward_record(obj: dict, line: int) -> dict:
    _typed_keys(obj, _OUTCOME_TYPES)
    summary = CohortExecutionSummary(obj["n_correct"], obj["n_calls"], obj["n_rejected"])
    breakdown = cohort_reward(summary, variant=obj.get("variant", "normal"))
    return {
        "cohort_id": obj.get("cohort_id", ""),
        "sample_index": obj.get("sample_index", 0),
        "n_correct": summary.n_correct,
        "n_calls": summary.n_calls,
        "n_rejected": summary.n_rejected,
        **breakdown._asdict(),
    }


def cmd_reward(args, parser) -> int:
    lines = (_dump(record) + "\n" for record in read_jsonl(
        args.outcomes, _reward_record, tuple(_OUTCOME_TYPES)))
    if not args.output:
        sys.stdout.writelines(lines)
        return EXIT_OK
    # stream to a file beside --output and rename it only on success, so a
    # failed run leaves no partial output and an existing file untouched
    output = Path(args.output)
    partial = output.with_name(f".{output.name}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8") as out:
            out.writelines(lines)
        os.replace(partial, output)
    finally:
        partial.unlink(missing_ok=True)
    return EXIT_OK


def cmd_sim(args, parser) -> int:
    if args.rollouts < 2:
        parser.error("--rollouts must be >= 2: group advantages need at least 2 rollouts")
    if args.updates < 1:
        parser.error("--updates must be >= 1")
    if not math.isfinite(args.lr):
        parser.error(f"--lr must be finite, not {args.lr}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    from .sim import ToyTrainConfig, run_toy_training

    cohorts = load_cohorts(args.cohorts)
    if not cohorts:
        raise SchemaError("no cohorts", path=args.cohorts)
    # the pool is parsed against the first cohort's header, so every cohort
    # must take the same parameter names and kinds, as run_cohort requires
    first = cohorts[0].template
    for cohort in cohorts:
        if cohort.template.parameter_names != first.parameter_names:
            raise SchemaError(
                f"cohort {cohort.cohort_id!r} params {list(cohort.template.parameter_names)} "
                f"do not match the first cohort's params {list(first.parameter_names)}",
                path=args.cohorts)
        if cohort.template.signature != first.signature:
            raise SchemaError(
                f"cohort {cohort.cohort_id!r} header {cohort.template.function_header!r} "
                f"does not match the first cohort's header {first.function_header!r}", path=args.cohorts)
    retriever = MockRetriever(FactTable.from_jsonl(args.facts))
    candidates = list(read_jsonl(args.pool, lambda obj, line: (
        line, obj, parse_program(obj["source"], first.function_header)), ("source",)))
    if not candidates:
        raise SchemaError("no candidate programs", path=args.pool)
    lines: dict[str, int] = {}  # candidate name -> its line, in pool order
    for i, (line, obj, _) in enumerate(candidates):
        name = obj.get("name", f"candidate-{i}")
        if not isinstance(name, str):
            raise SchemaError(f"name must be a string, not {name!r}", "name", line, args.pool)
        if lines.setdefault(name, line) != line:
            raise SchemaError(f"candidate name {name!r} repeats line {lines[name]}",
                              line=line, path=args.pool)
    names = list(lines)
    pool = [program for _, _, program in candidates]
    config = ToyTrainConfig(
        rollouts_per_update=args.rollouts,
        updates=args.updates,
        learning_rate=args.lr,
        mode=args.variant,
        seed=args.seed,
    )
    try:
        log = run_toy_training(config, pool, cohorts, retriever)
    except ValueError as exc:  # the policy diverged
        print(f"sim: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            meta = _base_report(args)
            meta.update(
                kind="sim-log",
                variant=args.variant,
                updates=args.updates,
                rollouts=args.rollouts,
                learning_rate=args.lr,
                candidates=names,
            )
            out.write(_dump(meta) + "\n")
            out.writelines(_dump(record.to_json()) + "\n" for record in log.updates)
    finals = dict(zip(names, log.final_probabilities))
    print(_dump({"variant": args.variant, "final_probabilities": finals}))
    return EXIT_OK


def cmd_stats(args, parser) -> int:
    label_map, label_keys = {}, {}
    if args.labels:
        for question, category in _read_json_object(args.labels).items():
            if not isinstance(category, str):
                raise SchemaError(f"the label of {question!r} must be a string, not {category!r}",
                                  path=args.labels)
            key = normalize_question(question)
            if label_map.setdefault(key, category) != category:
                raise SchemaError(f"labels {label_keys[key]!r} and {question!r} name the same "
                                  "question with different categories", path=args.labels)
            label_keys.setdefault(key, question)

    def label(question: str) -> str:
        return label_map.get(normalize_question(question), args.default_category)

    events = []
    for path in args.traces:
        for line, event in read_jsonl(path, lambda obj, line: (line, obj)):
            if not (isinstance(event.get("q"), str) and isinstance(event.get("outcome"), str)):
                print(f"stats: {path}:{line}: not a retrieve event", file=sys.stderr)
                return EXIT_FAILURE
            events.append(event)
    try:
        stats = rejection_stats(events, label)
    except ValueError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    data = stats.to_json()
    print(_rejection_table(data))
    if args.output:
        report = _base_report(args)
        report.update(rejection=data)
        Path(args.output).write_text(_dump(report) + "\n", encoding="utf-8")
    return EXIT_OK


# what `report` reads of a report; "*" stands for every key of an object
_ACCURACY_STATS = {"pass_rate": _NUMBER, "ci_halfwidth": _NUMBER, "n": int}
_REPORT_SHAPES = {
    "accuracy": {"per_domain": {"*": _ACCURACY_STATS}, "overall": _ACCURACY_STATS},
    "rejection": {"per_category": {"*": {"rate": _NUMBER}}, "overall": {"rate": _NUMBER}},
}


def _check_shape(value, shape, where: str) -> None:
    """Raise a SchemaError naming the first key of `value` that `shape` does not allow."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise SchemaError(f"{where} must be an object, not {value!r}")
        for key, inner in shape.items():
            if key == "*":
                for name, item in value.items():
                    _check_shape(item, inner, f"{where}.{name}")
            elif key not in value:
                raise SchemaError(f"{where} has no key {key!r}")
            else:
                _check_shape(value[key], inner, f"{where}.{key}")
    else:
        _typed(value, shape, where)


def cmd_report(args, parser) -> int:
    for path in args.inputs:
        data = _read_json_object(path)
        config = data.get("config", {})
        try:
            _check_shape(config, {}, "config")
            criterion = config.get("criterion", "accuracy")
            _check_shape(criterion, str, "config.criterion")
            for key, shape in _REPORT_SHAPES.items():
                if data.get(key) is not None:
                    _check_shape(data[key], shape, key)
        except SchemaError as exc:
            raise SchemaError(exc.message, path=path) from None
        print(f"== {path} ==")
        if data.get("accuracy") is not None:
            print(_accuracy_table(data["accuracy"], criterion))
        if data.get("rejection") is not None:
            print(_rejection_table(data["rejection"]))
    return EXIT_OK


# --- argument wiring -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohortqa",
        description="Cohort-consistency program harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a cohort JSONL file")
    p.add_argument("cohorts")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="static-check a program batch")
    p.add_argument("--cohorts", required=True)
    p.add_argument("--programs", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("exec", help="execute one program on one cohort member")
    p.add_argument("--program", required=True)
    p.add_argument("--cohorts", required=True)
    p.add_argument("--cohort-id", required=True)
    p.add_argument("--member", type=int, default=0, help="0 = original, 1-5 = variants")
    _add_retriever_args(p)
    _add_limit_args(p)
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("eval", help="cohort execution test over a program batch")
    p.add_argument("--cohorts", required=True)
    p.add_argument("--programs", required=True)
    p.add_argument("--criterion", choices=["strict", "lenient"], default="lenient")
    p.add_argument("--k", type=int, default=1, help="samples per cohort for self-consistency")
    p.add_argument("--output", help="write the JSON report here")
    p.add_argument(
        "--jobs", type=int, default=32,
        help="member executions in flight against a remote retriever, each thread on its own "
             "connection, at most 8 of them being opened at once; the mock runs serially",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-timestamp", action="store_true")
    _add_retriever_args(p)
    _add_limit_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reward", help="recompute reward breakdowns from outcome records")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("sim", help="toy policy training on a candidate pool")
    p.add_argument("--variant", choices=["cohort", "normal", "org"], default="cohort")
    p.add_argument("--updates", type=int, default=200)
    p.add_argument("--rollouts", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool", required=True)
    p.add_argument("--cohorts", required=True)
    p.add_argument("--facts", required=True)
    p.add_argument("--output", help="write the training log JSONL here")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("stats", help="rejection-rate table from trace files")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--labels", help="JSON map question -> category")
    p.add_argument("--default-category", default="uncategorized")
    p.add_argument("--output")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="render JSON reports as text tables")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OSError, SchemaError, ParseError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
