"""Single entry point wiring all modules: validate, check, exec, eval,
reward, sim, stats, report."""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import closing, nullcontext, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from typing import Iterator
from urllib.parse import urlsplit

from . import __version__
from .data_model import (NUMBER, CohortInstance, SchemaError, check_keys, load_cohorts,
                         read_jsonl, validate_cohort)
from .dsl import ParseError, check_program, parse_program
from .evaluation import EvalCriterion, evaluate, rejection_stats
from .retriever import (
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


_BATCH_TYPES = {"cohort_id": str, "sample_index": int, "source": str}
_OUTCOME_TYPES = {"n_correct": int, "n_calls": int, "n_rejected": int}
_TRACE_TYPES = {"q": str, "outcome": str}  # a retrieve event


def _read_batch(path: str) -> Iterator[dict]:
    """The records of a program batch; a repeated (cohort_id, sample_index)
    is a SchemaError."""
    first_lines: dict[tuple[str, int], int] = {}

    def record(obj: dict, line: int) -> dict:
        tag = (obj["cohort_id"], obj["sample_index"])
        first = first_lines.setdefault(tag, line)
        if first != line:
            raise SchemaError(f"sample {tag[0]}#{tag[1]} repeats line {first}")
        return obj

    return read_jsonl(path, record, _BATCH_TYPES)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(str(exc), path=path) from exc


def _read_json_object(path: str) -> dict:
    try:
        data = json.loads(_read_text(path))
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
    source = _read_text(args.program)
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
    return EXIT_BACKEND if result.backend_failed else EXIT_OK


def cmd_eval(args, parser) -> int:
    if args.k < 1:
        parser.error("--k must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    limits = _make_limits(args, parser)
    cohorts = _cohorts_by_id(args.cohorts)
    batch = list(_read_batch(args.programs))
    # the mock is GIL-bound: threads would only add overhead
    jobs = 1 if args.retriever == "mock" else args.jobs
    with closing(_make_retriever(args, parser)) as retriever:
        rows, accuracy = evaluate(cohorts, batch, retriever, EvalCriterion(args.criterion),
                                  args.k, limits, jobs)
    if not rows:
        print("eval: no programs to evaluate", file=sys.stderr)
        return EXIT_FAILURE

    accuracy = None if accuracy is None else accuracy.to_json()
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
    """Render the `rejection` object that `rejection_stats` returns."""
    lines = [f"{'Category':<40}{'Rejection Rate(%)':>18}"]
    for category, entry in [*rejection["per_category"].items(), ("Overall", rejection["overall"])]:
        lines.append(f"{category:<40}{entry['rate'] * 100:>18.1f}")
    return "\n".join(lines)


def _reward_record(obj: dict, line: int) -> dict:
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
    text = "".join(_dump(record) + "\n" for record in read_jsonl(
        args.outcomes, _reward_record, _OUTCOME_TYPES))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_sim(args, parser) -> int:
    from .sim import ToyTrainConfig, UpdateRecord, toy_training_updates

    try:
        config = ToyTrainConfig(rollouts_per_update=args.rollouts, updates=args.updates,
                                learning_rate=args.lr, mode=args.variant, seed=args.seed)
    except ValueError as exc:
        parser.error(f"--rollouts, --updates, --lr, --seed: {exc}")
    cohorts = load_cohorts(args.cohorts)
    if not cohorts:
        raise SchemaError("no cohorts", path=args.cohorts)
    # the pool is parsed against the first cohort's header, so every cohort
    # must take the same parameter names and kinds, as run_cohort requires
    first = cohorts[0].template
    for cohort in cohorts:
        if cohort.template.signature != first.signature:
            raise SchemaError(
                f"cohort {cohort.cohort_id!r} header {cohort.template.function_header!r} "
                f"does not match the first cohort's header {first.function_header!r}", path=args.cohorts)
    retriever = MockRetriever(FactTable.from_jsonl(args.facts))

    def candidate(obj: dict, line: int) -> tuple:
        if "name" in obj:
            check_keys(obj, {"name": str})
        return line, obj, parse_program(obj["source"], first.function_header)

    candidates = list(read_jsonl(args.pool, candidate, {"source": str}))
    if not candidates:
        raise SchemaError("no candidate programs", path=args.pool)
    lines: dict[str, int] = {}  # candidate name -> its line, in pool order
    for i, (line, obj, _) in enumerate(candidates):
        name = obj.get("name", f"candidate-{i}")
        if lines.setdefault(name, line) != line:
            raise SchemaError(f"candidate name {name!r} repeats line {lines[name]}",
                              line=line, path=args.pool)
    names = list(lines)
    pool = [program for _, _, program in candidates]
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext() as out:
        if out is not None:
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
            encode = _line_encoder(UpdateRecord._fields)
        try:
            for record in toy_training_updates(config, pool, cohorts, retriever):
                if out is not None:
                    out.write(encode(record))
        except ValueError as exc:  # the policy diverged
            print(f"sim: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    finals = dict(zip(names, record.probabilities_after))  # config.updates >= 1
    print(_dump({"variant": args.variant, "final_probabilities": finals}))
    return EXIT_OK


def _line_encoder(fields: tuple[str, ...]):
    """A function from a record with these fields, which `to_json` keeps as
    keys, to `_dump(record.to_json()) + "\n"`. It re-encodes only the fields
    that differ from the previous record's. A field holding the very object
    the previous record held is skipped (fields are immutable, so it encodes
    to the same text). An exact `int` is written by `int.__repr__`, as json
    writes it. Any other value is re-encoded when marshal writes other bytes
    for it, which unlike == tells 0.0 from -0.0 and 1 from 1.0."""
    import marshal

    order = sorted(range(len(fields)), key=fields.__getitem__)
    heads = [("{" if n == 0 else ", ") + _dump(fields[i]) + ": " for n, i in enumerate(order)]
    values: list = [object()] * len(order)  # held, so no other object takes their id
    keys: list = [None] * len(order)
    parts = [""] * len(order) + ["}\n"]

    def encode(record) -> str:
        for n, i in enumerate(order):
            value = record[i]
            if value is values[n]:
                continue
            values[n] = value
            if type(value) is int:
                keys[n] = None
                parts[n] = heads[n] + int.__repr__(value)
                continue
            key = marshal.dumps(value, 2)  # 2: no back-references, which follow refcounts
            if key != keys[n]:
                keys[n] = key
                parts[n] = heads[n] + _dump(value)
        return "".join(parts)

    return encode


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

    events = [event for path in args.traces
              for event in read_jsonl(path, lambda event, line: event, _TRACE_TYPES)]
    try:
        data = rejection_stats(events, label)
    except ValueError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(_rejection_table(data))
    if args.output:
        report = _base_report(args)
        report.update(rejection=data)
        Path(args.output).write_text(_dump(report) + "\n", encoding="utf-8")
    return EXIT_OK


# what `report` reads of a report; "*" stands for every key of an object
_ACCURACY_STATS = {"pass_rate": NUMBER, "ci_halfwidth": NUMBER, "n": int}
_REPORT_TYPES = {
    "config": {"criterion": str},
    "accuracy": {"per_domain": {"*": _ACCURACY_STATS}, "overall": _ACCURACY_STATS},
    "rejection": {"per_category": {"*": {"rate": NUMBER}}, "overall": {"rate": NUMBER}},
}


def cmd_report(args, parser) -> int:
    for path in args.inputs:
        data = _read_json_object(path)
        # a report may leave out its config and the criterion, and leave out
        # either table or set it to null
        config = data.get("config", {})
        shown = {"config": {"criterion": "accuracy", **config} if type(config) is dict else config}
        shown.update((key, data[key]) for key in ("accuracy", "rejection")
                     if data.get(key) is not None)
        try:
            check_keys(shown, {key: _REPORT_TYPES[key] for key in shown})
        except SchemaError as exc:
            raise SchemaError(exc.message, exc.field_path, path=path) from None
        print(f"== {path} ==")
        if "accuracy" in shown:
            print(_accuracy_table(shown["accuracy"], shown["config"]["criterion"]))
        if "rejection" in shown:
            print(_rejection_table(shown["rejection"]))
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

    for p in sub.choices.values():  # a command's usage errors name it
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # stdout is held until the command returns: an input error leaves it empty
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = args.func(args, args.parser)
        sys.stdout.write(out.getvalue())  # a closed pipe here is an OSError too
        return code
    except (OSError, SchemaError, ParseError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
