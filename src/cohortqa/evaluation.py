"""Cohort execution test: per-member outcomes, strict/lenient criteria,
self-consistency aggregation, the `eval` run, and accuracy/rejection
statistics."""

from __future__ import annotations

import math
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .data_model import CohortInstance, SchemaError
from .dsl import ParseError, Program, format_header, parse_program
from .retriever import OUTCOME_REJECTED
from .reward import CohortExecutionSummary
from .runtime import ExecutionLimits, ExecutionResult, RetrieveEvent, execute

STRICT = "strict"
LENIENT = "lenient"

_THRESHOLDS = {STRICT: 5, LENIENT: 4}

Z_95 = 1.96  # normal quantile of the Wald 95% halfwidths


@dataclass(frozen=True)
class EvalCriterion:
    kind: str

    def __post_init__(self):
        if self.kind not in _THRESHOLDS:
            raise ValueError(f"unknown criterion {self.kind!r}")

    @property
    def threshold(self) -> int:
        return _THRESHOLDS[self.kind]


STRICT_CRITERION = EvalCriterion(STRICT)
LENIENT_CRITERION = EvalCriterion(LENIENT)


class MemberOutcome(NamedTuple):
    answered_index: Optional[int]
    correct: bool
    rejected: bool


@dataclass(frozen=True)
class CohortOutcome:
    cohort_id: str
    members: tuple[MemberOutcome, ...]  # original first
    summary: CohortExecutionSummary
    traces: tuple[tuple[RetrieveEvent, ...], ...] = ()
    backend_errors: int = 0  # member executions that a failed lookup ended

    @property
    def n_correct(self) -> int:
        return self.summary.n_correct

    @property
    def n_rejected(self) -> int:
        return self.summary.n_rejected


def _check_signatures(cohort: CohortInstance, programs: Sequence[Program]) -> None:
    """Each program must take the template's parameter names and kinds, in order."""
    for program in programs:
        if program.params != cohort.template.signature:
            raise ValueError(f"program header {format_header(program.params)!r} does not match "
                             f"template header {cohort.template.function_header!r}")


def _cohort_outcome(cohort_id: str, members: tuple[MemberOutcome, ...], n_calls: int,
                    backend_errors: int, traces: tuple = ()) -> CohortOutcome:
    """The one maker of CohortOutcomes: the summary counts its own members."""
    summary = CohortExecutionSummary(
        n_correct=sum(m.correct for m in members),
        n_calls=n_calls,
        n_rejected=sum(m.rejected for m in members),
    )
    return CohortOutcome(cohort_id, members, summary, traces, backend_errors)


def _outcome(cohort: CohortInstance, results: Sequence[ExecutionResult]) -> CohortOutcome:
    members = tuple(
        MemberOutcome(result.answer, result.answer == member.gold_index, result.was_rejected)
        for result, member in zip(results, cohort.members)
    )
    return _cohort_outcome(cohort.cohort_id, members, results[0].dynamic_retrieve_count,
                           sum(r.backend_failed for r in results), tuple(r.trace for r in results))


def run_cohorts(
    groups: Iterable[tuple[CohortInstance, Sequence[Program]]],
    retriever,
    limits: ExecutionLimits = ExecutionLimits(),
    jobs: int = 1,
) -> Iterator[tuple[CohortOutcome, ...]]:
    """Execute each program of a (cohort, programs) group independently on
    all 6 members of the cohort.

    This one grouped stream serves `eval`, `sim` (through `run_cohort`) and
    self-consistency. It yields one tuple of outcomes per group, one outcome
    per program, in input order. At jobs <= 1 everything runs serially in
    the caller's thread. Otherwise member executions go to one pool of
    `jobs` threads for the whole run: groups are drawn lazily, keeping about
    2 * jobs member executions submitted ahead of the consumer, so outcomes
    stream instead of piling up. Fan out only for I/O-bound retrievers;
    CPU-bound ones gain nothing under the GIL.

    n_calls in each summary is the dynamic retrieve count on the original
    member; each member queries the retriever independently.
    """
    if jobs <= 1:
        for cohort, programs in groups:
            _check_signatures(cohort, programs)
            yield tuple(
                _outcome(cohort, [execute(program, m.bindings, retriever, limits)
                                  for m in cohort.members])
                for program in programs
            )
        return
    pool = ThreadPoolExecutor(max_workers=jobs)
    ahead: deque = deque()  # (cohort, member futures per program), oldest first
    source = iter(groups)

    def top_up() -> None:
        while sum(len(f) for _, per_program in ahead for f in per_program) < 2 * jobs:
            group = next(source, None)
            if group is None:
                return
            cohort, programs = group
            _check_signatures(cohort, programs)
            ahead.append((cohort, [
                [pool.submit(execute, program, m.bindings, retriever, limits)
                 for m in cohort.members]
                for program in programs
            ]))

    try:
        top_up()
        while ahead:
            cohort, per_program = ahead.popleft()
            top_up()  # queue the next groups before waiting on this one
            yield tuple(_outcome(cohort, [f.result() for f in futures]) for futures in per_program)
    finally:
        pool.shutdown(cancel_futures=True)


def run_cohort(
    program: Program,
    cohort: CohortInstance,
    retriever,
    limits: ExecutionLimits = ExecutionLimits(),
) -> CohortOutcome:
    """Execute the program on all 6 members: run_cohorts over one group of one."""
    return next(run_cohorts([(cohort, (program,))], retriever, limits))[0]


def apply_criterion(outcome: CohortOutcome, criterion: EvalCriterion) -> bool:
    return outcome.n_correct >= criterion.threshold


def vote(samples: Sequence[CohortOutcome], cohort: CohortInstance) -> CohortOutcome:
    """Majority vote per member over the outcomes of k sampled programs.

    Failures are excluded from voting; a tie or all-failures member counts
    as incorrect. A member is rejected if any sample's execution on it was
    rejected, and the consensus n_rejected counts those members, so it
    always equals sum(m.rejected for m in members). n_calls takes the max
    over samples, and backend_errors their sum.
    """
    if not samples:
        raise ValueError("need at least one program")
    members = []
    for index, member in enumerate(cohort.members):
        votes = Counter(
            s.members[index].answered_index
            for s in samples
            if s.members[index].answered_index is not None
        )
        consensus = _majority(votes)
        members.append(
            MemberOutcome(
                answered_index=consensus,
                correct=consensus == member.gold_index,
                rejected=any(s.members[index].rejected for s in samples),
            )
        )
    return _cohort_outcome(cohort.cohort_id, tuple(members),
                           max(s.summary.n_calls for s in samples),
                           sum(s.backend_errors for s in samples))


def self_consistency(
    programs: Sequence[Program],
    cohort: CohortInstance,
    retriever,
    limits: ExecutionLimits = ExecutionLimits(),
) -> CohortOutcome:
    """Run k sampled programs on the cohort as one run_cohorts group, then
    `vote` over them, as `eval --k` does."""
    return vote(next(run_cohorts([(cohort, programs)], retriever, limits)), cohort)


def _majority(votes: Counter) -> Optional[int]:
    if not votes:
        return None
    ranked = votes.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return None  # tie-break toward incorrect
    return ranked[0][0]


class DomainStats(NamedTuple):
    pass_rate: float
    ci_halfwidth: float
    n: int


@dataclass(frozen=True)
class AccuracyReport:
    per_domain: Mapping[str, DomainStats]
    overall: DomainStats

    def to_json(self) -> dict:
        return {
            "z": Z_95,
            "overall": self.overall._asdict(),
            "per_domain": {d: s._asdict() for d, s in sorted(self.per_domain.items())},
        }


def wald_halfwidth(pass_rate: float, n: int) -> float:
    return Z_95 * math.sqrt(pass_rate * (1.0 - pass_rate) / n)


def _stats(passes: int, n: int) -> DomainStats:
    rate = passes / n
    return DomainStats(pass_rate=rate, ci_halfwidth=wald_halfwidth(rate, n), n=n)


def aggregate(outcomes: Iterable[tuple[str, bool]]) -> AccuracyReport:
    """Per-domain and overall pass rates with Wald 95% halfwidths."""
    passes: Counter = Counter()
    totals: Counter = Counter()
    for domain, passed in outcomes:
        totals[domain] += 1
        passes[domain] += bool(passed)
    if not totals:
        raise ValueError("no outcomes to aggregate")
    per_domain = {d: _stats(passes[d], totals[d]) for d in totals}
    return AccuracyReport(
        per_domain=per_domain, overall=_stats(sum(passes.values()), sum(totals.values()))
    )


def evaluate(
    cohorts: Mapping[str, CohortInstance],
    batch: Iterable[Mapping],
    retriever,
    criterion: EvalCriterion,
    k: int = 1,
    limits: ExecutionLimits = ExecutionLimits(),
    jobs: int = 1,
) -> tuple[list[dict], Optional[AccuracyReport]]:
    """The `eval` run: one report row per cohort of a batch, in cohort-id
    order, and the accuracy over the rows without backend errors, or None.

    Each cohort votes over its first `k` records by `sample_index`. An
    unknown cohort or a sample that does not parse is a SchemaError. The
    pool is joined before this returns or raises, so the caller may then
    close the retriever.
    """
    by_cohort: dict[str, list[Mapping]] = {}
    for record in batch:
        by_cohort.setdefault(record["cohort_id"], []).append(record)

    def groups():
        for cohort_id in sorted(by_cohort):
            cohort = cohorts.get(cohort_id)
            if cohort is None:
                raise SchemaError(f"unknown cohort {cohort_id!r}")
            sources = [r["source"] for r in
                       sorted(by_cohort[cohort_id], key=lambda r: r["sample_index"])[:k]]
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
    with closing(run_cohorts(groups(), retriever, limits, jobs)) as outcomes:
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
                "backend_errors": outcome.backend_errors,
            })
    # a cohort whose lookups failed says nothing about the programs
    scored = [(row["domain"], row["passed"]) for row in rows if not row["backend_errors"]]
    return rows, aggregate(scored) if scored else None


def _rate(rejected: int, total: int) -> dict:
    return {"rejected": rejected, "total": total, "rate": rejected / total}


def rejection_stats(traces: Iterable[dict], label: Callable[[str], str]) -> dict:
    """Per-category and overall rejection rates over the JSON form of
    retrieve events: the `rejection` object of a `stats` report."""
    counts: dict[str, list[int]] = {}
    for event in traces:
        bucket = counts.setdefault(label(event["q"]), [0, 0])
        bucket[1] += 1
        bucket[0] += event["outcome"] == OUTCOME_REJECTED
    if not counts:
        raise ValueError("no events")
    overall = _rate(sum(r for r, _ in counts.values()), sum(t for _, t in counts.values()))
    return {"per_category": {c: _rate(r, t) for c, (r, t) in sorted(counts.items())},
            "overall": overall}
