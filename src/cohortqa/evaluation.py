"""Cohort execution test: per-member outcomes, strict/lenient criteria,
self-consistency aggregation, and accuracy/rejection statistics."""

from __future__ import annotations

import math
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .data_model import CohortInstance
from .dsl import Program, format_header
from .retriever import OUTCOME_REJECTED
from .reward import CohortExecutionSummary
from .runtime import STATUS_ANSWERED, ExecutionLimits, ExecutionResult, RetrieveEvent, execute

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

    @classmethod
    def from_result(cls, result: ExecutionResult, gold_index: int) -> "MemberOutcome":
        if result.status == STATUS_ANSWERED:
            return cls(result.answer, result.answer == gold_index, result.was_rejected)
        return cls(None, False, result.was_rejected)


@dataclass(frozen=True)
class CohortOutcome:
    cohort_id: str
    members: tuple[MemberOutcome, ...]  # original first
    summary: CohortExecutionSummary
    traces: tuple[tuple[RetrieveEvent, ...], ...] = ()

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


def _outcome(cohort: CohortInstance, results: Sequence[ExecutionResult]) -> CohortOutcome:
    members = tuple(
        MemberOutcome.from_result(result, member.gold_index)
        for result, member in zip(results, cohort.members)
    )
    summary = CohortExecutionSummary(
        n_correct=sum(m.correct for m in members),
        n_calls=results[0].dynamic_retrieve_count,
        n_rejected=sum(m.rejected for m in members),
    )
    return CohortOutcome(
        cohort_id=cohort.cohort_id,
        members=members,
        summary=summary,
        traces=tuple(r.trace for r in results),
    )


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
    over samples.
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
                correct=consensus is not None and consensus == member.gold_index,
                rejected=any(s.members[index].rejected for s in samples),
            )
        )
    members = tuple(members)
    summary = CohortExecutionSummary(
        n_correct=sum(m.correct for m in members),
        n_calls=max(s.summary.n_calls for s in samples),
        n_rejected=sum(m.rejected for m in members),
    )
    return CohortOutcome(cohort_id=cohort.cohort_id, members=members, summary=summary)


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


@dataclass(frozen=True)
class RejectionStats:
    per_category: Mapping[str, tuple[int, int]]  # category -> (rejected, total)

    @property
    def overall(self) -> tuple[int, int]:
        rejected = sum(r for r, _ in self.per_category.values())
        total = sum(t for _, t in self.per_category.values())
        return rejected, total

    def to_json(self) -> dict:
        out = {
            category: {"rejected": r, "total": t, "rate": r / t}
            for category, (r, t) in sorted(self.per_category.items())
        }
        rejected, total = self.overall
        return {"per_category": out,
                "overall": {"rejected": rejected, "total": total, "rate": rejected / total}}


def rejection_stats(traces: Iterable[dict], label: Callable[[str], str]) -> RejectionStats:
    """Per-category rejection rates over the JSON form of retrieve events."""
    counts: dict[str, list[int]] = {}
    for event in traces:
        bucket = counts.setdefault(label(event["q"]), [0, 0])
        bucket[1] += 1
        bucket[0] += event["outcome"] == OUTCOME_REJECTED
    if not counts:
        raise ValueError("no events")
    return RejectionStats(per_category={c: (r, t) for c, (r, t) in counts.items()})
