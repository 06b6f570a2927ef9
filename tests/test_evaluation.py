import sys
import threading
import time

import pytest

from cohortqa.data_model import (
    AbstractionTemplate,
    CohortInstance,
    QuestionVariant,
    instantiate_template,
)
from cohortqa.dsl import ValueKind, parse_program
from cohortqa.evaluation import (
    LENIENT_CRITERION,
    STRICT_CRITERION,
    CohortOutcome,
    EvalCriterion,
    MemberOutcome,
    aggregate,
    apply_criterion,
    rejection_stats,
    run_cohort,
    run_cohorts,
    self_consistency,
    wald_halfwidth,
)
from cohortqa.retriever import FactEntry, FactTable, MockRetriever, normalize_question
from cohortqa.reward import CohortExecutionSummary

HEADER = "def answer(X: str) -> int"

ENTITIES = ["Apollo", "Zeus", "Hera", "Ares", "Hermes", "Athena"]
REALITY = [True, False, True, True, False, True]


def _cohort():
    template = AbstractionTemplate(
        template_id="t", masked_question="Is {X} real?", parameter_names=("X",),
        options=("No", "Yes"), function_header=HEADER, domain_tag="other",
    )
    members = [
        QuestionVariant(
            bindings={"X": e},
            question_text=instantiate_template(template, {"X": e}),
            gold_index=int(real),
        )
        for e, real in zip(ENTITIES, REALITY)
    ]
    return CohortInstance(
        cohort_id="pantheon", template=template,
        original=members[0], variants=tuple(members[1:]),
    )


def _retr(missing=()):
    entries = {
        normalize_question(f"Is {e} real?"): FactEntry(ValueKind.BOOL, real)
        for e, real in zip(ENTITIES, REALITY)
        if e not in missing
    }
    return MockRetriever(FactTable(entries))


def _prog(body):
    indented = "\n".join("    " + line for line in body.strip().split("\n"))
    return parse_program(f"{HEADER}:\n{indented}\n", HEADER)


LOOKUP = _prog(
    'real = retrieve(f"Is {X} real?", bool)\n'
    'near = retrieve(f"Is {X} real?", bool)\n'
    "if real:\n    return 1\nreturn 0"
)
ALWAYS_YES = _prog("return 1")
ALWAYS_NO = _prog("return 0")
ALWAYS_FAILS = _prog("v = 0 - 1\nreturn v")


def test_run_cohort_perfect_program():
    outcome = run_cohort(LOOKUP, _cohort(), _retr())
    assert outcome.n_correct == 6
    assert outcome.n_rejected == 0
    assert outcome.summary.n_calls == 2  # dynamic calls on the original member
    assert apply_criterion(outcome, STRICT_CRITERION)


def test_run_cohort_shortcut_program():
    outcome = run_cohort(ALWAYS_YES, _cohort(), _retr())
    assert outcome.n_correct == 4  # matches every gold=1 member
    assert outcome.summary.n_calls == 0
    assert not apply_criterion(outcome, STRICT_CRITERION)
    assert apply_criterion(outcome, LENIENT_CRITERION)


def test_run_cohort_counts_rejected_members_not_calls():
    # Apollo's fact is withheld: both retrieves on that member are rejected,
    # but n_rejected counts members with at least one rejection
    outcome = run_cohort(LOOKUP, _cohort(), _retr(missing=("Apollo",)))
    assert outcome.members[0].rejected
    assert outcome.n_rejected == 1
    assert outcome.n_correct == 5  # default False answers 0 against gold 1


def test_run_cohort_signature_mismatch_raises():
    other = parse_program("def answer(Y: str) -> int:\n    return 0\n",
                          "def answer(Y: str) -> int")
    with pytest.raises(ValueError):
        run_cohort(other, _cohort(), _retr())


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("header", ["def answer(Y: str) -> int", "def answer(X: int) -> int"])
def test_run_cohorts_rejects_other_parameter_names_or_kinds(header, jobs):
    other = parse_program(f"{header}:\n    return 0\n", header)
    with pytest.raises(ValueError) as excinfo:
        list(run_cohorts([(_cohort(), (LOOKUP, other))], _retr(), jobs=jobs))
    assert str(excinfo.value) == (
        f"program header {header!r} does not match template header {HEADER!r}"
    )


def test_run_cohort_parallel_matches_serial():
    serial = run_cohort(LOOKUP, _cohort(), _retr(missing=("Zeus",)))
    [(parallel,)] = run_cohorts([(_cohort(), [LOOKUP])], _retr(missing=("Zeus",)), jobs=4)
    assert serial.members == parallel.members
    assert serial.summary == parallel.summary


class _SlowRetriever:
    """Answers like `inner` after a short, question-dependent sleep, so pool
    workers finish out of order; records the peak number of calls in flight."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def retrieve(self, request):
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(0.001 * (len(request.question) % 3))
            return self.inner.retrieve(request)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_run_cohorts_pool_matches_serial_in_input_order():
    programs = [LOOKUP, ALWAYS_YES, ALWAYS_FAILS, LOOKUP, ALWAYS_NO] * 3
    # groups of 1, 3 and 5 programs: a group of 3 or 5 holds more member
    # executions than the 2 * jobs queued ahead
    groups, start = [], 0
    for size in (1, 3, 5, 1, 5):
        groups.append((_cohort(), programs[start:start + size]))
        start += size
    serial = list(run_cohorts(groups, _retr(missing=("Hera",)), jobs=1))
    slow = _SlowRetriever(_retr(missing=("Hera",)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches, more interleavings
    try:
        pooled = list(run_cohorts(groups, slow, jobs=3))
    finally:
        sys.setswitchinterval(interval)
    assert [len(group) for group in pooled] == [1, 3, 5, 1, 5]
    pooled = [o for group in pooled for o in group]
    serial = [o for group in serial for o in group]
    assert [o.members for o in pooled] == [o.members for o in serial]
    assert [o.summary for o in pooled] == [o.summary for o in serial]
    assert [o.traces for o in pooled] == [o.traces for o in serial]
    assert 1 < slow.max_in_flight <= 3


def test_run_cohorts_draws_groups_lazily():
    drawn = []

    def groups():
        for index in range(1000):
            drawn.append(index)
            yield _cohort(), [LOOKUP]

    for jobs in (1, 2, 8):
        drawn.clear()
        outcomes = run_cohorts(groups(), _SlowRetriever(_retr()), jobs=jobs)
        assert next(outcomes)[0].n_correct == 6
        # about 2 * jobs member executions (6 per group of 1) are queued ahead
        assert len(drawn) <= 2 * jobs // 6 + 2
        outcomes.close()


# --- criteria -------------------------------------------------------------

def test_criterion_truth_table():
    for n_correct in range(7):
        outcome = CohortOutcome(
            cohort_id="c", members=(),
            summary=CohortExecutionSummary(n_correct, 0, 0),
        )
        assert apply_criterion(outcome, STRICT_CRITERION) == (n_correct >= 5)
        assert apply_criterion(outcome, LENIENT_CRITERION) == (n_correct >= 4)
        # strict pass implies lenient pass
        if apply_criterion(outcome, STRICT_CRITERION):
            assert apply_criterion(outcome, LENIENT_CRITERION)


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        EvalCriterion("fuzzy")


# --- self-consistency -----------------------------------------------------

def test_self_consistency_majority_wins():
    outcome = self_consistency([LOOKUP, LOOKUP, ALWAYS_NO], _cohort(), _retr())
    assert outcome.n_correct == 6


def test_self_consistency_tie_counts_incorrect():
    outcome = self_consistency([ALWAYS_YES, ALWAYS_NO], _cohort(), _retr())
    assert outcome.n_correct == 0
    assert all(m.answered_index is None for m in outcome.members)


def test_self_consistency_failures_excluded_from_vote():
    outcome = self_consistency([LOOKUP, ALWAYS_FAILS, ALWAYS_FAILS], _cohort(), _retr())
    assert outcome.n_correct == 6


def test_self_consistency_all_failures_incorrect():
    outcome = self_consistency([ALWAYS_FAILS, ALWAYS_FAILS], _cohort(), _retr())
    assert outcome.n_correct == 0


def test_self_consistency_rejection_is_any_sample():
    outcome = self_consistency([LOOKUP, ALWAYS_YES], _cohort(), _retr(missing=("Hera",)))
    rejected_members = [m.rejected for m in outcome.members]
    assert rejected_members == [False, False, True, False, False, False]
    assert outcome.n_rejected == 1


def test_self_consistency_rejections_count_members():
    # one sample rejects Hera, the other Zeus: two members were rejected,
    # though no single sample rejected more than one
    entries = {}
    for entity, real in zip(ENTITIES, REALITY):
        if entity != "Hera":
            entries[normalize_question(f"Is {entity} real?")] = FactEntry(ValueKind.BOOL, real)
        if entity != "Zeus":
            entries[normalize_question(f"Was {entity} real?")] = FactEntry(ValueKind.BOOL, real)
    was = _prog('real = retrieve(f"Was {X} real?", bool)\nif real:\n    return 1\nreturn 0')
    outcome = self_consistency([LOOKUP, was], _cohort(), MockRetriever(FactTable(entries)))
    assert [m.rejected for m in outcome.members] == [False, True, True, False, False, False]
    assert outcome.n_rejected == 2 == sum(m.rejected for m in outcome.members)


def test_self_consistency_requires_programs():
    with pytest.raises(ValueError):
        self_consistency([], _cohort(), _retr())


# --- statistics -----------------------------------------------------------

def test_wald_halfwidth_formula():
    import math

    for p, n in [(0.5, 100), (0.19, 500), (0.0, 10), (1.0, 7)]:
        assert wald_halfwidth(p, n) == pytest.approx(
            1.96 * math.sqrt(p * (1 - p) / n), abs=1e-12
        )


def test_aggregate_per_domain_and_overall():
    outcomes = [("a", True)] * 3 + [("a", False)] + [("b", True)] * 2
    report = aggregate(outcomes)
    assert report.per_domain["a"].pass_rate == pytest.approx(0.75)
    assert report.per_domain["a"].n == 4
    assert report.per_domain["b"].pass_rate == 1.0
    assert report.overall.pass_rate == pytest.approx(5 / 6)
    assert report.overall.n == 6


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


def test_rejection_stats_from_dicts():
    events = [
        {"q": "Is Apollo real?", "outcome": "rejected"},
        {"q": "Is Zeus real?", "outcome": "value"},
        {"q": "Who wrote the Iliad?", "outcome": "value"},
    ]
    labels = {"is apollo real": "myth", "is zeus real": "myth"}
    stats = rejection_stats(
        events, lambda q: labels.get(normalize_question(q), "other")
    )
    assert stats.per_category["myth"] == (1, 2)
    assert stats.per_category["other"] == (0, 1)
    assert stats.overall == (1, 3)
    rates = stats.to_json()
    assert rates["per_category"]["myth"]["rate"] == pytest.approx(0.5)
    assert rates["overall"]["rate"] == pytest.approx(1 / 3)


def test_rejection_stats_from_trace_events():
    outcome = run_cohort(LOOKUP, _cohort(), _retr(missing=("Apollo",)))
    events = [e.to_json() for trace in outcome.traces for e in trace]
    stats = rejection_stats(events, lambda q: "all")
    assert stats.per_category["all"] == (2, 12)


def test_rejection_stats_empty_raises():
    with pytest.raises(ValueError):
        rejection_stats([], lambda q: "all")
