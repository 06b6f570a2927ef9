import pytest

from cohortqa.data_model import load_cohorts
from cohortqa.dsl import ValueKind, parse_program
from cohortqa.evaluation import MemberOutcome
from cohortqa.retriever import (
    OUTCOME_ERROR,
    OUTCOME_VALUE,
    FactEntry,
    FactTable,
    MockRetriever,
    RetrieveRequest,
    RetrieveResponse,
)
from cohortqa.reward import GroupAdvantages
from cohortqa.runtime import (
    KIND_DEFAULTS,
    STATUS_ANSWERED,
    STATUS_FAILURE,
    STATUS_LIMIT,
    LIMIT_LIST,
    LIMIT_RETRIEVES,
    LIMIT_STEPS,
    ExecutionLimits,
    ExecutionResult,
    RetrieveEvent,
    execute,
    render_value,
)
from cohortqa.sim import UpdateRecord

HEADER = "def answer(X: str, Y: str) -> int"


def prog(body: str, header: str = HEADER):
    indented = "\n".join("    " + line for line in body.strip("\n").split("\n"))
    return parse_program(f"{header}:\n{indented}\n", header)


def table(facts: dict) -> MockRetriever:
    entries = {
        q: FactEntry(kind=ValueKind.from_name(kind), value=value)
        for q, (kind, value) in facts.items()
    }
    return MockRetriever(FactTable(entries))


class ErrorRetriever:
    def retrieve(self, request):
        return RetrieveResponse(OUTCOME_ERROR, None, "backend down")


EMPTY = table({})

CONJUNCTION = prog(
    'a = retrieve(f"Is {X} real?", bool)\n'
    'b = retrieve(f"Is {Y} real?", bool)\n'
    "if a and b:\n    return 1\nelse:\n    return 0"
)


def test_conjunction_both_true():
    retr = table({"is apollo real": ("bool", True), "is zeus real": ("bool", True)})
    result = execute(CONJUNCTION, {"X": "Apollo", "Y": "Zeus"}, retr)
    assert result.status == STATUS_ANSWERED
    assert result.answer == 1
    assert result.dynamic_retrieve_count == 2
    assert not result.was_rejected


def test_rejected_retrieve_defaults_and_continues():
    # only the second fact exists: the first call is rejected and yields
    # False, so the conjunction answers 0 while flagging the rejection
    retr = table({"is zeus real": ("bool", True)})
    result = execute(CONJUNCTION, {"X": "Apollo", "Y": "Zeus"}, retr)
    assert result.status == STATUS_ANSWERED
    assert result.answer == 0
    assert result.was_rejected
    assert result.dynamic_retrieve_count == 2
    assert result.trace[0].outcome == "rejected"
    assert result.trace[1].outcome == "value"


def test_backend_error_is_runtime_failure_not_rejection():
    result = execute(CONJUNCTION, {"X": "a", "Y": "b"}, ErrorRetriever())
    assert result.status == STATUS_FAILURE
    assert not result.was_rejected
    assert result.trace[0].outcome == "error"


def test_kind_defaults_cover_all_kinds():
    assert KIND_DEFAULTS[ValueKind.BOOL] is False
    assert KIND_DEFAULTS[ValueKind.INT] == 0
    assert KIND_DEFAULTS[ValueKind.FLOAT] == 0.0
    assert KIND_DEFAULTS[ValueKind.STR] == ""
    assert list(KIND_DEFAULTS[ValueKind.LIST]) == []


def test_question_rendering_uses_runtime_values():
    retr = table({
        "who is in rome": ("list", ["Livia", "Julia"]),
        "is livia, julia a pair": ("bool", True),
    })
    p = prog(
        'people = retrieve(f"Who is in {X}?", list)\n'
        'ok = retrieve(f"Is {people} a pair?", bool)\n'
        "if ok:\n    return 1\nreturn 0"
    )
    result = execute(p, {"X": "Rome", "Y": "unused"}, retr)
    assert result.answer == 1
    assert result.trace[1].rendered_question == "Is Livia, Julia a pair?"


# x doubled 2400 times, to 723 digits
_DOUBLED = f"x = 1\nfor a in {list(range(40))}:\n    for b in {list(range(60))}:\n        x = x + x\n"


@pytest.mark.parametrize("tail", [
    'q = retrieve(f"Is {x} big?", bool)\nreturn 0',  # in a question
    "return x",  # as the answer
    "if x:\n    return 1\nreturn 0",  # in the reason that x is not a bool
])
def test_an_int_past_the_digit_limit_written_as_text_is_a_runtime_failure(tail, int_digits_640):
    result = execute(prog(_DOUBLED + tail), {"X": "a", "Y": "b"}, EMPTY,
                     ExecutionLimits(max_steps=20_000))
    assert result.status == STATUS_FAILURE
    assert result.failure_reason.startswith(
        "an int too long to write as text: Exceeds the limit (640 digits)")
    assert result.trace == ()


def test_unbound_name_in_retrieve_question_fails_before_the_lookup():
    p = prog('if X == Y:\n    v = "a"\nq = retrieve(f"Is {v} ok?", bool)\nreturn 0')
    result = execute(p, {"X": "a", "Y": "b"}, EMPTY)
    assert result.status == STATUS_FAILURE
    assert result.failure_reason == "unbound name 'v' in retrieve question"
    assert result.trace == ()



@pytest.mark.parametrize("body, reason", [
    ("if X:\n    return 1\nreturn 0", "if condition is not a bool: 'a'"),
    ("v = not X\nreturn 0", "operand of not is not a bool: 'a'"),
    ("v = -X\nreturn 0", "operand of unary minus is not a number: 'a'"),
    ("v = X and True\nreturn 0", "left operand of and is not a bool: 'a'"),
    ("v = False or Y\nreturn 0", "right operand of or is not a bool: 'b'"),
    ("v = X < 1\nreturn 0", "left operand of < is not a number: 'a'"),
    ("v = 1 >= Y\nreturn 0", "right operand of >= is not a number: 'b'"),
    ("v = 1 + X\nreturn 0", "right operand of + is not a number: 'a'"),
    ("v = True - 1\nreturn 0", "left operand of - is not a number: True"),
    ("if X == Y:\n    v = []\nv.append(1)\nreturn 0", "unbound name 'v'"),
    ("v = 1\nv.append(1)\nreturn 0", "append target 'v' is not a list"),
])
def test_failure_reasons_name_what_failed(body, reason):
    result = execute(prog(body), {"X": "a", "Y": "b"}, EMPTY)
    assert (result.status, result.failure_reason) == (STATUS_FAILURE, reason)


@pytest.mark.parametrize("op, answers", [
    ("<", (1, 0, 0)), ("<=", (1, 1, 0)), (">", (0, 0, 1)), (">=", (0, 1, 1)),
])
def test_comparisons(op, answers):
    for (left, right), answer in zip(((1, 2), (2, 2.0), (3, 2)), answers):
        p = prog(f"if {left} {op} {right}:\n    return 1\nreturn 0")
        assert execute(p, {"X": "a", "Y": "b"}, EMPTY).answer == answer, (left, op, right)

def test_unbound_name_in_expression_fails():
    p = prog("if X == Y:\n    v = 1\nreturn v")
    result = execute(p, {"X": "a", "Y": "b"}, EMPTY)
    assert result.status == STATUS_FAILURE
    assert result.failure_reason == "unbound name 'v'"


def test_render_value_canonical_forms():
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value(3) == "3"
    assert render_value(2.5) == "2.5"
    assert render_value("text") == "text"
    assert render_value(["a", 1, True]) == "a, 1, true"


def test_bindings_coerced_to_param_kinds():
    header = "def answer(N: int, F: float, B: bool) -> int"
    p = prog(
        'x = retrieve(f"Is {N} {F} {B} ok?", bool)\n'
        "if B:\n    return N\nreturn 0",
        header=header,
    )
    retr = table({"is 3 2.5 true ok": ("bool", True)})
    result = execute(p, {"N": "3", "F": "2.5", "B": "true"}, retr)
    assert result.answer == 3


def test_uncoercible_binding_fails():
    header = "def answer(N: int) -> int"
    p = prog('x = retrieve(f"Is {N} ok?", bool)\nreturn 0', header=header)
    result = execute(p, {"N": "many"}, EMPTY)
    assert result.status == STATUS_FAILURE


def test_if_condition_must_be_bool():
    p = prog("if 1:\n    return 1\nreturn 0")
    result = execute(p, {"X": "a", "Y": "b"}, EMPTY)
    assert result.status == STATUS_FAILURE


def test_comparison_requires_numbers():
    p = prog('if X < Y:\n    return 1\nreturn 0')
    result = execute(p, {"X": "a", "Y": "b"}, EMPTY)
    assert result.status == STATUS_FAILURE


def test_equality_works_on_strings():
    p = prog("if X == Y:\n    return 1\nreturn 0")
    assert execute(p, {"X": "a", "Y": "a"}, EMPTY).answer == 1
    assert execute(p, {"X": "a", "Y": "b"}, EMPTY).answer == 0


def test_inequality_works_on_strings():
    p = prog("if X != Y:\n    return 1\nreturn 0")
    assert execute(p, {"X": "a", "Y": "a"}, EMPTY).answer == 0
    assert execute(p, {"X": "a", "Y": "b"}, EMPTY).answer == 1


def test_loop_append_unique_count():
    retr = table({
        "list cities of x": ("list", ["Lyon", "Nice", "Lyon"]),
        "what region is lyon in": ("str", "ARA"),
        "what region is nice in": ("str", "PACA"),
    })
    p = prog(
        'cities = retrieve(f"List cities of {X}", list)\n'
        "regions = []\n"
        "for city in cities:\n"
        '    region = retrieve(f"What region is {city} in?", str)\n'
        "    regions.append(region)\n"
        "if len(set(regions)) == 1:\n    return 1\nreturn 0"
    )
    result = execute(p, {"X": "X", "Y": "y"}, retr)
    assert result.answer == 0
    assert result.dynamic_retrieve_count == 4


def test_index_out_of_bounds_fails():
    retr = table({"list things": ("list", [])})
    p = prog('xs = retrieve("List things", list)\nfirst = xs[0]\nreturn 0')
    result = execute(p, {"X": "a", "Y": "b"}, retr)
    assert result.status == STATUS_FAILURE


def test_a_bool_list_index_is_a_failure():
    # CPython reads xs[True] as xs[1]; the harness refuses it
    result = execute(prog("xs = [3, 4]\nreturn xs[True]"), {"X": "a", "Y": "b"}, EMPTY)
    assert (result.status, result.failure_reason) == (STATUS_FAILURE,
                                                      "list index is not an integer: True")


def test_the_most_negative_index_is_the_first_item():
    result = execute(prog("xs = [5, 6, 7]\nreturn xs[-len(xs)]"), {"X": "a", "Y": "b"}, EMPTY)
    assert (result.status, result.answer) == (STATUS_ANSWERED, 5)


def test_all_requires_bool_elements():
    retr = table({"list things": ("list", [1, 2])})
    p = prog('xs = retrieve("List things", list)\nif all(xs):\n    return 1\nreturn 0')
    result = execute(p, {"X": "a", "Y": "b"}, retr)
    assert result.status == STATUS_FAILURE


def test_retrieve_limit():
    retr = table({"list n": ("list", list(range(10))), "is 0 ok": ("bool", True)})
    p = prog(
        'xs = retrieve("List n", list)\n'
        "for x in xs:\n"
        '    v = retrieve(f"Is {x} ok?", bool)\n'
        "return 0"
    )
    limits = ExecutionLimits(max_retrieve_calls=3, max_steps=10_000, max_list_len=1024)
    result = execute(p, {"X": "a", "Y": "b"}, retr, limits)
    assert result.status == STATUS_LIMIT
    assert result.limit_which == LIMIT_RETRIEVES
    # the call that would exceed the budget is never issued
    assert result.dynamic_retrieve_count == 3


def test_step_limit():
    retr = table({"list n": ("list", list(range(50)))})
    p = prog(
        'xs = retrieve("List n", list)\n'
        "acc = 0\n"
        "for x in xs:\n"
        "    acc = acc + x\n"
        "return 0"
    )
    limits = ExecutionLimits(max_retrieve_calls=64, max_steps=20, max_list_len=1024)
    result = execute(p, {"X": "a", "Y": "b"}, retr, limits)
    assert result.status == STATUS_LIMIT
    assert result.limit_which == LIMIT_STEPS


def test_list_length_limit():
    retr = table({"list n": ("list", list(range(10)))})
    p = prog(
        'xs = retrieve("List n", list)\n'
        "out = []\n"
        "for x in xs:\n"
        "    out.append(x)\n"
        "return 0"
    )
    limits = ExecutionLimits(max_retrieve_calls=64, max_steps=10_000, max_list_len=4)
    result = execute(p, {"X": "a", "Y": "b"}, retr, limits)
    assert result.status == STATUS_LIMIT
    assert result.limit_which == LIMIT_LIST


@pytest.mark.parametrize("appends, expected", [
    (2, (STATUS_ANSWERED, 2, "")),
    (3, (STATUS_LIMIT, None, LIMIT_LIST)),
])
def test_appends_reach_exactly_max_list_len(appends, expected):
    p = prog("xs = []\n" + "xs.append(1)\n" * appends + "return len(xs)")
    limits = ExecutionLimits(max_list_len=2)
    result = execute(p, {"X": "a", "Y": "b"}, EMPTY, limits)
    assert (result.status, result.answer, result.limit_which) == expected


def test_a_statement_on_the_last_step_runs():
    # steps: the assignment (1), its literal (2), the append (3), which may
    # run at max_steps=3 and so trips the list limit first
    p = prog("xs = [1]\nxs.append(2)\nreturn 0")
    limits = ExecutionLimits(max_steps=3, max_list_len=1)
    result = execute(p, {"X": "a", "Y": "b"}, EMPTY, limits)
    assert (result.status, result.limit_which) == (STATUS_LIMIT, LIMIT_LIST)


def test_nonpositive_limits_rejected():
    with pytest.raises(ValueError):
        ExecutionLimits(max_retrieve_calls=0, max_steps=1, max_list_len=1)


def test_bool_return_is_failure():
    p = prog("return X == Y")
    result = execute(p, {"X": "a", "Y": "a"}, EMPTY)
    assert result.status == STATUS_FAILURE


def test_negative_return_is_failure():
    p = prog("v = 0 - 1\nreturn v")
    result = execute(p, {"X": "a", "Y": "b"}, EMPTY)
    assert result.status == STATUS_FAILURE


def test_fall_off_end_is_failure():
    p = prog("if X == Y:\n    return 1")
    result = execute(p, {"X": "a", "Y": "b"}, EMPTY)
    assert result.status == STATUS_FAILURE


def test_trace_event_json_shape():
    retr = table({"is zeus real": ("bool", True)})
    result = execute(CONJUNCTION, {"X": "Apollo", "Y": "Zeus"}, retr)
    rejected, valued = (e.to_json() for e in result.trace)
    assert rejected == {"q": "Is Apollo real?", "kind": "bool", "outcome": "rejected"}
    assert valued == {
        "q": "Is Zeus real?", "kind": "bool", "outcome": "value", "value": True,
    }


# --- limit trip points ----------------------------------------------------

FIX = "fixtures"

LOOP = prog(
    'films = retrieve(f"Which films did {X} make?", list)\n'
    "kept = []\n"
    "for film in films:\n"
    '    ok = retrieve(f"Is {film} a {Y} film?", bool)\n'
    "    if ok:\n"
    "        kept.append(film)\n"
    "return len(kept)"
)

# "beta" is missing, so the loop's second lookup is rejected
LOOP_FACTS = table({
    "which films did ada make": ("list", ["Alpha", "Beta", "Gamma"]),
    "is alpha a noir film": ("bool", True),
    "is gamma a noir film": ("bool", False),
})


def _fixture_runs():
    """(program, bindings, retriever) for the fixture conjunction program on
    the sim cohort's original (one lookup rejected) and on variant 2."""
    cohort = load_cohorts(f"{FIX}/sim_cohorts.jsonl")[0]
    with open(f"{FIX}/programs/conjunction.py", encoding="utf-8") as handle:
        program = parse_program(handle.read(), cohort.template.function_header)
    retriever = MockRetriever(FactTable.from_jsonl(f"{FIX}/facts.jsonl"))
    return {
        "fixture-original": (program, cohort.members[0].bindings, retriever),
        "fixture-variant-2": (program, cohort.members[3].bindings, retriever),
        "loop": (LOOP, {"X": "Ada", "Y": "noir"}, LOOP_FACTS),
    }


def _tripped(which, n_trace, rejected):
    return (STATUS_LIMIT, which, n_trace, rejected)


def _answered(n_trace, rejected):
    return (STATUS_ANSWERED, "", n_trace, rejected)


# (limit name, run) -> [(first limit value, observed tuple), ...]: each
# tuple holds from its limit value up to the next entry's, and the last
# entry's limit value is the run's full count (every step or retrieve)
TRIP_POINTS = {
    ("max_steps", "fixture-original"): [
        (1, _tripped(LIMIT_STEPS, 0, False)),
        (2, _tripped(LIMIT_STEPS, 1, True)),
        (4, _tripped(LIMIT_STEPS, 2, True)),
        (9, _answered(2, True)),
    ],
    ("max_steps", "fixture-variant-2"): [
        (1, _tripped(LIMIT_STEPS, 0, False)),
        (2, _tripped(LIMIT_STEPS, 1, False)),
        (4, _tripped(LIMIT_STEPS, 2, False)),
        (10, _answered(2, False)),
    ],
    ("max_steps", "loop"): [
        (1, _tripped(LIMIT_STEPS, 0, False)),
        (2, _tripped(LIMIT_STEPS, 1, False)),
        (8, _tripped(LIMIT_STEPS, 2, False)),
        (14, _tripped(LIMIT_STEPS, 3, True)),
        (18, _tripped(LIMIT_STEPS, 4, True)),
        (23, _answered(4, True)),
    ],
    ("max_retrieve_calls", "fixture-original"): [
        (1, _tripped(LIMIT_RETRIEVES, 1, True)),
        (2, _answered(2, True)),
    ],
    ("max_retrieve_calls", "fixture-variant-2"): [
        (1, _tripped(LIMIT_RETRIEVES, 1, False)),
        (2, _answered(2, False)),
    ],
    ("max_retrieve_calls", "loop"): [
        (1, _tripped(LIMIT_RETRIEVES, 1, False)),
        (2, _tripped(LIMIT_RETRIEVES, 2, False)),
        (3, _tripped(LIMIT_RETRIEVES, 3, True)),
        (4, _answered(4, True)),
    ],
    ("max_list_len", "loop"): [
        (1, _tripped(LIMIT_LIST, 1, False)),
        (3, _answered(4, True)),
    ],
}


@pytest.mark.parametrize("limit, run", TRIP_POINTS)
def test_limit_trip_points(limit, run):
    program, bindings, retriever = _fixture_runs()[run]
    points = TRIP_POINTS[limit, run]
    expected = {}
    for (start, observed), (stop, _) in zip(points, points[1:] + [(points[-1][0] + 1, None)]):
        expected.update((n, observed) for n in range(start, stop))
    seen = {}
    for n in expected:
        result = execute(program, bindings, retriever, ExecutionLimits(**{limit: n}))
        seen[n] = (result.status, result.limit_which, len(result.trace), result.was_rejected)
    assert seen == expected


# --- per-execution records --------------------------------------------------

def _records():
    event = RetrieveEvent("Is a real?", ValueKind.BOOL, "value", True)
    return [
        RetrieveRequest("Is a real?", ValueKind.BOOL),
        RetrieveResponse(OUTCOME_VALUE, True),
        FactEntry(ValueKind.BOOL, True),
        event,
        ExecutionResult(STATUS_ANSWERED, 1, trace=(event,)),
        MemberOutcome(1, True, False),
        UpdateRecord(0, (1, 0), (0.2, 0.4), (-1.0, 1.0), (0.4, 0.6)),
        GroupAdvantages((0.2, 0.4), (-1.0, 1.0)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_hashable(record):
    names = list(type(record).__annotations__)
    with pytest.raises(AttributeError):
        setattr(record, names[0], None)
    copy = type(record)(*(getattr(record, name) for name in names))
    assert copy == record
    assert hash(copy) == hash(record)
