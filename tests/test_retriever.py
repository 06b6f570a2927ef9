import json
import os
import random
import string

import pytest
from hypothesis import example, given, strategies as st

from cohortqa.data_model import SchemaError
from cohortqa.dsl import ValueKind
from cohortqa.retriever import (
    COMPLEX,
    OUTCOME_ERROR,
    OUTCOME_REJECTED,
    OUTCOME_VALUE,
    REJECTION_EXEMPLARS,
    REJECTION_SYSTEM_PROMPT,
    SIMPLE,
    FactEntry,
    FactTable,
    MockRetriever,
    RemoteRetriever,
    RemoteRetrieverConfig,
    RetrieveRequest,
    build_rejection_prompt,
    classify_complexity,
    normalize_question,
    parse_llm_reply,
)


def test_normalize_question():
    assert normalize_question("  Is   WATER wet?? ") == "is water wet"


@given(st.text())
@example("Stra\u00dfe \u0130stanbul\u2029?!")
@example("\u1e9e\u00a0\u3000x.\u0085")
def test_normalize_question_equals_its_casefold_first_form(text):
    # the retriever's own body before it reused data_model.normalize_question
    reference = " ".join(text.split()).casefold().rstrip(string.punctuation + " ")
    assert normalize_question(text) == reference
    assert normalize_question("Who founded X.") == "who founded x"


# --- few-shot protocol ----------------------------------------------------

def test_exemplar_corpus_size():
    assert len(REJECTION_EXEMPLARS) == 11


def test_exemplar_replies_parse_to_labeled_outcomes():
    kind_map = {"bool": ValueKind.BOOL, "int": ValueKind.INT, "float": ValueKind.FLOAT,
                "str": ValueKind.STR, "list": ValueKind.LIST}
    for ex in REJECTION_EXEMPLARS:
        response = parse_llm_reply(ex.reply, kind_map[ex.return_type])
        if ex.is_rejection:
            assert response.outcome == OUTCOME_REJECTED, ex.question
        else:
            assert response.outcome == OUTCOME_VALUE, ex.question
            assert response.value == ex.answer, ex.question


def test_filter_agrees_with_exemplar_labels():
    for ex in REJECTION_EXEMPLARS:
        expected = COMPLEX if ex.is_rejection else SIMPLE
        assert classify_complexity(ex.question) == expected, ex.question


def test_prompt_structure():
    request = RetrieveRequest("Is water wet?", ValueKind.BOOL)
    messages = build_rejection_prompt(request)
    assert messages[0]["role"] == "system"
    assert messages[0]["content"] == REJECTION_SYSTEM_PROMPT
    # 11 exemplars as user/assistant pairs, then the live question
    assert len(messages) == 1 + 2 * len(REJECTION_EXEMPLARS) + 1
    roles = [m["role"] for m in messages[1:-1]]
    assert roles == ["user", "assistant"] * len(REJECTION_EXEMPLARS)
    assert messages[-1] == {"role": "user", "content": "Is water wet? (bool)"}


def test_prompt_equals_one_built_per_lookup():
    # the per-lookup construction the module-level prefix replaced
    def reference(request):
        messages = [{"role": "system", "content": REJECTION_SYSTEM_PROMPT}]
        for ex in REJECTION_EXEMPLARS:
            messages.append({"role": "user", "content": f"{ex.question} ({ex.return_type})"})
            messages.append({"role": "assistant", "content": ex.reply})
        messages.append({"role": "user", "content": f"{request.question} ({request.kind.value})"})
        return messages

    for request in (RetrieveRequest("Is water wet?", ValueKind.BOOL),
                    RetrieveRequest("Who founded X?", ValueKind.LIST)):
        assert json.dumps(build_rejection_prompt(request)) == json.dumps(reference(request))
    # each call returns its own list around the shared prefix
    build_rejection_prompt(RetrieveRequest("a?", ValueKind.INT)).append({"role": "user"})
    second = build_rejection_prompt(RetrieveRequest("b?", ValueKind.INT))
    assert len(second) == 2 + 2 * len(REJECTION_EXEMPLARS)


def test_parse_llm_reply_value_and_idk():
    ok = parse_llm_reply('```json\n{"answer": true}\n```', ValueKind.BOOL)
    assert ok.outcome == OUTCOME_VALUE and ok.value is True
    idk = parse_llm_reply('some prose\n```json\n{"answer": "idk"}\n```', ValueKind.BOOL)
    assert idk.outcome == OUTCOME_REJECTED


def test_parse_llm_reply_uses_last_fence():
    raw = '```json\n{"answer": 1}\n```\nactually:\n```json\n{"answer": 2}\n```'
    assert parse_llm_reply(raw, ValueKind.INT).value == 2


def test_parse_llm_reply_strict_typing():
    assert parse_llm_reply('```json\n{"answer": "true"}\n```', ValueKind.BOOL).outcome == OUTCOME_ERROR
    assert parse_llm_reply('```json\n{"answer": 1}\n```', ValueKind.BOOL).outcome == OUTCOME_ERROR
    assert parse_llm_reply('```json\n{"answer": true}\n```', ValueKind.INT).outcome == OUTCOME_ERROR
    # ints are acceptable floats
    assert parse_llm_reply('```json\n{"answer": 3}\n```', ValueKind.FLOAT).value == 3.0


def test_parse_llm_reply_malformed_inputs_are_errors():
    for raw in ["", "no fence", "```json\nnot json\n```",
                '```json\n{"other": 1}\n```', '```json\n{"answer": 1, "x": 2}\n```']:
        assert parse_llm_reply(raw, ValueKind.INT).outcome == OUTCOME_ERROR


def test_parse_llm_reply_is_total_under_fuzz():
    rng = random.Random(0)
    kinds = list(ValueKind)
    for _ in range(500):
        raw = "".join(rng.choice(string.printable) for _ in range(rng.randint(0, 80)))
        response = parse_llm_reply(raw, rng.choice(kinds))
        assert response.outcome in (OUTCOME_VALUE, OUTCOME_REJECTED, OUTCOME_ERROR)


# --- complexity filter ----------------------------------------------------

@pytest.mark.parametrize(
    "question, label",
    [
        ("How many planets are in the Solar System?", SIMPLE),
        ("Did Marie Curie win more than one Nobel Prize?", SIMPLE),
        ("Is the Eiffel Tower taller than the Empire State Building?", COMPLEX),
        ("Who became president immediately after Lincoln?", COMPLEX),
        ("What is the capital of the largest country in Africa?", COMPLEX),
        ("Are Amy and Senna both documentary films?", COMPLEX),
        ("How many states lie between the Mississippi and the Rockies?", COMPLEX),
        ("Can food be cooked by sunlight alone?", COMPLEX),
        ("Did France win any World Cup in 1998?", COMPLEX),
        ("What is the boiling point of water?", SIMPLE),
    ],
)
def test_filter_spot_checks(question, label):
    assert classify_complexity(question) == label


# --- fact table and mock --------------------------------------------------

def _mock():
    return MockRetriever(FactTable({
        "is water wet": FactEntry(ValueKind.BOOL, True),
        "how many planets": FactEntry(ValueKind.INT, 8),
    }))


def test_mock_hit_miss_and_kind_mismatch():
    retr = _mock()
    hit = retr.retrieve(RetrieveRequest("Is WATER wet?", ValueKind.BOOL))
    assert hit.outcome == OUTCOME_VALUE and hit.value is True
    miss = retr.retrieve(RetrieveRequest("Is lava wet?", ValueKind.BOOL))
    assert miss.outcome == OUTCOME_REJECTED
    mismatch = retr.retrieve(RetrieveRequest("Is water wet?", ValueKind.INT))
    assert mismatch.outcome == OUTCOME_ERROR
    empty = retr.retrieve(RetrieveRequest("", ValueKind.BOOL))
    assert empty.outcome == OUTCOME_ERROR


def test_fact_table_from_jsonl(tmp_path):
    path = tmp_path / "facts.jsonl"
    lines = [
        {"q": "Is water wet?", "kind": "bool", "value": True},
        {"q": "List primary colors", "kind": "list", "value": ["red", "green", "blue"]},
    ]
    path.write_text("\n".join(json.dumps(l) for l in lines), encoding="utf-8")
    t = FactTable.from_jsonl(path)
    assert len(t) == 2
    assert t.lookup("is water wet").value is True


_KILLING = "Is The Act of Killing a documentary film that involves Indonesia?"


_KILLING_FACT = {"q": _KILLING, "kind": "bool", "value": True}
_HEIGHT = "How tall is the tower in metres?"
_LIST = "Which films won the award?"
_REPEATS = pytest.mark.parametrize("first, repeat, error", [
    (_KILLING_FACT,
     {"q": "is the act of killing a documentary film that involves indonesia", "kind": "bool",
      "value": False},
     "line 3: question 'is the act of killing a documentary film that involves indonesia' "
     "repeats line 1 with a different kind or value"),
    (_KILLING_FACT, {"q": _KILLING, "kind": "str", "value": "yes"},
     f"line 3: question {_KILLING!r} repeats line 1 with a different kind or value"),
    (_KILLING_FACT,
     {"q": "IS THE ACT OF KILLING A DOCUMENTARY FILM THAT INVOLVES INDONESIA", "kind": "bool",
      "value": True}, None),
    ({"q": _HEIGHT, "kind": "float", "value": 1.0}, {"q": _HEIGHT, "kind": "float", "value": 1.0},
     None),
    # equal but of another JSON type, in either order: a program would see
    # an int or a float, a bool or an int, depending on the line order
    *(({"q": q, "kind": kind, "value": a}, {"q": q, "kind": kind, "value": b},
       f"line 3: question {q!r} repeats line 1 with a different kind or value")
      for q, kind, x, y in [(_HEIGHT, "float", 1, 1.0), (_LIST, "list", [True], [1])]
      for a, b in [(x, y), (y, x)]),
], ids=["other-value", "other-kind", "identical", "identical-number",
        "int-then-float", "float-then-int", "bool-list-then-int-list", "int-list-then-bool-list"])


def _facts_with_repeat(first, repeat) -> str:
    lines = [first, {"q": "Is water wet?", "kind": "bool", "value": True}, repeat]
    return "\n".join(json.dumps(l) for l in lines) + "\n"


def _check_repeat(path, first, repeat, error):
    if error is None:  # an identical repeat is allowed
        t = FactTable.from_jsonl(path)
        assert len(t) == 2
        value = t.lookup(first["q"]).value
        assert value == repeat["value"] and type(value) is type(repeat["value"])
        return
    with pytest.raises(SchemaError) as excinfo:
        FactTable.from_jsonl(path)
    assert str(excinfo.value) == f"{path}: {error}"


@_REPEATS
def test_fact_table_refuses_a_repeat_that_conflicts(tmp_path, first, repeat, error):
    path = tmp_path / "facts.jsonl"
    path.write_text(_facts_with_repeat(first, repeat), encoding="utf-8")
    _check_repeat(path, first, repeat, error)


@_REPEATS
def test_fact_table_checks_repeats_in_a_pipe(first, repeat, error):
    # what `--facts <(cat facts.jsonl)` hands over: a pipe that reads empty a second time
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, _facts_with_repeat(first, repeat).encode())
        os.close(write_end)
        _check_repeat(f"/dev/fd/{read_end}", first, repeat, error)
    finally:
        os.close(read_end)


def test_fact_table_rejects_wrongly_typed_value(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.write_text('{"q": "x", "kind": "int", "value": "five"}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        FactTable.from_jsonl(path)


# --- remote client --------------------------------------------------------

def _response(status, payload=None):
    """A `(status, headers, body)` reply, as `HTTPSession.post` returns it."""
    return status, {}, json.dumps(payload).encode()


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, payload):
        self.requests.append(payload)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _reply(text):
    return {"choices": [{"message": {"content": text}}]}


def test_remote_retriever_happy_path():
    session = _FakeSession([_response(200, _reply('```json\n{"answer": 8}\n```'))])
    retr = RemoteRetriever(RemoteRetrieverConfig(endpoint="http://x/v1", model="retriever"), session=session)
    response = retr.retrieve(RetrieveRequest("How many planets?", ValueKind.INT))
    assert response.outcome == OUTCOME_VALUE and response.value == 8
    sent = session.requests[0]
    assert sent["messages"][-1]["content"] == "How many planets? (int)"
    assert sent["temperature"] == 0.7


def test_remote_retriever_retries_5xx_then_succeeds():
    session = _FakeSession([
        _response(500),
        ConnectionError("boom"),
        _response(200, _reply('```json\n{"answer": "idk"}\n```')),
    ])
    config = RemoteRetrieverConfig(endpoint="http://x/v1", model="retriever", max_retries=3, backoff_base_s=0.0)
    response = RemoteRetriever(config, session=session).retrieve(
        RetrieveRequest("Hard question?", ValueKind.BOOL)
    )
    assert response.outcome == OUTCOME_REJECTED
    assert len(session.requests) == 3


def test_remote_retriever_gives_up_with_error():
    config = RemoteRetrieverConfig(endpoint="http://x/v1", model="retriever", max_retries=2, backoff_base_s=0.0)
    # max_retries counts retries after the first attempt: 3 calls total
    session = _FakeSession([_response(503), _response(503), _response(503)])
    response = RemoteRetriever(config, session=session).retrieve(
        RetrieveRequest("q?", ValueKind.BOOL)
    )
    assert response.outcome == OUTCOME_ERROR


def test_remote_retriever_4xx_is_immediate_error():
    config = RemoteRetrieverConfig(endpoint="http://x/v1", model="retriever", max_retries=3, backoff_base_s=0.0)
    session = _FakeSession([_response(400)])
    response = RemoteRetriever(config, session=session).retrieve(
        RetrieveRequest("q?", ValueKind.BOOL)
    )
    assert response.outcome == OUTCOME_ERROR
    assert len(session.requests) == 1
