"""Retriever backends: a deterministic fact-table mock that rejects exactly
the questions its table lacks, and a remote chat-completion client speaking
the few-shot fact-lookup protocol. `classify_complexity` labels questions by
the few-shot prompt's simple/complex rules; no backend applies it."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Protocol

from . import data_model
from .data_model import SchemaError, read_jsonl
from .dsl import KINDS, ValueKind

OUTCOME_VALUE = "value"
OUTCOME_REJECTED = "rejected"
OUTCOME_ERROR = "error"

SIMPLE = "simple"
COMPLEX = "complex"


class RetrieveRequest(NamedTuple):
    question: str
    kind: ValueKind


class RetrieveResponse(NamedTuple):
    outcome: str  # value | rejected | error
    value: object = None
    reason: str = ""


# immutable, so every rejected lookup of the mock can share it
_REJECTED = RetrieveResponse(OUTCOME_REJECTED)


class Retriever(Protocol):
    def retrieve(self, request: RetrieveRequest) -> RetrieveResponse: ...


def normalize_question(text: str) -> str:
    """Case-fold, collapse whitespace, strip terminal punctuation."""
    return data_model.normalize_question(text.casefold())


def _value_conforms(kind: ValueKind, value) -> bool:
    if kind is ValueKind.BOOL:
        return isinstance(value, bool)
    if kind is ValueKind.INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is ValueKind.FLOAT:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is ValueKind.STR:
        return isinstance(value, str)
    if kind is ValueKind.LIST:
        return isinstance(value, list) and all(
            isinstance(v, (str, int, float, bool)) for v in value
        )
    return False


# --- complexity filter ---------------------------------------------------

# numeric thresholds ("more than one X") are not two-lookup comparatives
_THRESHOLD_RE = re.compile(
    r"\b(more|less|fewer)\s+than\s+(one|two|three|four|five|six|seven|eight|nine|ten|\d+)\b"
)

_COMPLEX_PATTERNS = (
    # (a) comparative between two lookups
    r"\b(older|younger|taller|shorter|bigger|smaller|larger|heavier|lighter"
    r"|greater|higher|lower|faster|slower|earlier|later|more|less|fewer)\s+than\b",
    r"\bimmediately\s+(after|before)\b",
    # (b) lookup applied to a superlative-defined entity
    r"\b(of|in)\s+the\s+(largest|biggest|smallest|greatest|highest|lowest"
    r"|longest|shortest|oldest|youngest|best|worst|most|least)\b",
    # (c) conjunction of two entity predicates
    r"\band\b.+\bboth\b",
    r"\bboth\b.+\band\b",
    # (d) embedded sub-question markers
    r"\bbetween\s+the\b.+\band\s+the\b",
    # hypothetical-capability questions are not single-step lookups
    r"^can\b",
    # existence checks over records pinned to a specific year
    r"\bany\b.+\b\d{3,4}\b",
)
_COMPLEX_RES = tuple(re.compile(p) for p in _COMPLEX_PATTERNS)


def classify_complexity(question: str) -> str:
    """Label a question SIMPLE or COMPLEX by the few-shot prompt's rules."""
    text = _THRESHOLD_RE.sub(" ", normalize_question(question))
    for pattern in _COMPLEX_RES:
        if pattern.search(text):
            return COMPLEX
    return SIMPLE


# --- mock backend --------------------------------------------------------

class FactEntry(NamedTuple):
    kind: ValueKind
    value: object


class FactTable:
    """Immutable normalized-question -> typed-value store."""

    def __init__(self, entries: dict[str, FactEntry]):
        self._entries = dict(entries)

    def __len__(self):
        return len(self._entries)

    def lookup(self, question: str) -> Optional[FactEntry]:
        # normalize_question inlined to one call: it runs on every mock lookup
        return self._entries.get(data_model.normalize_question(question.casefold()))

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "FactTable":
        """Load a fact file; a question may repeat only with the same kind and value.

        A regular file is read once, and a second time only if a question
        repeats. Anything else (a pipe, say) cannot be read twice, so its
        repeats are checked line by line in its one read.
        """
        if not os.path.isfile(path):
            return cls(_checked_facts(path))
        counted = itertools.count()  # zip advances it once per fact, with no Python loop
        table = cls(dict(map(itemgetter(0), zip(read_jsonl(path, _fact, _FACT_KEYS), counted))))
        if next(counted) > len(table):  # a question repeats: only then is the file read again
            _checked_facts(path)
        return table


_FACT_KEYS = ("q", "kind", "value")


def _checked_facts(path: str | Path) -> dict[str, FactEntry]:
    """The facts of a file, each question's last line kept, as `dict` keeps
    it; a repeat with another kind, value or JSON type is a SchemaError."""
    seen: dict[str, tuple[int, FactEntry]] = {}  # normalized question -> first line, entry
    table: dict[str, FactEntry] = {}
    for line, question, key, entry in read_jsonl(
            path, lambda record, line: (line, record["q"], *_fact(record, line)), _FACT_KEYS):
        first_line, first = seen.setdefault(key, (line, entry))
        if first_line != line and not (first.kind is entry.kind
                                       and _same_json(first.value, entry.value)):
            raise SchemaError(f"question {question!r} repeats line {first_line} with a "
                              "different kind or value", line=line, path=path)
        table[key] = entry
    return table


def _same_json(a, b) -> bool:
    """Equal, and of the same JSON type item by item: 1 is neither 1.0 nor true."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _fact(record: dict, line: int) -> tuple[str, FactEntry]:
    question, name, value = record["q"], record["kind"], record["value"]
    try:
        kind = KINDS[name]
    except (KeyError, TypeError):  # not a kind name: the enum words the error
        kind = ValueKind(name)
    if not isinstance(question, str):
        raise SchemaError("q must be a string", "q")
    if not _value_conforms(kind, value):
        raise SchemaError(f"value {value!r} does not conform to kind {kind.value}", "value")
    return normalize_question(question), FactEntry(kind, value)


class MockRetriever:
    """Deterministic oracle: exact table hit, otherwise a reject.

    It applies no complexity filter: a question is rejected only when the
    table lacks it, so a complex question that the table holds is answered.
    """

    def __init__(self, table: FactTable):
        self.table = table

    def retrieve(self, request: RetrieveRequest) -> RetrieveResponse:
        question, kind = request
        if not question:
            return RetrieveResponse(OUTCOME_ERROR, None, "empty question")
        entry = self.table.lookup(question)
        if entry is None:
            return _REJECTED
        table_kind, value = entry
        if table_kind is not kind:
            return RetrieveResponse(
                OUTCOME_ERROR, None,
                f"kind mismatch: table has {table_kind.value}, requested {kind.value}",
            )
        if kind is ValueKind.LIST:
            value = list(value)
        return RetrieveResponse(OUTCOME_VALUE, value)

    def close(self) -> None:
        """Nothing to release; a caller may close any retriever it made."""


# --- few-shot rejection prompt -------------------------------------------

REJECTION_SYSTEM_PROMPT = (
    "You are a fact-lookup assistant. For each user query, first decide if it's "
    "a simple, single-step fact lookup without solving it and then return a JSON "
    'object with exactly one key, "answer", wrapped in ```json ...```. Match the '
    "type specified in parentheses (int, str, list, bool). If a query requires "
    "more than a straightforward fact check or true/false lookup—for example, "
    'multi-step reasoning or subjective judgment—reply with "idk".'
)


@dataclass(frozen=True)
class RejectionExemplar:
    question: str
    return_type: str
    explanation: str
    answer: object  # "idk" marks a rejection

    @property
    def is_rejection(self) -> bool:
        return self.answer == "idk"

    @property
    def reply(self) -> str:
        payload = json.dumps({"answer": self.answer}, ensure_ascii=False)
        return f"[Explanation] {self.explanation}\n```json\n{payload}\n```"


REJECTION_EXEMPLARS: tuple[RejectionExemplar, ...] = (
    RejectionExemplar(
        "Who finished immediately after the winner at the 1992 Olympic 100m final?",
        "str",
        "You must identify the winner, then determine who came second—this isn’t single-step.",
        "idk",
    ),
    RejectionExemplar(
        "How many planets are in the solar system?", "int", "Simple fact check.", 8
    ),
    RejectionExemplar(
        "What is the profession of Michael Jackson?",
        "str",
        "Single well-known profession of a public figure.",
        "singer",
    ),
    RejectionExemplar(
        "Who has more than one Nobel Prize?",
        "list",
        "Factual list of individuals with multiple Nobel Prizes.",
        ["John Bardeen", "Frederick Sanger", "Linus Pauling", "Marie Curie"],
    ),
    RejectionExemplar(
        "Is the CEO of Tesla older than the current President of France?",
        "bool",
        "Requires fetching and comparing two birthdates—multi-step.",
        "idk",
    ),
    RejectionExemplar(
        "Is the Eiffel Tower located in Paris, France?",
        "bool",
        "Single-step landmark location.",
        False,
    ),
    RejectionExemplar(
        "Did England win any Olympic gold medals in 1800?",
        "bool",
        "Must check when the modern Olympics began and then medal records—multi-step.",
        "idk",
    ),
    RejectionExemplar(
        "What is the population of the largest country entirely south of the equator?",
        "int",
        "Identify the country then lookup its population—multi-step.",
        "idk",
    ),
    RejectionExemplar(
        "List the U.S. states admitted to the Union between the first and the last "
        "of the original 13 colonies.",
        "list",
        "Order states by admission date and filter—multi-step.",
        "idk",
    ),
    RejectionExemplar(
        "Can food be cooked in the cosmic microwave background?",
        "bool",
        "Must compare CMB temperature (~2.7 K) to cooking physics—multi-step.",
        "idk",
    ),
    RejectionExemplar(
        "Are Waris Hussein and Mathieu Kassovitz both actors?",
        "bool",
        "Fetch each person’s profession and compare—multi-step.",
        "idk",
    ),
)


# the system prompt and exemplar turns are the same for every lookup; the
# prompts built from them share these dicts, so nothing may mutate them
_FEW_SHOT_PREFIX: tuple[dict[str, str], ...] = (
    {"role": "system", "content": REJECTION_SYSTEM_PROMPT},
    *(
        turn
        for ex in REJECTION_EXEMPLARS
        for turn in (
            {"role": "user", "content": f"{ex.question} ({ex.return_type})"},
            {"role": "assistant", "content": ex.reply},
        )
    ),
)


def build_rejection_prompt(request: RetrieveRequest) -> list[dict[str, str]]:
    """Full few-shot message sequence ending with `{question} ({type})`."""
    return [
        *_FEW_SHOT_PREFIX,
        {"role": "user", "content": f"{request.question} ({request.kind.value})"},
    ]


_FENCE_RE = re.compile(r"```json\s*(.*?)```", re.DOTALL)


def parse_llm_reply(raw: str, kind: ValueKind) -> RetrieveResponse:
    """Decode one assistant reply under the fact-lookup protocol.

    Total: every input maps to exactly one of value / rejected / error.
    """
    blocks = _FENCE_RE.findall(raw)
    if not blocks:
        return RetrieveResponse(OUTCOME_ERROR, None, "no fenced json block")
    try:
        obj = json.loads(blocks[-1])
    except json.JSONDecodeError as exc:
        return RetrieveResponse(OUTCOME_ERROR, None, f"bad json in fenced block: {exc.msg}")
    if not isinstance(obj, dict) or set(obj) != {"answer"}:
        return RetrieveResponse(
            OUTCOME_ERROR, None, 'reply must be an object with the single key "answer"')
    answer = obj["answer"]
    if answer == "idk":
        return _REJECTED
    if not _value_conforms(kind, answer):
        return RetrieveResponse(
            OUTCOME_ERROR, None, f"kind mismatch: {answer!r} is not a {kind.value}")
    if kind is ValueKind.FLOAT:
        answer = float(answer)
    return RetrieveResponse(OUTCOME_VALUE, answer)


# --- remote backend ------------------------------------------------------

# the longest wait before a retry, from backoff or from a Retry-After header
MAX_RETRY_WAIT_S = 30.0


@dataclass
class RemoteRetrieverConfig:
    endpoint: str
    model: str
    temperature: float = 0.7
    timeout_s: float = 30.0
    max_retries: int = 3
    backoff_base_s: float = 0.5

    def __post_init__(self):
        # NaN or infinity would not survive as JSON
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be a finite number >= 0")
        if not self.timeout_s > 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max retries must be >= 0")


class RemoteRetriever:
    """JSON-over-HTTP chat-completion client with retry/backoff.

    Safe to share between threads. It does not bound requests in flight:
    callers do (`run_cohorts` by its pool size). Each calling thread keeps
    one kept-alive connection, and at most 8 are being opened at once
    (`transport.HTTPSession`), so a pool of 32 does not overflow a server's
    listen backlog. `session` replaces that client with any object whose
    `post(payload) -> (status, headers, body)` sends the JSON payload and
    returns the reply: the status code, a mapping of headers and the raw body.

    A transport failure, a 429 or a 5xx reply is retried up to `max_retries`
    times. Before each retry it waits the reply's Retry-After seconds, or
    else a full-jitter exponential backoff drawn from `rng`: uniform in
    [0, backoff_base_s * 2 ** n] before retry n + 1. Either wait is capped at
    MAX_RETRY_WAIT_S, and `sleep` does the waiting.
    """

    def __init__(
        self,
        config: RemoteRetrieverConfig,
        session=None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        # loaded only by the remote path: http.client costs ~25 ms to import
        from .transport import TRANSPORT_ERRORS, HTTPSession

        self.config = config
        self._owns_session = session is None
        if session is None:
            session = HTTPSession(config.endpoint, config.timeout_s)
        self._session = session
        self._transport_errors = TRANSPORT_ERRORS
        self._sleep = sleep
        self._rng = random.Random() if rng is None else rng

    def close(self) -> None:
        """Close the connections this retriever opened; a passed-in session
        stays open."""
        if self._owns_session:
            self._session.close()

    def _wait_s(self, retry: int, headers) -> float:
        retry_after = headers.get("Retry-After", "").strip()
        # only the delay-seconds form (RFC 9110 section 10.2.3); an HTTP-date
        # leaves the wait to the backoff
        if retry_after.isascii() and retry_after.isdigit():
            return min(MAX_RETRY_WAIT_S, float(retry_after))
        ceiling = min(MAX_RETRY_WAIT_S, self.config.backoff_base_s * 2 ** retry)
        return self._rng.uniform(0, ceiling)

    def retrieve(self, request: RetrieveRequest) -> RetrieveResponse:
        if not request.question:
            return RetrieveResponse(OUTCOME_ERROR, None, "empty question")
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": build_rejection_prompt(request),
        }
        last_reason = "no attempt made"
        wait_s = 0.0
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._sleep(wait_s)
            try:
                status, headers, body = self._session.post(payload)
            except self._transport_errors as exc:
                last_reason = f"transport failure: {exc}"
                wait_s = self._wait_s(attempt, {})
                continue
            if status == 429 or status >= 500:
                last_reason = f"server error {status}" if status >= 500 else "http 429"
                wait_s = self._wait_s(attempt, headers)
                continue
            if status != 200:
                return RetrieveResponse(OUTCOME_ERROR, None, f"http {status}")
            try:
                content = json.loads(body)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                return RetrieveResponse(OUTCOME_ERROR, None, "malformed completion response")
            if not isinstance(content, str):
                return RetrieveResponse(OUTCOME_ERROR, None, "completion content is not text")
            return parse_llm_reply(content, request.kind)
        return RetrieveResponse(OUTCOME_ERROR, None, last_reason)
