"""Cohort, template, and answer-key types plus JSONL ingestion and validation."""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

from .dsl import ParseError, ValueKind, parse_header

COHORT_SIZE = 6  # 1 original + 5 variants
NUM_VARIANTS = COHORT_SIZE - 1

KNOWN_DOMAINS = ("arc-challenge", "arc-easy", "csqa", "strategyqa", "hotpotqa", "other")

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z][A-Za-z0-9_]*)\}")

_TRAILING = string.punctuation + " "  # what normalize_question strips from the end

T = TypeVar("T")

# one decoder for every line: json.loads re-checks its arguments on each call
_DECODER = json.JSONDecoder()
_decode = _DECODER.decode
_scan_once = _DECODER.scan_once  # decode without its Python wrapper
_JSON_SPACE = " \t\n\r"


class SchemaError(ValueError):
    """An input record violates its schema or a type invariant."""

    def __init__(self, message: str, field_path: str = "", line: int | None = None,
                 path: str | Path | None = None):
        self.message = message
        self.field_path = field_path
        self.line = line
        prefix = f"{path}: " if path is not None else ""
        prefix += f"line {line}: " if line is not None else ""
        suffix = f" (at {field_path})" if field_path else ""
        super().__init__(f"{prefix}{message}{suffix}")


def read_jsonl(path: str | Path, parse: Callable[[dict, int], T],
               required: tuple[str, ...] = ()) -> Iterator[T]:
    """Yield `parse(record, line)` for each JSON object line of a file.

    Blank lines are skipped. Malformed JSON, a line that is not an object, a
    missing `required` key, and a ValueError or TypeError from `parse` each
    become a SchemaError that names the file and the line.
    """
    with open(path, encoding="utf-8") as handle:
        for line, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                # a line that starts with its value and ends in JSON whitespace
                # decodes in one scan; decode words the error for any other
                try:
                    record, end = _scan_once(raw, 0)
                except StopIteration:
                    record = _decode(raw)
                else:
                    if raw[end:].strip(_JSON_SPACE):
                        record = _decode(raw)
                if type(record) is not dict:
                    raise SchemaError("not a JSON object")
                for key in required:
                    if key not in record:
                        raise SchemaError(f"missing key {key!r}", key)
                item = parse(record, line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"malformed JSON: {exc.msg}", line=line, path=path) from exc
            except SchemaError as exc:
                raise SchemaError(exc.message, exc.field_path, line, path) from exc
            except (TypeError, ValueError) as exc:
                raise SchemaError(str(exc), line=line, path=path) from exc
            yield item


@dataclass(frozen=True)
class AbstractionTemplate:
    """Masked question plus the fixed inputs handed to the policy model."""

    template_id: str
    masked_question: str
    parameter_names: tuple[str, ...]
    options: tuple[str, ...]
    function_header: str
    domain_tag: str = "other"
    # (name, kind) pairs of the header, parsed once at load
    signature: tuple[tuple[str, ValueKind], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        placeholders = set(_PLACEHOLDER_RE.findall(self.masked_question))
        declared = set(self.parameter_names)
        if placeholders != declared:
            missing = sorted(placeholders - declared)
            extra = sorted(declared - placeholders)
            raise SchemaError(
                f"placeholder/parameter mismatch: in question only {missing}, "
                f"in parameters only {extra}",
                field_path="parameters",
            )
        if len(self.parameter_names) != len(declared):
            raise SchemaError("duplicate parameter names", field_path="parameters")
        if len(self.options) < 2:
            raise SchemaError("need at least 2 options", field_path="options")
        if any(not opt for opt in self.options):
            raise SchemaError("empty option text", field_path="options")
        if len(set(self.options)) != len(self.options):
            raise SchemaError("options must be pairwise distinct", field_path="options")
        try:
            signature = parse_header(self.function_header)
        except ParseError as exc:
            raise SchemaError(str(exc), field_path="function_header") from exc
        object.__setattr__(self, "signature", signature)
        header_params = tuple(name for name, _ in signature)
        if header_params != self.parameter_names:
            raise SchemaError(
                f"function header params {list(header_params)} != "
                f"parameters {list(self.parameter_names)}",
                field_path="function_header",
            )


@dataclass(frozen=True)
class QuestionVariant:
    """One parameter binding with its instantiated question and gold answer."""

    bindings: Mapping[str, str]
    question_text: str
    gold_index: int


@dataclass(frozen=True)
class CohortInstance:
    """One original question plus its 5 surface variants under a shared template."""

    cohort_id: str
    template: AbstractionTemplate
    original: QuestionVariant
    variants: tuple[QuestionVariant, ...]

    def __post_init__(self):
        if len(self.variants) != NUM_VARIANTS:
            raise SchemaError(
                f"expected {NUM_VARIANTS} variants, got {len(self.variants)}",
                field_path="variants",
            )
        _check_binding_keys(self.template, self.original.bindings, "original.bindings")
        for i, variant in enumerate(self.variants):
            _check_binding_keys(self.template, variant.bindings, f"variants[{i}].bindings")

    @property
    def members(self) -> tuple[QuestionVariant, ...]:
        """Original first, then the 5 variants."""
        return (self.original,) + self.variants


def _check_binding_keys(template: AbstractionTemplate, bindings: Mapping[str, str],
                        field_path: str) -> None:
    if set(bindings) != set(template.parameter_names):
        raise SchemaError(
            f"binding keys {sorted(bindings)} != parameters {sorted(template.parameter_names)}",
            field_path=field_path,
        )


def instantiate_template(template: AbstractionTemplate, bindings: Mapping[str, str]) -> str:
    """Substitute every {Placeholder} in the masked question with its binding."""
    _check_binding_keys(template, bindings, "bindings")
    return _PLACEHOLDER_RE.sub(lambda m: str(bindings[m.group(1)]), template.masked_question)


def normalize_question(text: str) -> str:
    """Collapse whitespace runs and drop trailing punctuation for comparisons."""
    return " ".join(text.split()).rstrip(_TRAILING)


def validate_cohort(cohort: CohortInstance) -> list[bool]:
    """Whether each member's question matches the template, original first;
    load checks binding keys and gold range."""
    return [
        normalize_question(instantiate_template(cohort.template, member.bindings))
        == normalize_question(member.question_text)
        for member in cohort.members
    ]


def _gold_to_index(gold, options: tuple[str, ...], field_path: str) -> int:
    """Accept either an option index or an answer letter ('A', 'B', ...)."""
    if isinstance(gold, bool):
        raise SchemaError("gold must be an index or letter, not a bool", field_path)
    if isinstance(gold, int):
        index = gold
    elif isinstance(gold, str) and len(gold) == 1 and gold.upper() in string.ascii_uppercase:
        index = string.ascii_uppercase.index(gold.upper())
    else:
        raise SchemaError(f"unrecognized gold answer {gold!r}", field_path)
    if not 0 <= index < len(options):
        raise SchemaError(f"gold index {index} out of range for {len(options)} options", field_path)
    return index


def _parse_member(obj: dict, options: tuple[str, ...], field_path: str) -> QuestionVariant:
    if not isinstance(obj, dict):
        raise SchemaError("member must be an object", field_path)
    for key in ("bindings", "question", "gold"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}", f"{field_path}.{key}")
    bindings = obj["bindings"]
    if not isinstance(bindings, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in bindings.items()
    ):
        raise SchemaError("bindings must map strings to strings", f"{field_path}.bindings")
    if not isinstance(obj["question"], str):
        raise SchemaError("question must be a string", f"{field_path}.question")
    gold = _gold_to_index(obj["gold"], options, f"{field_path}.gold")
    return QuestionVariant(bindings=dict(bindings), question_text=obj["question"], gold_index=gold)


def parse_cohort(obj: dict) -> CohortInstance:
    """Build one CohortInstance from a decoded JSONL record."""
    required = ("cohort_id", "domain", "masked_question", "parameters", "options",
                "function_header", "original", "variants")
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing key {key!r}", key)
    for key in ("cohort_id", "masked_question", "function_header"):
        if not isinstance(obj[key], str):
            raise SchemaError(f"{key} must be a string, not {obj[key]!r}", key)
    options = obj["options"]
    if not isinstance(options, list) or not all(isinstance(o, str) for o in options):
        raise SchemaError("options must be a list of strings", "options")
    parameters = obj["parameters"]
    if not isinstance(parameters, list) or not all(isinstance(p, str) for p in parameters):
        raise SchemaError("parameters must be a list of strings", "parameters")
    domain = obj["domain"]
    if domain not in KNOWN_DOMAINS:
        raise SchemaError(f"unknown domain {domain!r}, expected one of {KNOWN_DOMAINS}", "domain")
    template = AbstractionTemplate(
        template_id=obj["cohort_id"],
        masked_question=obj["masked_question"],
        parameter_names=tuple(parameters),
        options=tuple(options),
        function_header=obj["function_header"],
        domain_tag=domain,
    )
    original = _parse_member(obj["original"], template.options, "original")
    raw_variants = obj["variants"]
    if not isinstance(raw_variants, list):
        raise SchemaError("variants must be a list", "variants")
    if len(raw_variants) != NUM_VARIANTS:
        raise SchemaError(f"expected {NUM_VARIANTS} variants, got {len(raw_variants)}", "variants")
    variants = tuple(
        _parse_member(v, template.options, f"variants[{i}]")
        for i, v in enumerate(raw_variants)
    )
    return CohortInstance(
        cohort_id=obj["cohort_id"], template=template, original=original, variants=variants
    )


def load_cohorts(path: str | Path) -> list[CohortInstance]:
    """Load all cohorts from a JSONL file, reporting line numbers on failure."""
    return list(read_jsonl(path, lambda obj, line: parse_cohort(obj)))
