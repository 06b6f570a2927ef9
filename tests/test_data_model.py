import json

import pytest

from cohortqa.data_model import (
    COHORT_SIZE,
    AbstractionTemplate,
    CohortInstance,
    QuestionVariant,
    SchemaError,
    instantiate_template,
    load_cohorts,
    normalize_question,
    parse_cohort,
    read_jsonl,
    validate_cohort,
)
from cohortqa.dsl import ValueKind, parse_header


def _template(**overrides):
    base = dict(
        masked_question="Is {X} bigger than {Y}?",
        parameter_names=("X", "Y"),
        options=("No", "Yes"),
        function_header="def answer(X: str, Y: str) -> int",
        domain_tag="other",
    )
    base.update(overrides)
    return AbstractionTemplate(**base)


def test_template_accepts_matching_header():
    t = _template()
    assert t.parameter_names == ("X", "Y")


def test_template_rejects_placeholder_mismatch():
    with pytest.raises(SchemaError):
        _template(parameter_names=("X",), function_header="def answer(X: str) -> int")


def test_template_rejects_header_param_mismatch():
    with pytest.raises(SchemaError):
        _template(function_header="def answer(Y: str, X: str) -> int")


@pytest.mark.parametrize("header", [
    "def answer(X: str, Y: str) -> int",
    "def answer(X: bool, Y: list) -> int:",
    "  def answer( X : int,Y:float )->int  ",
])
def test_template_signature_is_the_parsed_header(header):
    t = _template(function_header=header)
    assert t.signature == parse_header(header)
    assert [name for name, _ in t.signature] == ["X", "Y"]
    # the signature follows from the header, so it is neither compared nor shown
    assert t == _template(function_header=header)
    assert "signature" not in repr(t)


def test_template_signature_holds_the_kinds():
    t = _template(function_header="def answer(X: bool, Y: list) -> int")
    assert t.signature == (("X", ValueKind.BOOL), ("Y", ValueKind.LIST))


@pytest.mark.parametrize("header, message", [
    ("def answer(X: str, Y: dict) -> int",
     "signature mismatch: expected 'parameter annotated with int/float/str/bool/list', "
     "found 'Y: dict'"),
    ("def answer(X, Y) -> int",
     "signature mismatch: expected 'parameter annotated with int/float/str/bool/list', "
     "found 'X: <missing>'"),
    ("def answer(X: str, Y: str) -> str", "signature mismatch: expected '-> int', found 'str'"),
    ("def answer(X: str, Y: str)", "signature mismatch: expected '-> int', found '<missing>'"),
    ("def ask(X: str, Y: str) -> int",
     "signature mismatch: expected 'def answer(...)', found 'def ask(...)'"),
    ("def answer(X: str, *Y: str) -> int",
     "forbidden construct: non-positional parameters (line 1, col 1)"),
    ("answer(X: str, Y: str) -> int", "unparseable header: invalid syntax"),
    ("class answer", "header must be a single function definition"),
], ids=["dict-kind", "missing-kind", "str-return", "missing-return", "other-name",
        "star-parameter", "no-def", "class"])
def test_template_rejects_an_unparseable_header(header, message):
    with pytest.raises(SchemaError) as excinfo:
        _template(function_header=header)
    assert str(excinfo.value) == f"{message} (at function_header)"


def test_template_rejects_single_option():
    with pytest.raises(SchemaError):
        _template(options=("Yes",))


def test_template_rejects_duplicate_options():
    with pytest.raises(SchemaError):
        _template(options=("Yes", "Yes"))


def test_instantiate_template_substitutes_all():
    t = _template()
    text = instantiate_template(t, {"X": "the Sun", "Y": "the Moon"})
    assert text == "Is the Sun bigger than the Moon?"


def test_instantiate_template_rejects_missing_binding():
    with pytest.raises(SchemaError):
        instantiate_template(_template(), {"X": "a"})


def _member(t, x, y, gold, question=None):
    bindings = {"X": x, "Y": y}
    return QuestionVariant(
        bindings=bindings,
        question_text=question or instantiate_template(t, bindings),
        gold_index=gold,
    )


def _cohort(t, members):
    return CohortInstance(
        cohort_id="c0", template=t, original=members[0], variants=tuple(members[1:])
    )


def test_cohort_requires_five_variants():
    t = _template()
    members = [_member(t, f"a{i}", f"b{i}", 0) for i in range(3)]
    with pytest.raises(SchemaError):
        _cohort(t, members)


def test_members_property_puts_original_first():
    t = _template()
    members = [_member(t, f"a{i}", f"b{i}", i % 2) for i in range(COHORT_SIZE)]
    cohort = _cohort(t, members)
    assert cohort.members[0] is cohort.original
    assert len(cohort.members) == COHORT_SIZE


def test_validate_cohort_ok_and_punctuation_insensitive():
    t = _template()
    members = [_member(t, f"a{i}", f"b{i}", 0) for i in range(COHORT_SIZE)]
    # trailing punctuation and doubled spaces are normalized away
    members[2] = _member(t, "a2", "b2", 0, question="Is a2  bigger than b2")
    assert all(validate_cohort(_cohort(t, members)))


def test_validate_cohort_flags_text_mismatch():
    t = _template()
    members = [_member(t, f"a{i}", f"b{i}", 0) for i in range(COHORT_SIZE)]
    members[3] = _member(t, "a3", "b3", 0, question="Is something else entirely?")
    matches = validate_cohort(_cohort(t, members))
    assert not all(matches)
    assert not matches[3]
    assert matches[0]


def _record(t=None):
    return {
        "cohort_id": "c1",
        "domain": "other",
        "masked_question": "Is {X} bigger than {Y}?",
        "parameters": ["X", "Y"],
        "options": ["No", "Yes"],
        "function_header": "def answer(X: str, Y: str) -> int",
        "original": {
            "bindings": {"X": "a", "Y": "b"},
            "question": "Is a bigger than b?",
            "gold": 1,
        },
        "variants": [
            {
                "bindings": {"X": f"a{i}", "Y": f"b{i}"},
                "question": f"Is a{i} bigger than b{i}?",
                "gold": 0,
            }
            for i in range(5)
        ],
    }


def test_parse_cohort_roundtrip():
    cohort = parse_cohort(_record())
    assert cohort.cohort_id == "c1"
    assert cohort.original.gold_index == 1
    assert all(validate_cohort(cohort))


def _cohorts_file(tmp_path, record, line):
    """A cohort file whose `line` holds `record`, after good cohorts."""
    path = tmp_path / "cohorts.jsonl"
    good = [json.dumps(dict(_record(), cohort_id=f"ok{i}")) for i in range(line - 1)]
    path.write_text("\n".join([*good, json.dumps(record)]) + "\n", encoding="utf-8")
    return path


def test_parse_cohort_accepts_letter_gold():
    record = _record()
    record["original"]["gold"] = "B"
    assert parse_cohort(record).original.gold_index == 1


def test_parse_cohort_rejects_bool_gold():
    record = _record()
    record["original"]["gold"] = True
    with pytest.raises(SchemaError):
        parse_cohort(record)


def test_gold_out_of_range_fails_at_load_naming_the_member(tmp_path):
    record = _record()
    record["variants"][0]["gold"] = 5
    path = _cohorts_file(tmp_path, record, 3)
    with pytest.raises(SchemaError) as info:
        load_cohorts(path)
    assert str(info.value) == (
        f"{path}: line 3: gold index 5 out of range for 2 options (at variants[0].gold)"
    )


def test_parse_cohort_rejects_unknown_domain():
    record = _record()
    record["domain"] = "trivia"
    with pytest.raises(SchemaError):
        parse_cohort(record)


def test_parse_cohort_missing_key_names_field(tmp_path):
    record = _record()
    del record["options"]
    with pytest.raises(SchemaError) as excinfo:
        load_cohorts(_cohorts_file(tmp_path, record, 7))
    assert "options" in str(excinfo.value)
    assert "line 7" in str(excinfo.value)


@pytest.mark.parametrize("key, value", [
    ("cohort_id", None),
    ("cohort_id", 5),
    ("masked_question", 5),
    ("function_header", 5),
    ("function_header", ["def answer(X: str, Y: str) -> int"]),
])
def test_parse_cohort_text_fields_must_be_strings(tmp_path, key, value):
    record = _record()
    record[key] = value
    path = _cohorts_file(tmp_path, record, 3)
    with pytest.raises(SchemaError) as excinfo:
        load_cohorts(path)
    assert str(excinfo.value) == (
        f"{path}: line 3: {key} must be a string, not {value!r} (at {key})")


def test_load_cohorts_reports_line_of_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_record()) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(SchemaError) as excinfo:
        load_cohorts(path)
    assert excinfo.value.line == 2


def test_load_cohorts_fixture(film_cohort):
    assert film_cohort.cohort_id == "hotpotqa-film-0001"
    assert all(validate_cohort(film_cohort))
    assert [m.gold_index for m in film_cohort.members] == [1, 0, 1, 1, 0, 1]


def test_normalize_question_keeps_case():
    assert normalize_question("  Is   WATER wet?? ") == "Is WATER wet"


def test_read_jsonl_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"a": 2}\n', encoding="utf-8")
    assert list(read_jsonl(path, lambda record, line: (line, record["a"]))) == [(1, 1), (4, 2)]


@pytest.mark.parametrize("text, message", [
    ('{"a": 1}\n{"a": \n', "malformed JSON: "),
    ('{"a": 1}\n[1]\n', "not a JSON object"),
    ('{"a": 1}\n{"b": 2}\n', "missing key 'a' (at a)"),
    ('{"a": 1}\n{"a": -1}\n', "negative"),
])
def test_read_jsonl_errors_name_file_and_line(tmp_path, text, message):
    path = tmp_path / "records.jsonl"
    path.write_text(text, encoding="utf-8")

    def parse(record, line):
        if record["a"] < 0:
            raise ValueError("negative")
        return record["a"]

    with pytest.raises(SchemaError) as excinfo:
        list(read_jsonl(path, parse, types={"a": int}))
    assert excinfo.value.line == 2
    assert str(excinfo.value).startswith(f"{path}: line 2: {message}")


_FACT = '{"q": "Is A a B?", "kind": "bool", "value": true}'


@pytest.mark.parametrize("raw, message", [
    (" \t" + _FACT + "\n", None),
    (_FACT + " \t \n", None),
    (_FACT, None),
    (_FACT + "\x0b\n", "malformed JSON: Extra data"),
    (_FACT + "x\n", "malformed JSON: Extra data"),
    ("\ufeff" + _FACT + "\n", "malformed JSON: Expecting value"),
    ("tru\n", "malformed JSON: Expecting value"),
    (_FACT.replace('"bool"', '["bool"]') + "\n", "['bool'] is not a valid ValueKind"),
    (_FACT.replace('"bool"', "3") + "\n", "3 is not a valid ValueKind"),
])
def test_fact_line_edge_cases(tmp_path, raw, message):
    """JSON whitespace around a record is accepted; anything else left over,
    a byte-order mark and an unknown kind each get the decoder's or the
    enum's own words."""
    from cohortqa.retriever import FactTable

    path = tmp_path / "facts.jsonl"
    path.write_text(raw, encoding="utf-8")
    if message is None:
        assert FactTable.from_jsonl(path).lookup("is a a b").value is True
        return
    with pytest.raises(SchemaError) as excinfo:
        FactTable.from_jsonl(path)
    assert str(excinfo.value) == f"{path}: line 1: {message}"
