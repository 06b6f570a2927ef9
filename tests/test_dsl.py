import ast

import pytest

from cohortqa.dsl import (
    MIN_RETRIEVES,
    Assign,
    BuiltinCall,
    ForbiddenConstruct,
    FormatString,
    If,
    Literal,
    ParseError,
    Program,
    RetrieveCall,
    Return,
    SignatureMismatch,
    Unary,
    ValueKind,
    VarRef,
    check_program,
    count_static_retrieves,
    format_program,
    parse_header,
    parse_program,
)
from cohortqa.dsl.parser import MAX_EXPR_DEPTH
from cohortqa.retriever import FactEntry, FactTable, MockRetriever, normalize_question
from cohortqa.runtime import execute

HEADER = "def answer(X: str, Y: str) -> int"


def parse(body: str, header: str = HEADER) -> Program:
    indented = "\n".join("    " + line for line in body.strip("\n").split("\n"))
    return parse_program(f"{header}:\n{indented}\n", header)


# --- parsing -------------------------------------------------------------

def test_parse_header():
    params = parse_header("def answer(A: str, N: int) -> int")
    assert params == (("A", ValueKind.STR), ("N", ValueKind.INT))


def test_parse_header_is_memoized_but_errors_are_not():
    header = "def answer(A: str, N: int) -> int"
    assert parse_header(header) is parse_header(header)
    for _ in range(3):
        with pytest.raises(ParseError):
            parse_header("def answer(A) -> int")


def test_minimal_program():
    program = parse("return 0")
    assert program.param_names == ("X", "Y")
    assert isinstance(program.body[0], Return)


def test_typing_import_line_tolerated():
    source = f"from typing import Any, List\n\n{HEADER}:\n    return 0\n"
    program = parse_program(source, HEADER)
    assert isinstance(program.body[0], Return)


def test_other_imports_rejected():
    source = f"import os\n\n{HEADER}:\n    return 0\n"
    with pytest.raises(ForbiddenConstruct):
        parse_program(source, HEADER)


def test_signature_must_match_header():
    source = "def answer(X: str) -> int:\n    return 0\n"
    with pytest.raises(SignatureMismatch):
        parse_program(source, HEADER)


def test_signature_order_matters():
    source = "def answer(Y: str, X: str) -> int:\n    return 0\n"
    with pytest.raises(SignatureMismatch):
        parse_program(source, HEADER)


def test_retrieve_call_with_interpolation():
    program = parse('v = retrieve(f"Is {X} big?", bool)\nreturn 0')
    assign = program.body[0]
    assert isinstance(assign, Assign)
    call = assign.value
    assert isinstance(call, RetrieveCall)
    assert call.kind is ValueKind.BOOL
    assert call.question.interpolated_names() == ("X",)


def test_plain_string_question_allowed():
    program = parse('v = retrieve("Is water wet?", bool)\nreturn 0')
    call = program.body[0].value
    assert isinstance(call.question, FormatString)
    assert call.question.interpolated_names() == ()


def test_fstring_expression_rejected():
    with pytest.raises(ParseError):
        parse('v = retrieve(f"Is {X + Y} big?", bool)\nreturn 0')


def test_unbound_name_rejected():
    with pytest.raises(ParseError):
        parse("return missing")


def test_interp_of_unbound_name_rejected():
    with pytest.raises(ParseError):
        parse('v = retrieve(f"Is {Nope} big?", bool)\nreturn 0')


def test_len_set_becomes_unique_count():
    program = parse("xs = []\nxs.append(1)\nreturn len(set(xs))")
    ret = program.body[-1]
    assert isinstance(ret.value, BuiltinCall)
    assert ret.value.func == "unique_count"


def test_ternary_desugars_to_if():
    program = parse("return 1 if X == Y else 0")
    stmt = program.body[0]
    assert isinstance(stmt, If)
    assert isinstance(stmt.branches[0][1][0], Return)
    assert isinstance(stmt.orelse[0], Return)


def _run(program: Program, x: str, facts=()):
    """Execute on X=x, Y="b" against a table of (question, bool) facts."""
    table = FactTable({normalize_question(q): FactEntry(ValueKind.BOOL, v) for q, v in facts})
    return execute(program, {"X": x, "Y": "b"}, MockRetriever(table))


def test_statement_ternary_assigns_in_each_branch():
    program = parse("n = 1 if X == Y else 0\nreturn n")
    cond = program.body[0].branches[0][0]
    assert program.body[0] == If(branches=((cond, (Assign("n", Literal(ValueKind.INT, 1)),)),),
                                 orelse=(Assign("n", Literal(ValueKind.INT, 0)),))
    assert parse_program(format_program(program), HEADER) == program
    assert [_run(program, x).answer for x in ("b", "c")] == [1, 0]


def test_negative_number_literals_fold():
    program = parse("n = -2\nm = -1.5\nk = -n\nif m < 0:\n    return k - 1\nreturn n")
    assert [stmt.value for stmt in program.body[:3]] == [
        Literal(ValueKind.INT, -2), Literal(ValueKind.FLOAT, -1.5), Unary("neg", VarRef("n"))]
    assert parse_program(format_program(program), HEADER) == program
    assert _run(program, "a").answer == 1


@pytest.mark.parametrize("question, segments, rendered, answer", [
    ('f"Is " f"{X}" "" f" real" "?"', ("Is ", VarRef("X"), " real?"), "Is a real?", 1),
    ('f"{X}" f"" "{{" f"{{"', (VarRef("X"), "{{{"), "a{{{", 0),  # no fact: rejected
    # the mock's answer to an empty question is an error, which ends the run
    ('f""', ("",), "", None),
    ('f"" ""', ("",), "", None),
])
def test_fstring_literal_runs_merge(question, segments, rendered, answer):
    program = parse(f"v = retrieve({question}, bool)\nif v:\n    return 1\nreturn 0")
    assert program.body[0].value.question.segments == segments
    assert parse_program(format_program(program), HEADER) == program
    result = _run(program, "a", facts=[("Is a real?", True)])
    assert (result.trace[0].rendered_question, result.answer) == (rendered, answer)
    assert result.backend_failed == (not rendered)


def test_elif_chain_flattens():
    program = parse(
        "v = retrieve(f\"Is {X} a?\", bool)\n"
        "w = retrieve(f\"Is {Y} b?\", bool)\n"
        "if v:\n    return 1\nelif w:\n    return 2\nelse:\n    return 0"
    )
    branching = program.body[-1]
    assert isinstance(branching, If)
    assert len(branching.branches) == 2
    assert len(branching.orelse) == 1


@pytest.mark.parametrize(
    "body",
    [
        "while True:\n    pass",
        "return [i for i in X]",
        "return {'a': 1}",
        "return X.upper()",
        "v = 1 < len(X) < 3\nreturn 0",
        "v = 0\nv += 1\nreturn v",
        "return (lambda: 1)()",
        "def inner():\n    return 1\nreturn 0",
        "return print(1)",
        "v = retrieve(f\"Is {X} big?\", tuple)\nreturn 0",
        "import os\nreturn 0",
        "return X * 2",
        "v: int = 1\nreturn v",
    ],
)
def test_forbidden_constructs(body):
    with pytest.raises(ParseError):
        parse(body)


def test_parse_error_carries_location():
    try:
        parse("return 0\nwhile True:\n    pass")
    except ForbiddenConstruct as exc:
        assert exc.span is not None
    else:
        pytest.fail("expected ForbiddenConstruct")


@pytest.mark.parametrize(
    "body, message",
    [
        ("return 0\nwhile True:\n    pass", "forbidden construct: While (line 3, col 5)"),
        ("for x in [1]:\n    v = missing\nreturn 0", "unbound name 'missing' (line 3, col 13)"),
        ("return (", "'(' was never closed (line 2, col 12)"),
    ],
)
def test_parse_error_message_names_line_and_column(body, message):
    with pytest.raises(ParseError) as excinfo:
        parse(body)
    assert str(excinfo.value) == message


# --- expression depth ----------------------------------------------------

def _sum_of_ones(terms: int) -> str:
    return " + ".join(["1"] * terms)


def _in_nested_ifs(ifs: int, statement: str) -> str:
    """A body that reaches `statement` through `ifs` nested ifs."""
    lines = [f"{'    ' * i}if X == X:" for i in range(ifs)]
    return "\n".join([*lines, "    " * ifs + statement, "return 0"])


def _at_depth(frames: int, call):
    return call() if frames == 0 else _at_depth(frames - 1, call)


def test_an_expression_at_the_depth_bound_parses_formats_checks_and_runs():
    # 98 ifs are 99 indents with the body's own, where CPython's bound is 100;
    # the caller is 200 frames deep already
    program = parse(_in_nested_ifs(98, f"return {_sum_of_ones(MAX_EXPR_DEPTH)}"))
    assert parse_program(format_program(program), HEADER) == program
    assert check_program(program).every_path_returns
    result = _at_depth(200, lambda: execute(program, {"X": "a", "Y": "b"},
                                            MockRetriever(FactTable({}))))
    assert (result.status, result.answer) == ("answered", MAX_EXPR_DEPTH)


_TOO_DEEP = f"forbidden construct: expression nested deeper than {MAX_EXPR_DEPTH}"


@pytest.mark.parametrize("terms", [MAX_EXPR_DEPTH + 1, 332, 1000, 50000])
def test_an_expression_past_the_depth_bound_is_forbidden(terms):
    with pytest.raises(ForbiddenConstruct) as excinfo:
        parse(f"v = 0\nreturn {_sum_of_ones(terms)}")
    # past ast.parse's own bound the position is unknown
    assert str(excinfo.value) in (f"{_TOO_DEEP} (line 3, col 12)", _TOO_DEEP)
    if terms <= 1000:
        assert excinfo.value.span == (3, 12)


def _xs(terms: int) -> str:
    return " + ".join(["X"] * terms)


@pytest.mark.parametrize("op", ["and", "or"])
def test_a_flat_boolean_chain_counts_as_deep_as_it_folds(op):
    # `a and b and c` folds to ((a and b) and c): the first value of n sits
    # n levels down, the last one 2; a compare and its sum add 1 + terms
    def chain(*values):
        return parse(f"if {f' {op} '.join(values)}:\n    return 1\nreturn 0")

    for values in (["True"] * MAX_EXPR_DEPTH, ["True", f"X == {_xs(MAX_EXPR_DEPTH - 2)}"]):
        assert isinstance(chain(*values).body[0], If)
    for values in (["True"] * (MAX_EXPR_DEPTH + 1), ["True", f"X == {_xs(MAX_EXPR_DEPTH - 1)}"],
                   ["True"] * 3000):
        with pytest.raises(ForbiddenConstruct, match=_TOO_DEEP):
            chain(*values)


@pytest.mark.parametrize("expression", [
    "not " * MAX_EXPR_DEPTH + "True",
    "-" * MAX_EXPR_DEPTH + "X",
    "[" + _sum_of_ones(MAX_EXPR_DEPTH) + "]",
    "len(" * MAX_EXPR_DEPTH + "X" + ")" * MAX_EXPR_DEPTH,
])
def test_every_nesting_expression_counts_toward_the_depth_bound(expression):
    with pytest.raises(ForbiddenConstruct, match=_TOO_DEEP):
        parse(f"v = {expression}\nreturn 0")


def test_a_header_past_the_parser_bound_is_a_parse_error():
    with pytest.raises(ForbiddenConstruct, match=_TOO_DEEP):
        parse_header(f"def answer(X: {_sum_of_ones(50000)}) -> int")


# --- formatting and round-trip -------------------------------------------

def test_format_emits_header_and_indent():
    program = parse("return 0")
    assert format_program(program) == f"{HEADER}:\n    return 0\n"


def test_format_fstring_only_when_interpolated():
    program = parse(
        'a = retrieve(f"Is {X} big?", bool)\n'
        'b = retrieve("Is water wet?", bool)\n'
        "return 0"
    )
    text = format_program(program)
    assert 'f"Is {X} big?"' in text
    assert '"Is water wet?"' in text
    assert 'f"Is water wet?"' not in text


def test_format_escapes_braces_in_plain_text():
    program = parse('a = retrieve(f"Is {X} in {Y}? (set {{1}})", bool)\nreturn 0')
    text = format_program(program)
    assert "{{1}}" in text
    assert parse_program(text, HEADER) == program


def test_roundtrip_exemplar_corpus(exemplar_corpus):
    for record in exemplar_corpus:
        first = parse_program(record["source"], record["header"])
        second = parse_program(format_program(first), record["header"])
        assert first == second, record["name"]


# --- static checks -------------------------------------------------------

def test_check_counts_static_retrieves():
    program = parse(
        'a = retrieve(f"Is {X} a?", bool)\n'
        'b = retrieve(f"Is {Y} b?", bool)\n'
        "if a and b:\n    return 1\nreturn 0"
    )
    report = check_program(program)
    assert count_static_retrieves(program) == 2
    assert report.static_retrieve_count == MIN_RETRIEVES
    assert report.meets_min_retrieves
    assert report.all_params_used
    assert report.every_path_returns
    assert report.ok


def test_check_flags_unused_param():
    program = parse('a = retrieve(f"Is {X} a?", bool)\nreturn 0')
    report = check_program(program)
    assert not report.all_params_used
    assert report.unused_params == ("Y",)
    assert not report.meets_min_retrieves
    assert not report.ok


def test_interpolation_counts_as_param_use():
    program = parse(
        'a = retrieve(f"Is {X} near {Y}?", bool)\n'
        'b = retrieve(f"Is {X} big?", bool)\n'
        "return 0"
    )
    assert check_program(program).all_params_used


def test_expression_reference_counts_as_param_use():
    program = parse('a = retrieve(f"Is {X} a?", bool)\nif Y == "b":\n    return 1\nreturn 0')
    assert check_program(program).unused_params == ()


def test_if_without_else_does_not_guarantee_return():
    program = parse(
        'a = retrieve(f"Is {X} a?", bool)\n'
        'b = retrieve(f"Is {Y} b?", bool)\n'
        "if a:\n    return 1"
    )
    report = check_program(program)
    assert not report.every_path_returns
    assert not report.ok


def test_loop_body_return_does_not_guarantee_return():
    program = parse(
        'items = retrieve(f"List things near {X} and {Y}", list)\n'
        'flags = retrieve(f"Is {X} a?", bool)\n'
        "for item in items:\n    return 0"
    )
    assert not check_program(program).every_path_returns


def test_exemplars_pass_checks(exemplar_corpus):
    # one exemplar deliberately leaves a parameter unused; all satisfy the
    # two-retrieve minimum and full path coverage
    unused_allowed = {"cold_reaction"}
    for record in exemplar_corpus:
        program = parse_program(record["source"], record["header"])
        report = check_program(program)
        assert report.meets_min_retrieves, record["name"]
        assert report.every_path_returns, record["name"]
        if record["name"] not in unused_allowed:
            assert report.all_params_used, record["name"]


def _ast_check(source: str) -> tuple[int, tuple[str, ...]]:
    """(retrieve calls, unused parameters) read off CPython's own `ast` of
    `source`. A parameter is used when the function body loads its name;
    called names, retrieve's kind argument and `.append` receivers are not
    loads of a value."""
    function = next(node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef))
    nodes = [node for stmt in function.body for node in ast.walk(stmt)]
    not_read, retrieves = set(), 0
    for node in nodes:
        if isinstance(node, ast.Call):
            func = node.func
            not_read.add(func.value if isinstance(func, ast.Attribute) else func)
            if isinstance(func, ast.Name) and func.id == "retrieve":
                retrieves += 1
                not_read.add(node.args[1])
    loaded = {node.id for node in nodes
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node not in not_read}
    return retrieves, tuple(arg.arg for arg in function.args.args if arg.arg not in loaded)


# Each puts a parameter, or a retrieve, under one node field and nowhere else,
# so a walk that skips that field disagrees with CPython's ast.
_FIELD_SOURCES = [
    # Index.index: a name and a retrieve; Index.base: a retrieve
    'def answer(X: str, N: int) -> int:\n'
    '    films = retrieve(f"Which films star {X}?", list)\n'
    '    first = films[N]\n'
    '    ranked = retrieve("Which films won?", list)[retrieve(f"Rank of {X}?", int)]\n'
    '    return 0\n',
    # Unary.operand: unary minus on a name, and not on a retrieve
    'def answer(X: str, N: int) -> int:\n'
    '    known = not retrieve(f"Is {X} known?", bool)\n'
    '    return -N\n',
    # an elif chain: If.branches' conditions and bodies, and If.orelse
    'def answer(X: str, Y: str, Z: str) -> int:\n'
    '    if retrieve(f"Is {X} old?", bool):\n'
    '        return 0\n'
    '    elif retrieve(f"Is {Y} old?", bool):\n'
    '        return len(retrieve(f"Who knows {Z}?", list))\n'
    '    else:\n'
    '        return len(retrieve("Which are old?", list))\n',
    # a conditional assignment: Assign.value in both arms, Y only in orelse
    'def answer(X: str, Y: str) -> int:\n'
    '    pick = X if retrieve("Is it left?", bool) else Y\n'
    '    return 0\n',
    # a list literal of strings; ForEach.iterable and body; Append.value
    'def answer(X: str, Y: str) -> int:\n'
    '    names = ["left", "right"]\n'
    '    for film in retrieve(f"Films of {X}?", list):\n'
    '        names.append(retrieve(f"Is {film} by {Y}?", str))\n'
    '    return 0\n',
    # BuiltinCall.args; Binary.left and Binary.right, each with a name only there
    'def answer(X: str, Y: str) -> int:\n'
    '    n = len(set(retrieve(f"Films of {X}?", list)))\n'
    '    return any(retrieve("Which won?", list)) and (Y == "b")\n',
    'def answer(X: str, Y: str) -> int:\n'
    '    n = retrieve("Which won?", int) - 1\n'
    '    return 1 + (X == retrieve("Who won?", str))\n',
]


def test_checker_agrees_with_cpython_ast(exemplar_corpus):
    from fuzz_gen import HEADER as FUZZ_HEADER, random_valid_source

    cases = [(random_valid_source(seed), FUZZ_HEADER) for seed in range(1000)]
    cases += [(record["source"], record["header"]) for record in exemplar_corpus]
    cases += [(source, source.split(":\n", 1)[0]) for source in _FIELD_SOURCES]
    for source, header in cases:
        report = check_program(parse_program(source, header))
        assert (report.static_retrieve_count, report.unused_params) == _ast_check(source), source


def test_fuzz_roundtrip_sample():
    from fuzz_gen import HEADER as FUZZ_HEADER, random_valid_source

    for seed in range(50):
        source = random_valid_source(seed)
        first = parse_program(source, FUZZ_HEADER)
        assert parse_program(format_program(first), FUZZ_HEADER) == first


def test_fuzz_invalid_sample_never_crashes():
    from fuzz_gen import HEADER as FUZZ_HEADER, random_invalid_source

    for seed in range(200):
        source = random_invalid_source(seed)
        try:
            parse_program(source, FUZZ_HEADER)
        except ParseError:
            pass
