"""Deterministic canonical rendering of DSL programs back to source text."""

from __future__ import annotations

from .nodes import (
    Append,
    Assign,
    Binary,
    BuiltinCall,
    Expr,
    ForEach,
    FormatString,
    If,
    Index,
    Interp,
    Literal,
    Program,
    RetrieveCall,
    Return,
    Stmt,
    Unary,
    ValueKind,
    VarRef,
)

INDENT = "    "


def format_program(program: Program) -> str:
    """Render canonical source; parsing it back yields an equal AST."""
    lines = [format_header(program.params) + ":"]
    _format_body(program.body, 1, lines)
    return "\n".join(lines) + "\n"


def format_header(params: tuple[tuple[str, ValueKind], ...]) -> str:
    """The `def answer(...) -> int` line of a signature, without its colon."""
    inner = ", ".join(f"{name}: {kind.value}" for name, kind in params)
    return f"def answer({inner}) -> int"


def _format_body(body: tuple[Stmt, ...], depth: int, lines: list[str]) -> None:
    for stmt in body:
        _format_stmt(stmt, depth, lines)


def _format_stmt(stmt: Stmt, depth: int, lines: list[str]) -> None:
    pad = INDENT * depth
    if isinstance(stmt, Assign):
        lines.append(f"{pad}{stmt.name} = {format_expr(stmt.value)}")
    elif isinstance(stmt, Append):
        lines.append(f"{pad}{stmt.target}.append({format_expr(stmt.value)})")
    elif isinstance(stmt, Return):
        lines.append(f"{pad}return {format_expr(stmt.value)}")
    elif isinstance(stmt, ForEach):
        lines.append(f"{pad}for {stmt.loop_var} in {format_expr(stmt.iterable)}:")
        _format_body(stmt.body, depth + 1, lines)
    elif isinstance(stmt, If):
        for i, (cond, body) in enumerate(stmt.branches):
            keyword = "if" if i == 0 else "elif"
            lines.append(f"{pad}{keyword} {format_expr(cond)}:")
            _format_body(body, depth + 1, lines)
        if stmt.orelse:
            lines.append(f"{pad}else:")
            _format_body(stmt.orelse, depth + 1, lines)
    else:
        raise TypeError(f"unknown statement {stmt!r}")


def format_expr(expr: Expr) -> str:
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, Literal):
        return _format_literal(expr)
    if isinstance(expr, RetrieveCall):
        return f"retrieve({_format_question(expr.question)}, {expr.kind.value})"
    if isinstance(expr, Unary):
        op = "not " if expr.op == "not" else "-"
        return f"({op}{format_expr(expr.operand)})"
    if isinstance(expr, Binary):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, Index):
        return f"{format_expr(expr.base)}[{format_expr(expr.index)}]"
    if isinstance(expr, BuiltinCall):
        args = ", ".join(format_expr(a) for a in expr.args)
        if expr.func == "unique_count":
            return f"len(set({args}))"
        return f"{expr.func}({args})"
    raise TypeError(f"unknown expression {expr!r}")


def _format_literal(lit: Literal) -> str:
    if lit.kind in (ValueKind.BOOL, ValueKind.INT, ValueKind.FLOAT):
        return repr(lit.value)
    if lit.kind is ValueKind.STR:
        return _quote(lit.value)
    if lit.kind is ValueKind.LIST:
        inner = ", ".join(_quote(v) if isinstance(v, str) else repr(v) for v in lit.value)
        return f"[{inner}]"
    raise TypeError(f"unknown literal kind {lit.kind}")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _quote(text: str) -> str:
    return f'"{_escape(text)}"'


def _format_question(question: FormatString) -> str:
    if not question.interpolated_names():
        return _quote("".join(question.segments))  # type: ignore[arg-type]
    parts = []
    for seg in question.segments:
        if isinstance(seg, Interp):
            parts.append("{" + seg.name + "}")
        else:
            parts.append(_escape(seg).replace("{", "{{").replace("}", "}}"))
    return 'f"' + "".join(parts) + '"'
