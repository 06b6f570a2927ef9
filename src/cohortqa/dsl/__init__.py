"""Restricted program language: AST, parser, canonical formatter, static checks."""

from .checker import MIN_RETRIEVES, CheckReport, check_program, count_static_retrieves
from .formatter import format_header, format_program
from .nodes import (
    KINDS,
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
    statement_exprs,
    walk_exprs,
    walk_statements,
)
from .parser import (
    ForbiddenConstruct,
    ParseError,
    ProgramSyntaxError,
    SignatureMismatch,
    Span,
    parse_header,
    parse_program,
)

__all__ = [
    "KINDS", "Append", "Assign", "Binary", "BuiltinCall", "CheckReport",
    "Expr", "ForEach", "ForbiddenConstruct", "FormatString", "If", "Index",
    "Interp", "Literal", "MIN_RETRIEVES", "ParseError", "Program",
    "ProgramSyntaxError", "RetrieveCall", "Return", "SignatureMismatch",
    "Span", "Stmt", "Unary", "ValueKind", "VarRef",
    "check_program", "count_static_retrieves", "format_header", "format_program",
    "parse_header", "parse_program", "statement_exprs", "walk_exprs",
    "walk_statements",
]
