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
    Literal,
    Program,
    RetrieveCall,
    Return,
    Stmt,
    Unary,
    ValueKind,
    VarRef,
)
from .parser import ForbiddenConstruct, ParseError, SignatureMismatch, parse_header, parse_program

__all__ = [
    "KINDS", "Append", "Assign", "Binary", "BuiltinCall", "CheckReport",
    "Expr", "ForEach", "ForbiddenConstruct", "FormatString", "If", "Index",
    "Literal", "MIN_RETRIEVES", "ParseError", "Program",
    "RetrieveCall", "Return", "SignatureMismatch", "Stmt", "Unary", "ValueKind", "VarRef",
    "check_program", "count_static_retrieves", "format_header", "format_program",
    "parse_header", "parse_program",
]
