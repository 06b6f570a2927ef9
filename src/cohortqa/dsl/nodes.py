"""Immutable AST for the restricted answer-program language.

Nodes hold only what the interpreter, the checker and the formatter read:
no source locations (a ``ParseError`` carries its own) and one name node,
``VarRef``, for parameters, locals and a retrieve question's {name} slots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class ValueKind(enum.Enum):
    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    LIST = "list"

    @classmethod
    def from_name(cls, name: str) -> "ValueKind":
        return KINDS[name]


# the one table of kind names: headers, retrieve calls and fact files read it
KINDS = {kind.value: kind for kind in ValueKind}


# --- Expressions ---------------------------------------------------------

@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Literal:
    kind: ValueKind
    value: object


@dataclass(frozen=True)
class FormatString:
    """Alternating literal text and {name} slots, each slot a `VarRef`."""

    segments: tuple[Union[str, VarRef], ...]

    def interpolated_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.segments if isinstance(s, VarRef))


@dataclass(frozen=True)
class RetrieveCall:
    question: FormatString
    kind: ValueKind


@dataclass(frozen=True)
class Unary:
    op: str  # "not" | "neg"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Index:
    base: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class BuiltinCall:
    func: str  # len | all | any | unique_count (the `len(set(...))` idiom)
    args: tuple["Expr", ...]


Expr = Union[VarRef, Literal, RetrieveCall, Unary, Binary, Index, BuiltinCall]


# --- Statements ----------------------------------------------------------

@dataclass(frozen=True)
class Assign:
    name: str
    value: Expr


@dataclass(frozen=True)
class Append:
    target: str
    value: Expr


@dataclass(frozen=True)
class If:
    """if/elif chain with an optional else body."""

    branches: tuple[tuple[Expr, tuple["Stmt", ...]], ...]
    orelse: tuple["Stmt", ...]


@dataclass(frozen=True)
class ForEach:
    loop_var: str
    iterable: Expr
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class Return:
    value: Expr


Stmt = Union[Assign, Append, If, ForEach, Return]


@dataclass(frozen=True)
class Program:
    """A parsed answer() function: typed params and a statement body."""

    params: tuple[tuple[str, ValueKind], ...]
    body: tuple[Stmt, ...]

    def __post_init__(self):
        names = [name for name, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        if not self.body:
            raise ValueError("empty program body")

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)

