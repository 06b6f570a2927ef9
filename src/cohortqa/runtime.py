"""Sandboxed tree-walking interpreter for parsed answer programs.

Every retrieve() call is routed through a Retriever; rejected lookups
substitute the kind-default value and execution continues. Hard limits cap
retrieve calls, interpreter steps, and list sizes.

A run ends at a `return` by a returned flag, not an exception: the statement
stores its value on the interpreter and returns True, and every enclosing
body passes that True up at once. Failures and limit trips still raise.
Nodes dispatch on their exact class (`node.__class__ is Assign`), so the DSL
node classes are never subclassed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

from .dsl import (
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
from .retriever import (
    OUTCOME_REJECTED,
    OUTCOME_VALUE,
    Retriever,
    RetrieveRequest,
)

STATUS_ANSWERED = "answered"
STATUS_FAILURE = "runtime_failure"
STATUS_LIMIT = "limit_exceeded"

LIMIT_RETRIEVES = "retrieves"
LIMIT_STEPS = "steps"
LIMIT_LIST = "list"

KIND_DEFAULTS = {
    ValueKind.BOOL: False,
    ValueKind.INT: 0,
    ValueKind.FLOAT: 0.0,
    ValueKind.STR: "",
    ValueKind.LIST: (),
}


@dataclass(frozen=True)
class ExecutionLimits:
    max_retrieve_calls: int = 64
    max_steps: int = 10_000
    max_list_len: int = 1024

    def __post_init__(self):
        if min(self.max_retrieve_calls, self.max_steps, self.max_list_len) <= 0:
            raise ValueError("all limits must be strictly positive")


class RetrieveEvent(NamedTuple):
    rendered_question: str
    requested_kind: ValueKind
    outcome: str  # value | rejected | error
    value: object = None
    reason: str = ""

    def to_json(self) -> dict:
        obj = {
            "q": self.rendered_question,
            "kind": self.requested_kind.value,
            "outcome": self.outcome,
        }
        if self.outcome == OUTCOME_VALUE:
            obj["value"] = list(self.value) if isinstance(self.value, tuple) else self.value
        if self.reason:
            obj["reason"] = self.reason
        return obj


class ExecutionResult(NamedTuple):
    status: str  # answered | runtime_failure | limit_exceeded
    answer: Optional[int] = None
    failure_reason: str = ""
    limit_which: str = ""
    was_rejected: bool = False
    trace: tuple[RetrieveEvent, ...] = ()

    @property
    def dynamic_retrieve_count(self) -> int:
        return len(self.trace)


class _RuntimeFailure(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class _LimitExceeded(Exception):
    def __init__(self, which: str):
        self.which = which
        super().__init__(which)


def render_value(value) -> str:
    """Canonical text rendering used for f-string interpolation."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(render_value(v) for v in value)
    raise TypeError(f"unrenderable value {value!r}")


def render_question(fstring: FormatString, env: Mapping[str, object]) -> str:
    """Resolve interpolations against env; a miss is a runtime failure."""
    parts = []
    for seg in fstring.segments:
        if seg.__class__ is str:
            parts.append(seg)
        else:
            try:
                parts.append(render_value(env[seg.name]))
            except KeyError:
                raise _RuntimeFailure(f"unbound name {seg.name!r} in retrieve question") from None
    return "".join(parts)


def _coerce_binding(kind: ValueKind, text: str):
    """Convert a binding for a parameter of any kind but str, which binds as-is."""
    try:
        if kind is ValueKind.INT:
            return int(text)
        if kind is ValueKind.FLOAT:
            return float(text)
        if kind is ValueKind.BOOL:
            return {"true": True, "false": False}[text.strip().casefold()]
    except (ValueError, KeyError):
        raise _RuntimeFailure(f"cannot coerce binding {text!r} to {kind.value}") from None
    raise _RuntimeFailure(f"unsupported parameter kind {kind.value}")


class _Interpreter:
    def __init__(self, retriever: Retriever, limits: ExecutionLimits):
        self.retriever = retriever
        self.limits = limits
        self.env: dict[str, object] = {}
        self.trace: list[RetrieveEvent] = []
        self.was_rejected = False
        self.returned = None  # the value of the `return` that ended the run
        self.steps = 0  # one per statement and per expression
        self.max_steps = limits.max_steps
        self.max_retrieve_calls = limits.max_retrieve_calls

    # -- statements --

    # A statement returns True when a `return` ran in it: the value is in
    # self.returned, and every enclosing body stops at once.

    def exec_body(self, body: tuple[Stmt, ...]) -> bool:
        for stmt in body:
            if self.exec_stmt(stmt):
                return True
        return False

    def exec_stmt(self, stmt: Stmt) -> bool:
        self.steps += 1
        if self.steps > self.max_steps:
            raise _LimitExceeded(LIMIT_STEPS)
        # exact classes, most frequent first; node classes are never subclassed
        cls = stmt.__class__
        if cls is Assign:
            self.env[stmt.name] = self.eval(stmt.value)
            return False
        if cls is If:
            for cond, body in stmt.branches:
                if self._eval_bool(cond, "if condition"):
                    return self.exec_body(body)
            return self.exec_body(stmt.orelse)
        if cls is Return:
            self.returned = self.eval(stmt.value)
            return True
        if cls is ForEach:
            iterable = self.eval(stmt.iterable)
            if not isinstance(iterable, (list, tuple)):
                raise _RuntimeFailure("for-loop iterable is not a list")
            if len(iterable) > self.limits.max_list_len:
                raise _LimitExceeded(LIMIT_LIST)
            for item in list(iterable):
                self.env[stmt.loop_var] = item
                if self.exec_body(stmt.body):
                    return True
            return False
        if cls is Append:
            try:
                target = self.env[stmt.target]
            except KeyError:
                raise _RuntimeFailure(f"unbound name {stmt.target!r}") from None
            if not isinstance(target, list):
                raise _RuntimeFailure(f"append target {stmt.target!r} is not a list")
            if len(target) >= self.limits.max_list_len:
                raise _LimitExceeded(LIMIT_LIST)
            target.append(self.eval(stmt.value))
            return False
        raise _RuntimeFailure(f"unknown statement {type(stmt).__name__}")

    # -- expressions --

    # `context` names the operand in a failure, with {} for `op`; it is
    # formatted only when the check fails

    def _eval_bool(self, expr: Expr, context: str, op: str = "") -> bool:
        value = self.eval(expr)
        if not isinstance(value, bool):
            raise _RuntimeFailure(f"{context.format(op)} is not a bool: {value!r}")
        return value

    def _eval_number(self, expr: Expr, context: str, op: str = ""):
        value = self.eval(expr)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _RuntimeFailure(f"{context.format(op)} is not a number: {value!r}")
        return value

    def eval(self, expr: Expr):
        self.steps += 1
        if self.steps > self.max_steps:
            raise _LimitExceeded(LIMIT_STEPS)
        cls = expr.__class__
        if cls is VarRef:
            try:
                return self.env[expr.name]
            except KeyError:
                raise _RuntimeFailure(f"unbound name {expr.name!r}") from None
        if cls is Literal:
            if expr.kind is ValueKind.LIST:
                return list(expr.value)
            return expr.value
        if cls is Binary:
            return self._eval_binary(expr)
        if cls is RetrieveCall:
            return self._eval_retrieve(expr)
        if cls is Index:
            return self._eval_index(expr)
        if cls is BuiltinCall:
            return self._eval_builtin(expr)
        if cls is Unary:
            if expr.op == "not":
                return not self._eval_bool(expr.operand, "operand of not")
            return -self._eval_number(expr.operand, "operand of unary minus")
        raise _RuntimeFailure(f"unknown expression {type(expr).__name__}")

    def _eval_retrieve(self, expr: RetrieveCall):
        if len(self.trace) >= self.max_retrieve_calls:
            raise _LimitExceeded(LIMIT_RETRIEVES)
        question = render_question(expr.question, self.env)
        kind = expr.kind
        outcome, value, reason = self.retriever.retrieve(RetrieveRequest(question, kind))
        self.trace.append(RetrieveEvent(question, kind, outcome, value, reason))
        if outcome == OUTCOME_VALUE:
            if kind is ValueKind.LIST:
                value = list(value)
                if len(value) > self.limits.max_list_len:
                    raise _LimitExceeded(LIMIT_LIST)
            return value
        if outcome == OUTCOME_REJECTED:
            self.was_rejected = True
            default = KIND_DEFAULTS[kind]
            return list(default) if kind is ValueKind.LIST else default
        raise _RuntimeFailure(f"retriever backend error: {reason}")

    def _eval_binary(self, expr: Binary):
        op = expr.op
        if op in ("and", "or"):
            left = self._eval_bool(expr.left, "left operand of {}", op)
            if op == "and" and not left:
                return False
            if op == "or" and left:
                return True
            return self._eval_bool(expr.right, "right operand of {}", op)
        if op in ("==", "!="):
            left, right = self.eval(expr.left), self.eval(expr.right)
            return (left == right) if op == "==" else (left != right)
        if op in ("<", "<=", ">", ">="):
            left = self._eval_number(expr.left, "left operand of {}", op)
            right = self._eval_number(expr.right, "right operand of {}", op)
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            return left > right if op == ">" else left >= right
        if op in ("+", "-"):
            left = self._eval_number(expr.left, "left operand of {}", op)
            right = self._eval_number(expr.right, "right operand of {}", op)
            return left + right if op == "+" else left - right
        raise _RuntimeFailure(f"unknown operator {op!r}")

    def _eval_index(self, expr: Index):
        base = self.eval(expr.base)
        if not isinstance(base, (list, tuple)):
            raise _RuntimeFailure("indexing a non-list value")
        index = self.eval(expr.index)
        if isinstance(index, bool) or not isinstance(index, int):
            raise _RuntimeFailure(f"list index is not an integer: {index!r}")
        if not -len(base) <= index < len(base):
            raise _RuntimeFailure(f"list index {index} out of range for length {len(base)}")
        return base[index]

    def _eval_builtin(self, expr: BuiltinCall):
        value = self.eval(expr.args[0])
        if expr.func == "len":
            if not isinstance(value, (list, tuple, str)):
                raise _RuntimeFailure("len() of a non-list, non-string value")
            return len(value)
        if not isinstance(value, (list, tuple)):
            raise _RuntimeFailure(f"{expr.func}() of a non-list value")
        if expr.func == "unique_count":
            try:
                return len(set(value))
            except TypeError:
                raise _RuntimeFailure("unhashable list elements in len(set(...))") from None
        if expr.func in ("all", "any"):
            if not all(isinstance(v, bool) for v in value):
                raise _RuntimeFailure(f"{expr.func}() over non-boolean elements")
            return all(value) if expr.func == "all" else any(value)
        raise _RuntimeFailure(f"unknown builtin {expr.func!r}")


def execute(
    program: Program,
    bindings: Mapping[str, str],
    retriever: Retriever,
    limits: ExecutionLimits = ExecutionLimits(),
) -> ExecutionResult:
    """Run one program against one member's bindings."""
    missing = [name for name, _ in program.params if name not in bindings]
    if missing:
        raise ValueError(f"bindings missing parameters {missing}")
    interp = _Interpreter(retriever, limits)
    status, answer, reason, which = STATUS_FAILURE, None, "", ""
    try:
        for name, kind in program.params:
            text = bindings[name]
            interp.env[name] = text if kind is ValueKind.STR else _coerce_binding(kind, text)
        returned = interp.exec_body(program.body)
    except _RuntimeFailure as exc:
        reason = exc.reason
    except _LimitExceeded as exc:
        status, which = STATUS_LIMIT, exc.which
    else:
        value = interp.returned
        if not returned:
            reason = "control flow ended without return"
        elif isinstance(value, bool) or not isinstance(value, int):
            reason = f"non-integer return: {value!r}"
        elif value < 0:
            reason = f"negative answer index {value}"
        else:
            status, answer = STATUS_ANSWERED, value
    return ExecutionResult(status, answer, reason, which, interp.was_rejected, tuple(interp.trace))
