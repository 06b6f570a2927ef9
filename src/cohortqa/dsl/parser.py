"""Convert restricted answer-function source into the DSL AST.

Parsing piggybacks on the stdlib ``ast`` module for the surface syntax; every
node is then checked against a whitelist, so anything outside the restricted
grammar is rejected with a diagnostic rather than silently accepted.
"""

from __future__ import annotations

import ast
import functools
import warnings

from .formatter import format_header
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


class ParseError(ValueError):
    """Every parse-time rejection; `span` is its 1-based (line, col), if known."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        self.span = span
        if span is not None and span[0] > 0:
            message = f"{message} (line {span[0]}, col {span[1]})"
        super().__init__(message)


class ForbiddenConstruct(ParseError):
    def __init__(self, construct: str, span: tuple[int, int] | None = None):
        super().__init__(f"forbidden construct: {construct}", span)


class SignatureMismatch(ParseError):
    def __init__(self, expected: str, found: str):
        super().__init__(f"signature mismatch: expected {expected!r}, found {found!r}")


MAX_EXPR_DEPTH = 100  # far inside the recursion limit of the interpreter, checker, formatter
_TOO_DEEP = f"expression nested deeper than {MAX_EXPR_DEPTH}"

_CMP_OPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}

# the value kind of each type of constant a program may write
_LITERAL_KINDS = {bool: ValueKind.BOOL, int: ValueKind.INT, float: ValueKind.FLOAT,
                  str: ValueKind.STR}


def _span(node: ast.AST) -> tuple[int, int]:
    return getattr(node, "lineno", 0), getattr(node, "col_offset", -1) + 1


@functools.lru_cache(maxsize=1024)
def parse_header(header: str) -> tuple[tuple[str, ValueKind], ...]:
    """Parse a ``def answer(...) -> int`` header into (name, kind) pairs.

    The one reader of a header: a template stores this result as its
    ``signature`` at load, and every program of it parses against the same
    text. Memoized per header text, so a later parse of a loaded header is a
    cache hit while no more than 1024 distinct headers are in play. A
    rejected header raises again on every call.
    """
    text = header.strip()
    if not text.endswith(":"):
        text += ":"
    try:
        module = ast.parse(text + "\n    pass")
    except SyntaxError as exc:
        raise ParseError(f"unparseable header: {exc.msg}") from exc
    except RecursionError:  # as in parse_program
        raise ForbiddenConstruct(_TOO_DEEP) from None
    if len(module.body) != 1 or not isinstance(module.body[0], ast.FunctionDef):
        raise ParseError("header must be a single function definition")
    fn = module.body[0]
    if fn.name != "answer":
        raise SignatureMismatch("def answer(...)", f"def {fn.name}(...)")
    return _signature_of(fn)


def _signature_of(fn: ast.FunctionDef) -> tuple[tuple[str, ValueKind], ...]:
    args = fn.args
    if args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg or args.defaults:
        raise ForbiddenConstruct("non-positional parameters", _span(fn))
    if not (isinstance(fn.returns, ast.Name) and fn.returns.id == "int"):
        raise SignatureMismatch("-> int", ast.unparse(fn.returns) if fn.returns else "<missing>")
    params = []
    for arg in args.args:
        ann = arg.annotation
        kind = KINDS.get(ann.id) if isinstance(ann, ast.Name) else None
        if kind is None:
            raise SignatureMismatch(
                "parameter annotated with int/float/str/bool/list",
                f"{arg.arg}: {ast.unparse(ann) if ann else '<missing>'}",
            )
        params.append((arg.arg, kind))
    return tuple(params)


def parse_program(source: str, header: str) -> Program:
    """Parse source text into a Program whose signature matches `header`."""
    expected = parse_header(header)
    try:
        with warnings.catch_warnings():
            # hostile sources with bad escape sequences should yield only our
            # diagnostics, not interpreter warnings
            warnings.simplefilter("ignore", SyntaxWarning)
            warnings.simplefilter("ignore", DeprecationWarning)
            module = ast.parse(source)
    except SyntaxError as exc:
        raise ParseError(exc.msg or "invalid syntax", (exc.lineno or 0, exc.offset or 0)) from exc
    except RecursionError:  # ast.parse's own nesting bound lies far past MAX_EXPR_DEPTH
        raise ForbiddenConstruct(_TOO_DEEP) from None

    fn = None
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            continue  # tolerated and discarded
        if isinstance(node, ast.FunctionDef) and fn is None:
            fn = node
            continue
        raise ForbiddenConstruct(type(node).__name__, _span(node))
    if fn is None:
        raise ParseError("no function definition found")
    if fn.name != "answer":
        raise SignatureMismatch("def answer(...)", f"def {fn.name}(...)")
    if fn.decorator_list:
        raise ForbiddenConstruct("decorator", _span(fn))
    found = _signature_of(fn)
    if found != expected:
        raise SignatureMismatch(format_header(expected), format_header(found))

    converter = _Converter(param_names=tuple(n for n, _ in expected))
    body = converter.convert_body(fn.body)
    return Program(params=expected, body=body)


class _Converter:
    """Walks the Python AST, producing DSL nodes or diagnostics.

    Scope accumulates binding occurrences in source order; an actually
    unbound name at run time is the interpreter's problem.
    """

    def __init__(self, param_names: tuple[str, ...]):
        self.scope = set(param_names)

    # -- statements --

    def convert_body(self, stmts: list[ast.stmt]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for stmt in stmts:
            out.append(self.convert_stmt(stmt))
        return tuple(out)

    def convert_stmt(self, node: ast.stmt) -> Stmt:
        if isinstance(node, ast.Assign):
            return self._convert_assign(node)
        if isinstance(node, ast.Return):
            return self._convert_return(node)
        if isinstance(node, ast.If):
            return self._convert_if(node)
        if isinstance(node, ast.For):
            return self._convert_for(node)
        if isinstance(node, ast.Expr):
            return self._convert_expr_stmt(node)
        raise ForbiddenConstruct(type(node).__name__, _span(node))

    def _convert_assign(self, node: ast.Assign) -> Stmt:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            raise ForbiddenConstruct("non-name assignment target", _span(node))
        name = node.targets[0].id
        if isinstance(node.value, ast.IfExp):
            stmt = self._desugar_ifexp(node.value, lambda e: Assign(name, e))
        else:
            stmt = Assign(name, self.convert_expr(node.value))
        self.scope.add(name)
        return stmt

    def _convert_return(self, node: ast.Return) -> Stmt:
        if node.value is None:
            raise ForbiddenConstruct("bare return", _span(node))
        if isinstance(node.value, ast.IfExp):
            return self._desugar_ifexp(node.value, Return)
        return Return(self.convert_expr(node.value))

    def _desugar_ifexp(self, node: ast.IfExp, wrap) -> If:
        # `x if c else y` at statement level becomes an if/else statement pair
        cond = self.convert_expr(node.test)
        then = wrap(self.convert_expr(node.body))
        other = wrap(self.convert_expr(node.orelse))
        return If(branches=((cond, (then,)),), orelse=(other,))

    def _convert_if(self, node: ast.If) -> If:
        branches = []
        current: ast.stmt | None = node
        orelse: tuple[Stmt, ...] = ()
        while isinstance(current, ast.If):
            cond = self.convert_expr(current.test)
            body = self.convert_body(current.body)
            branches.append((cond, body))
            rest = current.orelse
            if len(rest) == 1 and isinstance(rest[0], ast.If):
                current = rest[0]
            else:
                orelse = self.convert_body(rest)
                current = None
        return If(branches=tuple(branches), orelse=orelse)

    def _convert_for(self, node: ast.For) -> ForEach:
        if not isinstance(node.target, ast.Name):
            raise ForbiddenConstruct("non-name loop variable", _span(node))
        if node.orelse:
            raise ForbiddenConstruct("for-else", _span(node))
        iterable = self.convert_expr(node.iter)
        self.scope.add(node.target.id)
        body = self.convert_body(node.body)
        return ForEach(node.target.id, iterable, body)

    def _convert_expr_stmt(self, node: ast.Expr) -> Append:
        call = node.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "append"
            and isinstance(call.func.value, ast.Name)
            and len(call.args) == 1
            and not call.keywords
        ):
            target = call.func.value.id
            if target not in self.scope:
                raise ParseError(f"unbound name {target!r}", _span(call))
            return Append(target, self.convert_expr(call.args[0]))
        raise ForbiddenConstruct("bare expression statement", _span(node))

    # -- expressions --

    def convert_expr(self, node: ast.expr, depth: int = 1) -> Expr:
        """`depth` counts the DSL expression levels above and at `node`."""
        if depth > MAX_EXPR_DEPTH:
            raise ForbiddenConstruct(_TOO_DEEP, _span(node))
        inner = depth + 1
        if isinstance(node, ast.Name):
            return self._convert_name(node)
        if isinstance(node, ast.Constant):
            return self._convert_constant(node)
        if isinstance(node, ast.List):
            return self._convert_list(node, inner)
        if isinstance(node, ast.Call):
            return self._convert_call(node, inner)
        if isinstance(node, ast.BoolOp):
            # `a and b and c` folds to Binary(Binary(a, b), c): values[i]
            # sits len(values) - max(i, 1) levels below this node
            op = "and" if isinstance(node.op, ast.And) else "or"
            values = node.values
            expr = self.convert_expr(values[0], depth + len(values) - 1)
            for i in range(1, len(values)):
                expr = Binary(op, expr, self.convert_expr(values[i], depth + len(values) - i))
            return expr
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise ForbiddenConstruct("comparison chaining", _span(node))
            op_type = type(node.ops[0])
            if op_type not in _CMP_OPS:
                raise ForbiddenConstruct(f"comparison operator {op_type.__name__}", _span(node))
            return Binary(
                _CMP_OPS[op_type],
                self.convert_expr(node.left, inner),
                self.convert_expr(node.comparators[0], inner),
            )
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                op = "+"
            elif isinstance(node.op, ast.Sub):
                op = "-"
            else:
                raise ForbiddenConstruct(f"operator {type(node.op).__name__}", _span(node))
            return Binary(op, self.convert_expr(node.left, inner),
                          self.convert_expr(node.right, inner))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return Unary("not", self.convert_expr(node.operand, inner))
            if isinstance(node.op, ast.USub):
                operand = node.operand
                if isinstance(operand, ast.Constant) and type(operand.value) in (int, float):
                    return Literal(_LITERAL_KINDS[type(operand.value)], -operand.value)
                return Unary("neg", self.convert_expr(operand, inner))
            raise ForbiddenConstruct(f"unary {type(node.op).__name__}", _span(node))
        if isinstance(node, ast.Subscript):
            return Index(self.convert_expr(node.value, inner), self.convert_expr(node.slice, inner))
        raise ForbiddenConstruct(type(node).__name__, _span(node))

    def _convert_name(self, node: ast.Name) -> Expr:
        if node.id in self.scope:
            return VarRef(node.id)
        raise ParseError(f"unbound name {node.id!r}", _span(node))

    def _convert_constant(self, node: ast.Constant) -> Literal:
        kind = _LITERAL_KINDS.get(type(node.value))
        if kind is None:
            raise ForbiddenConstruct(f"literal {node.value!r}", _span(node))
        return Literal(kind, node.value)

    def _convert_list(self, node: ast.List, depth: int) -> Literal:
        elements = []
        for elt in node.elts:
            lit = self.convert_expr(elt, depth)
            if not isinstance(lit, Literal) or lit.kind is ValueKind.LIST:
                raise ForbiddenConstruct("non-constant list element", _span(elt))
            elements.append(lit.value)
        return Literal(ValueKind.LIST, tuple(elements))

    def _convert_call(self, node: ast.Call, depth: int) -> Expr:
        """`depth` is that of the call's arguments."""
        if not isinstance(node.func, ast.Name):
            raise ForbiddenConstruct("call through attribute access", _span(node))
        if node.keywords:
            raise ForbiddenConstruct("keyword arguments", _span(node))
        name = node.func.id
        if name == "retrieve":
            return self._convert_retrieve(node)
        if name == "len":
            if len(node.args) != 1:
                raise ForbiddenConstruct("len with wrong arity", _span(node))
            arg = node.args[0]
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "set"
                and len(arg.args) == 1
                and not arg.keywords
            ):
                return BuiltinCall("unique_count", (self.convert_expr(arg.args[0], depth),))
            return BuiltinCall("len", (self.convert_expr(arg, depth),))
        if name in ("all", "any"):
            if len(node.args) != 1:
                raise ForbiddenConstruct(f"{name} with wrong arity", _span(node))
            return BuiltinCall(name, (self.convert_expr(node.args[0], depth),))
        raise ForbiddenConstruct(f"call to {name!r}", _span(node))

    def _convert_retrieve(self, node: ast.Call) -> RetrieveCall:
        if len(node.args) != 2:
            raise ForbiddenConstruct("retrieve with wrong arity", _span(node))
        question = self._convert_question(node.args[0])
        kind_node = node.args[1]
        kind = KINDS.get(kind_node.id) if isinstance(kind_node, ast.Name) else None
        if kind is None:
            raise ForbiddenConstruct("retrieve kind must be int/float/str/bool/list", _span(node))
        return RetrieveCall(question, kind)

    def _convert_question(self, node: ast.expr) -> FormatString:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return FormatString((node.value,))
        if not isinstance(node, ast.JoinedStr):
            raise ForbiddenConstruct("retrieve question must be a (f-)string", _span(node))
        segments: list = []
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                segments.append(part.value)
            elif isinstance(part, ast.FormattedValue):
                if part.format_spec is not None or part.conversion != -1:
                    raise ForbiddenConstruct("format spec in interpolation", _span(part))
                if not isinstance(part.value, ast.Name):
                    raise ForbiddenConstruct("non-name interpolation", _span(part))
                name = part.value.id
                if name not in self.scope:
                    raise ParseError(f"unbound name {name!r}", _span(part))
                segments.append(VarRef(name))
            else:
                raise ForbiddenConstruct("unsupported f-string part", _span(node))
        # CPython joins adjacent literal runs and drops empty ones, so equal
        # questions give equal segments; only f"" is left with none
        return FormatString(tuple(segments) or ("",))
