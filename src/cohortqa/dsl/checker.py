"""Static checks on parsed programs: parameter use, retrieve count, returns."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

from .nodes import If, Program, RetrieveCall, Return, Stmt, VarRef

MIN_RETRIEVES = 2


@dataclass(frozen=True)
class CheckReport:
    all_params_used: bool
    unused_params: tuple[str, ...]
    static_retrieve_count: int
    meets_min_retrieves: bool
    every_path_returns: bool

    @property
    def ok(self) -> bool:
        return self.all_params_used and self.meets_min_retrieves and self.every_path_returns


def _nodes(program: Program):
    """Yield every node of the program, found through each node's dataclass
    fields and the tuples nested in them, so a new node class needs no walker."""
    stack: list = [program]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif is_dataclass(item):
            yield item
            stack.extend(getattr(item, field.name) for field in fields(item))


def count_static_retrieves(program: Program) -> int:
    """Number of retrieve(...) call sites in the AST."""
    return sum(isinstance(node, RetrieveCall) for node in _nodes(program))


def _used_names(program: Program) -> set[str]:
    """Names read anywhere, parameters and locals alike: a name in an
    expression or in a retrieve question's {name} slot."""
    return {node.name for node in _nodes(program) if isinstance(node, VarRef)}


def _body_returns(body: tuple[Stmt, ...]) -> bool:
    for stmt in body:
        if isinstance(stmt, Return):
            return True
        if isinstance(stmt, If) and stmt.orelse:
            all_branches = all(_body_returns(b) for _, b in stmt.branches)
            if all_branches and _body_returns(stmt.orelse):
                return True
        # ForEach bodies may not run at all, so they never guarantee a return
    return False


def check_program(program: Program, template=None) -> CheckReport:
    """Report-only static checks; `template` is accepted for interface parity
    (the signature was already matched against its header at parse time)."""
    used = _used_names(program)
    unused = tuple(name for name in program.param_names if name not in used)
    count = count_static_retrieves(program)
    return CheckReport(
        all_params_used=not unused,
        unused_params=unused,
        static_retrieve_count=count,
        meets_min_retrieves=count >= MIN_RETRIEVES,
        every_path_returns=_body_returns(program.body),
    )
