"""The one tree-walker of mini-Chapel: Figure 2's user-defined reduction
classes (:mod:`repro.chapel.userdef`) and the compiler's oracle of lowered
``accumulate`` bodies (:mod:`repro.compiler.interp`) both run through
:class:`Evaluator`.  A caller chooses how names resolve (the bottom of the
scope stack), where a ``roAdd``/``roMin``/``roMax`` lands, and the calls it
offers beside the builtins of :mod:`repro.chapel.builtins`; the statements
and expressions mean the same for both."""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.chapel import ast as A
from repro.chapel.builtins import BINARY, CALLS, UNARY

__all__ = ["Evaluator"]

class _Return(Exception):
    """Non-local exit of a method body; ``args[0]`` is its ``return`` value."""


class Evaluator:
    """Executes mini-Chapel over ``scopes``, dicts read and written in place:
    a name resolves in the innermost scope (the last) that holds it.  Every
    refusal raises ``error``; ``update(group, elem, value, op)`` takes each
    reduction-object update, which is refused when it is not given; ``calls``
    are functions offered beside the table's builtins."""

    def __init__(self, scopes: list[dict[str, Any]], error: type[Exception],
                 update: Callable[[int, int, float, str], None] | None = None,
                 calls: Mapping[str, Callable[..., Any]] = {}) -> None:
        self.scopes = scopes
        self.error = error
        self.calls = calls
        if update is not None:
            self.update = update

    def update(self, group: int, elem: int, value: float, op: str) -> None:
        raise self.error("roAdd/roMin/roMax need a reduction object; this body has none")

    def _scope_of(self, name: str, what: str) -> dict[str, Any]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope
        raise self.error(f"{what} {name!r}")

    def run(self, body: A.Block) -> tuple[bool, Any]:
        """Execute a body: ``(True, value)`` after a ``return``, else ``(False, None)``."""
        try:
            self.exec_block(body)
        except _Return as r:
            return True, r.args[0]
        return False, None

    def exec_block(self, block: A.Block) -> None:
        self.scopes.append({})
        for stmt in block.stmts:
            self.exec_stmt(stmt)
        self.scopes.pop()

    def exec_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.VarDeclStmt):
            d = stmt.decl
            self.scopes[-1][d.name] = self.eval(d.init) if d.init is not None else 0
        elif isinstance(stmt, A.Assign):
            if not isinstance(stmt.target, A.Ident):
                raise self.error(f"cannot assign to {stmt.target}; only names are assignable")
            name = stmt.target.name
            value = self.eval(stmt.value)
            scope = self._scope_of(name, "assignment to undeclared")
            if stmt.op is not None:
                value = BINARY[stmt.op].py(scope[name], value)
            scope[name] = value
        elif isinstance(stmt, A.ForStmt):
            lo, hi = self.eval(stmt.range.lo), self.eval(stmt.range.hi)
            self.scopes.append({stmt.var: lo})
            for i in range(int(lo), int(hi) + 1):
                self.scopes[-1][stmt.var] = i
                self.exec_block(stmt.body)
            self.scopes.pop()
        elif isinstance(stmt, A.IfStmt):
            if self.eval(stmt.cond):
                self.exec_block(stmt.then)
            elif stmt.orelse is not None:
                self.exec_block(stmt.orelse)
        elif isinstance(stmt, A.ReturnStmt):
            raise _Return(self.eval(stmt.value) if stmt.value is not None else None)
        elif isinstance(stmt, A.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, A.Call) and expr.name in A.RO_INTRINSICS:
                g, e, v = (self.eval(a) for a in expr.args)
                self.update(int(g), int(e), float(v), A.RO_INTRINSICS[expr.name])
            else:
                self.eval(expr)
        else:  # pragma: no cover
            raise self.error(f"unsupported statement {stmt!r}")

    def eval(self, expr: A.Expr) -> Any:
        if isinstance(expr, (A.IntLit, A.RealLit, A.BoolLit)):
            return expr.value
        if isinstance(expr, A.Ident):
            return self._scope_of(expr.name, "unknown name")[expr.name]
        if isinstance(expr, A.BinOp):
            return BINARY[expr.op].py(self.eval(expr.left), self.eval(expr.right))
        if isinstance(expr, A.UnaryOp):
            return UNARY[expr.op].py(self.eval(expr.operand))
        if isinstance(expr, A.Index):
            base = self.eval(expr.base)
            idx = tuple(self.eval(i) for i in expr.indices)
            if isinstance(base, np.ndarray):  # a NumPy row's domain is 1..n
                return base[tuple(int(i) - 1 for i in idx)]
            return base[idx if len(idx) > 1 else idx[0]]
        if isinstance(expr, A.Member):
            return getattr(self.eval(expr.base), expr.name)
        if isinstance(expr, A.Call):
            if expr.name in A.RO_INTRINSICS:
                raise self.error(f"{expr.name} is only valid as a statement")
            row = CALLS.get(expr.name)
            if row is not None:
                row.check(len(expr.args), self.error)
                fn = row.py
            elif (fn := self.calls.get(expr.name)) is None:
                raise self.error(f"unknown function {expr.name!r}")
            return fn(*(self.eval(a) for a in expr.args))
        raise self.error(f"unsupported expression {expr!r}")  # pragma: no cover
