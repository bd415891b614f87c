"""Reference interpreter for mini-Chapel accumulate bodies.

Executes the *unlowered* reduction semantics directly: every element is a
live nested Chapel value, class fields are looked up as-is, and the
reduction object is updated through a plain
:class:`~repro.freeride.reduction_object.ReductionObject`.  This is the
semantic oracle the compiled versions (generated/opt-1/opt-2) are tested
against — if a transformation changes any result, the integration tests
catch it here.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.chapel import ast as A
from repro.chapel.values import ChapelArray, ChapelRecord
from repro.compiler.lower import LoweredReduction
from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import CompilerError

__all__ = ["interpret_accumulate", "interpret_over"]


class _Interp:
    def __init__(
        self,
        lowered: LoweredReduction,
        element: Any,
        extras: dict[str, Any],
        ro: ReductionObject,
        elem_index: int = 0,
    ) -> None:
        self.low = lowered
        self.ro = ro
        self.elem_index = elem_index
        self.scopes: list[dict[str, Any]] = [
            {lowered.param_name: element, **extras, **lowered.constants}
        ]

    # -- name resolution ----------------------------------------------------

    def lookup(self, name: str) -> Any:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise CompilerError(f"interpreter: unknown name {name!r}")

    def assign(self, name: str, value: Any) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise CompilerError(f"interpreter: assignment to undeclared {name!r}")

    # -- execution ------------------------------------------------------------

    def exec_block(self, block: A.Block) -> None:
        self.scopes.append({})
        for stmt in block.stmts:
            self.exec_stmt(stmt)
        self.scopes.pop()

    def exec_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.VarDeclStmt):
            d = stmt.decl
            value = self.eval(d.init) if d.init is not None else 0
            self.scopes[-1][d.name] = value
        elif isinstance(stmt, A.Assign):
            assert isinstance(stmt.target, A.Ident)
            value = self.eval(stmt.value)
            if stmt.op is not None:
                value = A.BINOPS[stmt.op](self.lookup(stmt.target.name), value)
            self.assign(stmt.target.name, value)
        elif isinstance(stmt, A.ForStmt):
            lo = self.eval(stmt.range.lo)
            hi = self.eval(stmt.range.hi)
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
        elif isinstance(stmt, A.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, A.Call) and expr.name in A.RO_INTRINSICS:
                g, e, v = (self.eval(a) for a in expr.args)
                self.ro.accumulate(int(g), int(e), float(v), A.RO_INTRINSICS[expr.name])
            else:
                self.eval(expr)
        else:  # pragma: no cover
            raise CompilerError(f"interpreter: unsupported statement {stmt!r}")

    def eval(self, expr: A.Expr) -> Any:
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.RealLit):
            return expr.value
        if isinstance(expr, A.BoolLit):
            return expr.value
        if isinstance(expr, A.Ident):
            return self.lookup(expr.name)
        if isinstance(expr, A.BinOp):
            return A.BINOPS[expr.op](self.eval(expr.left), self.eval(expr.right))
        if isinstance(expr, A.UnaryOp):
            v = self.eval(expr.operand)
            return -v if expr.op == "-" else (not v)
        if isinstance(expr, A.Index):
            base = self.eval(expr.base)
            idx = tuple(self.eval(i) for i in expr.indices)
            if isinstance(base, np.ndarray):
                # numpy elements use 1-based Chapel indexing in the DSL
                return base[tuple(int(i) - 1 for i in idx)]
            return base[idx if len(idx) > 1 else idx[0]]
        if isinstance(expr, A.Member):
            return getattr(self.eval(expr.base), expr.name)
        if isinstance(expr, A.Call):
            if expr.name in A.RO_INTRINSICS:
                raise CompilerError(f"{expr.name} is only valid as a statement")
            if expr.name == "elemIdx":
                return self.elem_index
            fn = A.MATH[expr.name]
            return fn(*(self.eval(a) for a in expr.args))
        raise CompilerError(f"interpreter: unsupported expression {expr!r}")


def interpret_accumulate(
    lowered: LoweredReduction,
    element: Any,
    extras: dict[str, Any],
    ro: ReductionObject,
    elem_index: int = 0,
) -> None:
    """Run the accumulate body for one element.

    ``elem_index`` is the element's 0-based dataset position, observable
    from the DSL via the ``elemIdx()`` intrinsic.
    """
    interp = _Interp(lowered, element, extras, ro, elem_index=elem_index)
    interp.exec_block(lowered.body)


def interpret_over(
    lowered: LoweredReduction,
    elements: Iterable[Any] | ChapelArray,
    extras: dict[str, Any],
    ro_layout: Sequence[tuple[int, str]],
) -> ReductionObject:
    """Run the reduction over a whole dataset; returns the reduction object.

    ``elements`` may be a Chapel array of elements, any iterable of Chapel
    values, or a 2-D numpy array (rows as elements, 1-based indexing inside
    the DSL).
    """
    ro = ReductionObject()
    for num_elems, op in ro_layout:
        ro.alloc(num_elems, op)
    if isinstance(elements, np.ndarray):
        iterable: Iterable[Any] = (elements[i] for i in range(elements.shape[0]))
    elif isinstance(elements, ChapelArray):
        iterable = elements.elements()
    else:
        iterable = elements
    for i, element in enumerate(iterable):
        interpret_accumulate(lowered, element, extras, ro, elem_index=i)
    return ro
