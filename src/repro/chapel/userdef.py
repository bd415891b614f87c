"""User-defined ReduceScanOp classes from mini-Chapel source (Figure 2).

The paper's Figure 2 defines sum as a Chapel class with ``value`` state and
``accumulate``/``combine``/``generate`` methods.  This module makes such
classes *executable*: :func:`reduce_op_from_source` parses the class and
manufactures a Python :class:`~repro.chapel.reduce_op.ReduceScanOp`
subclass whose methods interpret the parsed bodies — so the figure's code
runs, participates in ``reduce_expr``'s two-stage semantics, and can be
registered as a named reduction.

Supported method shapes (exactly Figure 2's):

* ``accumulate(x: T)`` — folds one element into the class fields;
* ``combine(other: ClassName)`` — merges another instance (reads its
  fields via ``other.field``);
* ``generate()`` — returns the result (defaults to the ``value`` field).
"""

from __future__ import annotations

from typing import Any

from repro.chapel import ast as A
from repro.chapel.parser import parse_program
from repro.chapel.reduce_op import ReduceScanOp
from repro.util.errors import ChapelError, CompilerError

__all__ = ["reduce_op_from_source"]


class _Return(Exception):
    """Non-local exit carrying a generate() return value."""

    def __init__(self, value: Any) -> None:
        self.value = value


class _MethodInterp:
    """Interprets one method body against an op instance's fields."""

    def __init__(self, instance: Any, params: dict[str, Any], constants: dict[str, Any]) -> None:
        self.instance = instance
        self.scopes: list[dict[str, Any]] = [dict(constants), params, {}]

    # fields live on the instance; scopes hold constants/params/locals
    def lookup(self, name: str) -> Any:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.instance._fields:
            return self.instance._fields[name]
        raise ChapelError(f"unknown name {name!r} in reduction method")

    def assign(self, name: str, value: Any) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        if name in self.instance._fields:
            self.instance._fields[name] = value
            return
        raise ChapelError(f"assignment to undeclared {name!r}")

    def exec_block(self, block: A.Block) -> None:
        self.scopes.append({})
        try:
            for stmt in block.stmts:
                self.exec_stmt(stmt)
        finally:
            self.scopes.pop()

    def exec_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.VarDeclStmt):
            d = stmt.decl
            self.scopes[-1][d.name] = self.eval(d.init) if d.init is not None else 0
        elif isinstance(stmt, A.Assign):
            if not isinstance(stmt.target, A.Ident):
                raise ChapelError("only scalar names are assignable here")
            value = self.eval(stmt.value)
            if stmt.op is not None:
                value = A.BINOPS[stmt.op](self.lookup(stmt.target.name), value)
            self.assign(stmt.target.name, value)
        elif isinstance(stmt, A.ForStmt):
            lo, hi = self.eval(stmt.range.lo), self.eval(stmt.range.hi)
            self.scopes.append({stmt.var: lo})
            try:
                for i in range(int(lo), int(hi) + 1):
                    self.scopes[-1][stmt.var] = i
                    self.exec_block(stmt.body)
            finally:
                self.scopes.pop()
        elif isinstance(stmt, A.IfStmt):
            if self.eval(stmt.cond):
                self.exec_block(stmt.then)
            elif stmt.orelse is not None:
                self.exec_block(stmt.orelse)
        elif isinstance(stmt, A.ReturnStmt):
            raise _Return(self.eval(stmt.value) if stmt.value is not None else None)
        elif isinstance(stmt, A.ExprStmt):
            self.eval(stmt.expr)
        else:  # pragma: no cover
            raise ChapelError(f"unsupported statement {stmt!r}")

    def eval(self, expr: A.Expr) -> Any:
        if isinstance(expr, (A.IntLit, A.RealLit, A.BoolLit)):
            return expr.value
        if isinstance(expr, A.Ident):
            return self.lookup(expr.name)
        if isinstance(expr, A.BinOp):
            return A.BINOPS[expr.op](self.eval(expr.left), self.eval(expr.right))
        if isinstance(expr, A.UnaryOp):
            v = self.eval(expr.operand)
            return -v if expr.op == "-" else (not v)
        if isinstance(expr, A.Member):
            base = self.eval(expr.base)
            if isinstance(base, ReduceScanOp) and hasattr(base, "_fields"):
                return base._fields[expr.name]
            return getattr(base, expr.name)
        if isinstance(expr, A.Index):
            base = self.eval(expr.base)
            idx = tuple(self.eval(i) for i in expr.indices)
            return base[idx if len(idx) > 1 else idx[0]]
        if isinstance(expr, A.Call):
            fn = A.MATH.get(expr.name)
            if fn is None:
                raise ChapelError(f"unknown function {expr.name!r}")
            return fn(*(self.eval(a) for a in expr.args))
        raise ChapelError(f"unsupported expression {expr!r}")  # pragma: no cover


def _default_field_value(decl: A.VarDecl, constants: dict[str, Any]) -> Any:
    if decl.init is not None:
        interp = _MethodInterp.__new__(_MethodInterp)
        interp.instance = type("X", (), {"_fields": {}})()
        interp.scopes = [dict(constants), {}, {}]
        return interp.eval(decl.init)
    if isinstance(decl.type, A.NamedTypeExpr) and decl.type.name == "real":
        return 0.0
    if isinstance(decl.type, A.NamedTypeExpr) and decl.type.name == "bool":
        return False
    return 0


def reduce_op_from_source(
    source: str,
    class_name: str | None = None,
    constants: dict[str, Any] | None = None,
) -> type[ReduceScanOp]:
    """Build a runnable ReduceScanOp subclass from mini-Chapel source.

    The returned class can be instantiated, passed to
    :func:`repro.chapel.forall.reduce_expr`, or registered with
    :func:`repro.chapel.reduce_op.register_reduce_op`.
    """
    program = parse_program(source)
    cls = program.reduction_class(class_name)
    if cls is None:
        raise CompilerError(
            f"no reduction class {'found' if class_name is None else class_name!r}"
        )
    accumulate = cls.method("accumulate")
    if accumulate is None or len(accumulate.params) != 1:
        raise CompilerError(
            f"class {cls.name} needs accumulate with exactly one parameter"
        )
    combine = cls.method("combine")
    if combine is None or len(combine.params) != 1:
        raise CompilerError(
            f"class {cls.name} needs combine with exactly one parameter"
        )
    generate = cls.method("generate")
    consts = dict(constants or {})
    field_decls = tuple(cls.fields)

    acc_param = accumulate.params[0].name
    comb_param = combine.params[0].name

    class ChapelReduceOp(ReduceScanOp):
        _chapel_class = cls

        def __init__(self) -> None:
            self._fields = {
                d.name: _default_field_value(d, consts) for d in field_decls
            }
            # keep the base-class contract alive for repr/compat
            self.value = self._fields.get("value")

        def accumulate(self, x: Any) -> None:
            _MethodInterp(self, {acc_param: x}, consts).exec_block(accumulate.body)
            self.value = self._fields.get("value")

        def combine(self, other: "ReduceScanOp") -> None:
            _MethodInterp(self, {comb_param: other}, consts).exec_block(combine.body)
            self.value = self._fields.get("value")

        def generate(self) -> Any:
            if generate is None:
                return self._fields.get("value")
            try:
                _MethodInterp(self, {}, consts).exec_block(generate.body)
            except _Return as r:
                return r.value
            return self._fields.get("value")

    ChapelReduceOp.__name__ = cls.name
    ChapelReduceOp.__qualname__ = cls.name
    return ChapelReduceOp
