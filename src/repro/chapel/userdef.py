"""User-defined ReduceScanOp classes from mini-Chapel source (Figure 2).

:func:`reduce_op_from_source` parses a class like the figure's sum and
manufactures a :class:`~repro.chapel.reduce_op.ReduceScanOp` subclass whose
methods run the parsed bodies through the one
:class:`~repro.chapel.evaluator.Evaluator`, so the figure's code takes part
in ``reduce_expr``'s two stages and can be registered as a named reduction.
The method shapes are Figure 2's: ``accumulate(x: T)`` folds one element
into the fields, ``combine(other: ClassName)`` merges another instance
(reading ``other.field``), and ``generate()`` returns the result (by default
the ``value`` field).  A ``return`` ends any of the three.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from repro.chapel import ast as A
from repro.chapel.evaluator import Evaluator
from repro.chapel.parser import parse_program
from repro.chapel.reduce_op import ReduceScanOp
from repro.util.errors import ChapelError, CompilerError

__all__ = ["reduce_op_from_source"]

#: a scalar field's value when its declaration has no initializer
_SCALAR_DEFAULTS = {"int": 0, "real": 0.0, "bool": False}


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
    body_decls = [s.decl for m in cls.methods for s in A.walk_stmts(m.body)
                  if isinstance(s, A.VarDeclStmt)]
    for d in (*cls.fields, *body_decls):
        scalar = isinstance(d.type, A.NamedTypeExpr) and d.type.name in _SCALAR_DEFAULTS
        if d.init is None and not scalar:
            raise CompilerError(
                f"{d.name!r} must be scalar (int/real/bool) or have an initializer"
            )

    def run(op: ChapelReduceOp, method: A.MethodDecl, *args: Any) -> tuple[bool, Any]:
        # names resolve innermost first: locals, the parameter, the
        # constants, then the instance's fields
        params = {p.name: arg for p, arg in zip(method.params, args)}
        return Evaluator([op._fields, dict(consts), params], ChapelError).run(method.body)

    def initial(d: A.VarDecl) -> Any:
        if d.init is not None:
            return Evaluator([dict(consts)], ChapelError).eval(d.init)
        return _SCALAR_DEFAULTS[d.type.name]

    class ChapelReduceOp(ReduceScanOp):
        _chapel_class = cls
        #: the base-class contract (``repr``, ``generate``): the ``value`` field
        value = property(lambda self: self._fields.get("value"))

        def __init__(self) -> None:
            self._fields = {d.name: initial(d) for d in cls.fields}

        def accumulate(self, x: Any) -> None:
            run(self, accumulate, x)

        def combine(self, other: ReduceScanOp) -> None:
            # the body reads ``other.field``: hand it the fields as attributes
            run(self, combine, SimpleNamespace(**other._fields))

        def generate(self) -> Any:
            returned, value = run(self, generate) if generate is not None else (False, None)
            return value if returned else self.value

    ChapelReduceOp.__name__ = cls.name
    ChapelReduceOp.__qualname__ = cls.name
    return ChapelReduceOp
