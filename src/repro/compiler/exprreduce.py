"""Built-in reductions over iterative expressions, on FREERIDE.

§IV-B: "Chapel supports very general reductions, which can be applied to
standard arrays of some primitive types, expressions over arrays, loop
expressions, records of some mixed types and so on.  For instance,
``min reduce A+B`` can be used in Chapel to find the minimum sum of
corresponding elements from arrays A and B."

This module translates exactly that form: a built-in reduction op over an
elementwise expression whose leaves are (possibly nested) Chapel arrays.
It goes through the same compiler as every reduction class.  The leaves
are flattened row-major and stacked into one ``(n, k)`` float64 dataset
whose element is ``[1..k] real``; the expression becomes the body of a
one-statement ``accumulate``, compiled with
:func:`~repro.compiler.cache.compile_cached` at opt-2, so the scalar,
batch and native tiers all serve it.  Leaves are stacked rather than bound
as extras because an extra's domain is a compile-time constant: stacked,
the kernel depends only on the expression's shape, op and constants, never
on the arrays' length.

``minloc``/``maxloc`` (Chapel's ``minloc reduce zip(expr, dom)``) run two
passes through the same compiler: the ``min``/``max`` reduce, then
``roMin`` of ``elemIdx()`` over the elements whose value equals it, so the
lowest index wins ties under any technique and thread count.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from repro.chapel import ast as A
from repro.chapel.builtins import UNARY
from repro.chapel.expr import ArrayRef, BinOpExpr, IterExpr, ScalarExpr, UnaryOpExpr
from repro.chapel.values import ChapelArray, from_python
from repro.compiler.cache import compile_cached
from repro.compiler.translate import BACKENDS, BoundReduction, CompiledReduction
from repro.freeride.runtime import FreerideEngine, ReductionResult
from repro.machine.counters import OpCounters
from repro.util.errors import CompilerError
from repro.util.validation import check_one_of

__all__ = ["ReduceExprJob", "LocReduceExprJob", "compile_reduce_expr"]

#: Built-in ops expressible as reduction-object element ops.
_RO_OPS = {"+": "add", "sum": "add", "min": "min", "max": "max"}

#: Location-carrying ops and the value reduce of their first pass.
_LOC_OPS = {"minloc": "min", "maxloc": "max"}

_RO_CALLS = {op: call for call, op in A.RO_INTRINSICS.items()}

_CLASS = """
class exprReduce : ReduceScanOp {{
{fields}
  def accumulate(x: [1..{k}] real) {{
    {body}
  }}
}}
"""


def _lower(expr: IterExpr) -> tuple[str, dict[str, float], np.ndarray]:
    """The expression as mini-Chapel over ``x[1..k]``, its ``real``
    constants, and the ``(n, k)`` dataset of its stacked leaves."""
    constants: dict[str, float] = {}
    columns: list[np.ndarray] = []

    def walk(node: IterExpr) -> str:
        if isinstance(node, ArrayRef):
            chapel = node._chapel
            if chapel is not None and not chapel.type.elt.is_primitive:
                raise CompilerError("reduce expressions need primitive-element arrays")
            columns.append(np.asarray(node.evaluate(), dtype=np.float64).reshape(-1))
            return f"x[{len(columns)}]"
        if isinstance(node, ScalarExpr):
            name = f"c{len(constants)}"
            constants[name] = float(node._value)
            return name
        if isinstance(node, BinOpExpr):
            if node.op == "**":
                raise CompilerError("`**` is not in mini-Chapel")
            return f"({walk(node.left)} {node.op} {walk(node.right)})"
        if isinstance(node, UnaryOpExpr):
            inner = walk(node.operand)
            return f"({node.op}{inner})" if node.op in UNARY else f"{node.op}({inner})"
        raise CompilerError(f"cannot compile expression node {type(node)}")

    text = walk(expr)
    data = np.stack(columns or [np.zeros(expr.domain.size)], axis=1)
    return text, constants, data


def _compile(
    body: str, constants: dict[str, float], k: int, backend: str, fields: str = ""
) -> CompiledReduction:
    fields += "".join(f"  var {name}: real;\n" for name in constants)
    source = _CLASS.format(fields=fields, k=k, body=body)
    return compile_cached(source, constants, opt_level=2, backend=backend)


def _run(bound: BoundReduction, ro_op: str, engine: FreerideEngine) -> ReductionResult:
    return engine.run(*bound.make_spec([(1, ro_op)]))


def _engine(engine: FreerideEngine | None) -> "FreerideEngine | nullcontext[FreerideEngine]":
    """``engine``, left open, or a fresh engine that ``with`` closes."""
    return FreerideEngine() if engine is None else nullcontext(engine)


class ReduceExprJob:
    """A compiled ``op reduce expr`` ready to run on an engine."""

    def __init__(self, op: str, expr: IterExpr, backend: str = "batch") -> None:
        self.op = check_one_of(op, tuple(_RO_OPS), "op")
        self.expr = expr
        self.n_elements = expr.domain.size
        self._ro_op = _RO_OPS[op]
        self._text, self._constants, data = _lower(expr)
        self._k = data.shape[1]
        call = _RO_CALLS[self._ro_op]
        compiled = _compile(f"{call}(0, 0, {self._text});", self._constants, self._k, backend)
        self.bound = compiled.bind(data)

    @property
    def counters(self) -> OpCounters:
        return self.bound.counters

    @property
    def effective_backend(self) -> str:
        return self.bound.compiled.effective_backend

    def run(self, engine: FreerideEngine | None = None) -> ReductionResult:
        with _engine(engine) as engine:
            return _run(self.bound, self._ro_op, engine)

    def result_value(self, engine: FreerideEngine | None = None) -> float:
        return self.run(engine).ro.get(0, 0)


class LocReduceExprJob(ReduceExprJob):
    """``minloc/maxloc reduce zip(expr, domain)``: (best value, 0-based index).

    The first pass is the inherited ``min``/``max`` reduce.  The second
    takes ``roMin`` of ``elemIdx()`` where the expression equals the best
    value, which is bound as a ``[1..1] real`` extra so that one kernel
    serves every value.  An empty or all-NaN input has no such element and
    reports index 0.
    """

    def __init__(self, op: str, expr: IterExpr, backend: str = "batch") -> None:
        super().__init__(_LOC_OPS[check_one_of(op, tuple(_LOC_OPS), "op")], expr, backend)
        self.op = op
        compiled = _compile(
            f"if ({self._text} == best[1]) {{ roMin(0, 0, elemIdx()); }}",
            self._constants, self._k, backend, "  var best: [1..1] real;\n",
        )
        self._best_t = compiled.lowered.extra_types["best"]
        self.loc_bound = compiled.bind(
            self.bound.data_buf,
            {"best": from_python(self._best_t, [math.inf])},
            n_elements=self.n_elements,
        )
        self.best = math.nan

    @property
    def counters(self) -> OpCounters:
        return self.bound.counters.copy().add(self.loc_bound.counters)

    @property
    def effective_backend(self) -> str:
        """The slower of the two passes' tiers."""
        tiers = (self.bound.compiled.effective_backend, self.loc_bound.compiled.effective_backend)
        return min(tiers, key=BACKENDS.index)

    def run(self, engine: FreerideEngine | None = None) -> ReductionResult:
        """Both passes; sets :attr:`best` and returns the location pass's
        result, whose one cell holds the index."""
        with _engine(engine) as engine:
            self.best = super().run(engine).ro.get(0, 0)
            self.loc_bound.update_extras({"best": from_python(self._best_t, [self.best])})
            return _run(self.loc_bound, "min", engine)

    def result_value(self, engine: FreerideEngine | None = None) -> tuple[float, int]:
        """(best value, 0-based element index) — Chapel's (value, loc)."""
        loc = self.run(engine).ro.get(0, 0)
        return self.best, int(loc) if math.isfinite(loc) else 0


def compile_reduce_expr(
    op: str,
    expr: IterExpr | ChapelArray | np.ndarray,
    backend: str = "batch",
) -> ReduceExprJob | LocReduceExprJob:
    """Compile ``op reduce expr`` into a FREERIDE job on ``backend`` (one of
    :data:`~repro.compiler.translate.BACKENDS`).

    ``expr`` may be an iterative expression (``ArrayRef(A) + ArrayRef(B)``),
    a Chapel array, or a bare numpy array.  ``op`` may also be ``minloc``
    or ``maxloc``, returning a (value, element-index) pair job.
    """
    if isinstance(expr, (ChapelArray, np.ndarray)):
        expr = ArrayRef(expr)
    if not isinstance(expr, IterExpr):
        raise CompilerError(f"cannot reduce over {type(expr)}")
    if op in _LOC_OPS:
        return LocReduceExprJob(op, expr, backend)
    return ReduceExprJob(op, expr, backend)
