"""Built-in reductions over iterative expressions, on FREERIDE.

§IV-B: "Chapel supports very general reductions, which can be applied to
standard arrays of some primitive types, expressions over arrays, loop
expressions, records of some mixed types and so on.  For instance,
``min reduce A+B`` can be used in Chapel to find the minimum sum of
corresponding elements from arrays A and B."

This module translates exactly that form: a built-in reduction op over an
elementwise expression whose leaves are (possibly nested) Chapel arrays.
Translation mirrors the class pipeline: every leaf array is linearized
(Algorithm 2), leaf accesses become mapped reads, and the reduction runs as
a FREERIDE job.  Two kernel strategies are generated:

* ``scalar`` — element-at-a-time reads through the mapping, like the
  ``generated`` class kernels (counted per element);
* ``vectorized`` — whole-buffer typed views combined with numpy ufuncs,
  the fast path the linearized representation makes possible (this is the
  practical payoff of linearization: dense buffers admit vector kernels).

Both produce identical results, verified against the pure-Chapel
:func:`repro.chapel.forall.reduce_expr` semantics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.chapel.expr import ArrayRef, BinOpExpr, IterExpr, ScalarExpr, UnaryOpExpr
from repro.chapel.values import ChapelArray
from repro.compiler.linearize import LinearizedBuffer, linearize_it
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine, ReductionResult
from repro.freeride.sharedmem import ReplicatedAccessor, SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.machine.counters import OpCounters
from repro.util.errors import CompilerError
from repro.util.validation import check_one_of

__all__ = ["ReduceExprJob", "LocReduceExprJob", "compile_reduce_expr"]

#: Built-in ops expressible as reduction-object element ops.
_RO_OPS = {"+": "add", "sum": "add", "min": "min", "max": "max"}

#: Location-carrying ops (Chapel's ``minloc/maxloc reduce zip(expr, dom)``).
#: These need a custom combination — the (value, index) pair is one logical
#: record, exactly the "records of some mixed types" case of §IV-B.
_LOC_OPS = {"minloc": "min", "maxloc": "max"}

_SCALAR_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
    "**": operator.pow,
}

_VECTOR_BINOPS = dict(_SCALAR_BINOPS)


@dataclass
class _Leaf:
    """One linearized array leaf of the expression."""

    buffer: LinearizedBuffer
    dtype: np.dtype
    count: int

    def view(self) -> np.ndarray:
        return self.buffer.typed_view(0, self.dtype, self.count)


class ReduceExprJob:
    """A compiled ``op reduce expr`` ready to run on an engine."""

    def __init__(
        self,
        op: str,
        expr: IterExpr,
        strategy: str = "vectorized",
    ) -> None:
        self.op = check_one_of(op, tuple(_RO_OPS), "op")
        self.strategy = check_one_of(strategy, ("scalar", "vectorized"), "strategy")
        self.expr = expr
        self.counters = OpCounters()
        self._leaves: list[_Leaf] = []
        # Compile the expression tree once into per-strategy evaluators.
        self._scalar_eval = self._compile_scalar(expr)
        self._vector_eval = self._compile_vector(expr)
        self.n_elements = expr.domain.size

    # -- leaf linearization -----------------------------------------------------

    def _linearize_leaf(self, ref: ArrayRef) -> _Leaf:
        chapel = getattr(ref, "_chapel", None)
        if chapel is not None:
            if not chapel.type.elt.is_primitive:
                raise CompilerError(
                    "reduce expressions need primitive-element arrays"
                )
            buf = linearize_it(chapel, chapel.type, self.counters)
            dtype = np.dtype(chapel.type.elt.dtype)  # type: ignore[union-attr]
            count = chapel.domain.size
        else:
            arr = np.ascontiguousarray(ref.evaluate())
            raw = arr.reshape(-1).view(np.uint8)
            from repro.chapel.domains import Domain
            from repro.chapel.types import ArrayType, PrimitiveType

            elt = PrimitiveType(str(arr.dtype), arr.dtype)
            buf = LinearizedBuffer(
                typ=ArrayType(Domain(int(arr.size)), elt), raw=raw
            )
            self.counters.bytes_linearized += raw.size
            dtype = arr.dtype
            count = int(arr.size)
        leaf = _Leaf(buffer=buf, dtype=dtype, count=count)
        self._leaves.append(leaf)
        return leaf

    # -- strategy compilation ------------------------------------------------------

    def _compile_scalar(self, expr: IterExpr) -> Callable[[int], Any]:
        """Element-at-a-time evaluator over the linearized leaves."""
        if isinstance(expr, ArrayRef):
            leaf = self._linearize_leaf(expr)
            itemsize = leaf.dtype.itemsize
            raw = leaf.buffer.raw
            dt = leaf.dtype
            counters = self.counters

            def read(i: int) -> Any:
                counters.linear_reads += 1
                counters.index_calls += 1
                counters.index_levels += 1
                return np.frombuffer(raw, dt, 1, i * itemsize)[0].item()

            return read
        if isinstance(expr, ScalarExpr):
            value = expr._value

            def const(i: int) -> Any:
                return value

            return const
        if isinstance(expr, BinOpExpr):
            left = self._compile_scalar(expr.left)
            right = self._compile_scalar(expr.right)
            fn = _SCALAR_BINOPS[expr.op]
            counters = self.counters

            def binop(i: int) -> Any:
                counters.flops += 1
                return fn(left(i), right(i))

            return binop
        if isinstance(expr, UnaryOpExpr):
            inner = self._compile_scalar(expr.operand)
            neg = expr.op == "-"
            counters = self.counters

            def unop(i: int) -> Any:
                counters.flops += 1
                v = inner(i)
                return -v if neg else abs(v)

            return unop
        raise CompilerError(f"cannot compile expression node {type(expr)}")

    def _compile_vector(self, expr: IterExpr) -> Callable[[int, int], np.ndarray]:
        """Chunk-at-a-time evaluator over typed views of the leaves.

        Leaves were already linearized by the scalar compilation pass; the
        vector pass reuses them positionally.
        """
        leaf_iter = iter(self._leaves)

        def build(node: IterExpr) -> Callable[[int, int], np.ndarray]:
            if isinstance(node, ArrayRef):
                leaf = next(leaf_iter)
                view = leaf.view()

                def read(start: int, end: int) -> np.ndarray:
                    return view[start:end]

                return read
            if isinstance(node, ScalarExpr):
                value = node._value

                def const(start: int, end: int) -> np.ndarray:
                    return value  # numpy broadcasts scalars

                return const
            if isinstance(node, BinOpExpr):
                left, right = build(node.left), build(node.right)
                fn = _VECTOR_BINOPS[node.op]
                return lambda s, e: fn(left(s, e), right(s, e))
            if isinstance(node, UnaryOpExpr):
                inner = build(node.operand)
                if node.op == "-":
                    return lambda s, e: -inner(s, e)
                return lambda s, e: np.abs(inner(s, e))
            raise CompilerError(f"cannot compile expression node {type(node)}")

        return build(expr)

    # -- FREERIDE integration ---------------------------------------------------------

    def make_spec(self) -> tuple[ReductionSpec, range]:
        ro_op = _RO_OPS[self.op]
        counters = self.counters

        def setup(ro: ReductionObject) -> None:
            ro.alloc(1, ro_op)

        if self.strategy == "scalar":
            scalar_eval = self._scalar_eval

            def reduction(args: ReductionArgs) -> None:
                idx = args.data
                for i in idx:
                    args.ro.accumulate(0, 0, scalar_eval(i))
                counters.elements_processed += len(idx)
                counters.ro_updates += len(idx)

        else:
            vector_eval = self._vector_eval
            fold = {"add": np.sum, "min": np.min, "max": np.max}[ro_op]

            def reduction(args: ReductionArgs) -> None:
                idx = args.data
                if len(idx) == 0:
                    return
                values = vector_eval(idx[0], idx[-1] + 1)
                args.ro.accumulate(0, 0, float(fold(values)))
                n = len(idx)
                counters.elements_processed += n
                counters.linear_reads += n * len(self._leaves)
                counters.flops += n
                counters.ro_updates += 1

        return (
            ReductionSpec(
                name=f"{self.op}-reduce-expr[{self.strategy}]",
                setup_reduction_object=setup,
                reduction=reduction,
            ),
            range(self.n_elements),
        )

    def run(self, engine: FreerideEngine | None = None) -> ReductionResult:
        spec, idx = self.make_spec()
        engine = engine or FreerideEngine()
        return engine.run(spec, idx)

    def result_value(self, engine: FreerideEngine | None = None) -> float:
        return self.run(engine).ro.get(0, 0)


class LocReduceExprJob:
    """``minloc/maxloc reduce zip(expr, domain)`` on FREERIDE.

    The reduction object holds one logical *record* — (best value, its
    0-based element index) — whose two cells must update and merge
    atomically, so the job supplies a custom ``combination_t`` (the merge
    picks the better pair) and requires the full-replication technique
    (each thread owns its pair; no torn pair updates are possible).
    """

    def __init__(self, op: str, expr: IterExpr) -> None:
        self.op = check_one_of(op, tuple(_LOC_OPS), "op")
        self.expr = expr
        self._better = (
            (lambda a, b: a < b) if op == "minloc" else (lambda a, b: a > b)
        )
        self._fold = np.argmin if op == "minloc" else np.argmax
        # reuse the scalar job's leaf linearization + vector evaluator
        self._inner = ReduceExprJob(
            "min" if op == "minloc" else "max", expr, strategy="vectorized"
        )
        self.counters = self._inner.counters
        self.n_elements = self._inner.n_elements

    def make_spec(self) -> tuple[ReductionSpec, range]:
        ro_op = _LOC_OPS[self.op]
        better = self._better
        fold = self._fold
        vector_eval = self._inner._vector_eval
        counters = self.counters

        def setup(ro: ReductionObject) -> None:
            ro.alloc(1, ro_op)  # best value (identity +/- inf)
            ro.alloc(1, "add")  # its element index

        def reduction(args: ReductionArgs) -> None:
            idx = args.data
            if len(idx) == 0:
                return
            accessor = args.ro
            if not (
                isinstance(accessor, ReplicatedAccessor)
                and accessor.stats.technique is SharedMemTechnique.FULL_REPLICATION
            ):
                raise CompilerError(
                    f"{self.op} reduce requires the full-replication technique "
                    "(the value/index pair must update atomically)"
                )
            private = accessor.ro
            values = np.asarray(vector_eval(idx[0], idx[-1] + 1))
            local = int(fold(values))
            value = float(values[local])
            if better(value, private.get(0, 0)):
                private.set(0, 0, value)
                private.set(1, 0, float(idx[0] + local))
            n = len(idx)
            counters.elements_processed += n
            counters.linear_reads += n * len(self._inner._leaves)
            counters.flops += n
            counters.ro_updates += 2

        def combination(copies: list[ReductionObject]) -> ReductionObject:
            best = copies[0]
            for c in copies[1:]:
                if better(c.get(0, 0), best.get(0, 0)):
                    best = c
            merged = copies[0].clone_empty()
            merged.set(0, 0, best.get(0, 0))
            merged.set(1, 0, best.get(1, 0))
            return merged

        spec = ReductionSpec(
            name=f"{self.op}-reduce-expr",
            setup_reduction_object=setup,
            reduction=reduction,
            combination=combination,
        )
        return spec, range(self.n_elements)

    def run(self, engine: FreerideEngine | None = None) -> ReductionResult:
        spec, idx = self.make_spec()
        engine = engine or FreerideEngine()
        return engine.run(spec, idx)

    def result_value(self, engine: FreerideEngine | None = None) -> tuple[float, int]:
        """(best value, 0-based element index) — Chapel's (value, loc)."""
        result = self.run(engine)
        return result.ro.get(0, 0), int(result.ro.get(1, 0))


def compile_reduce_expr(
    op: str,
    expr: IterExpr | ChapelArray | np.ndarray,
    strategy: str = "vectorized",
) -> "ReduceExprJob | LocReduceExprJob":
    """Compile ``op reduce expr`` into a FREERIDE job.

    ``expr`` may be an iterative expression (``ArrayRef(A) + ArrayRef(B)``),
    a Chapel array, or a bare numpy array.  ``op`` may also be ``minloc``
    or ``maxloc``, returning a (value, element-index) pair job.
    """
    if isinstance(expr, (ChapelArray, np.ndarray)):
        expr = ArrayRef(expr)
    if not isinstance(expr, IterExpr):
        raise CompilerError(f"cannot reduce over {type(expr)}")
    if op in _LOC_OPS:
        return LocReduceExprJob(op, expr)
    return ReduceExprJob(op, expr, strategy)
