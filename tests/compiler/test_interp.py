"""Direct tests for the reference AST interpreter (the semantic oracle)."""

import numpy as np
import pytest

from repro.chapel.parser import parse_program
from repro.compiler.interp import interpret_accumulate, interpret_over
from repro.compiler.lower import lower_reduction
from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import CompilerError


def lowered(src, constants=None):
    return lower_reduction(parse_program(src), constants or {})


def fresh_ro(layout):
    ro = ReductionObject()
    for n, op in layout:
        ro.alloc(n, op)
    return ro


class TestStatements:
    def test_for_and_assign(self):
        low = lowered(
            """
            class C : ReduceScanOp {
              def accumulate(x: real) {
                var s: real = 0.0;
                for i in 1..4 { s = s + i; }
                roAdd(0, 0, s * x);
              }
            }
            """
        )
        ro = interpret_over(low, [2.0], {}, [(1, "add")])
        assert ro.get(0, 0) == 20.0  # (1+2+3+4) * 2

    def test_if_else_and_compound_assign(self):
        low = lowered(
            """
            class C : ReduceScanOp {
              def accumulate(x: real) {
                var s: real = 0.0;
                if (x > 0.0) { s += x; } else { s -= x; }
                roAdd(0, 0, s);
              }
            }
            """
        )
        ro = interpret_over(low, [3.0, -4.0], {}, [(1, "add")])
        assert ro.get(0, 0) == 7.0  # |3| + |-4|

    def test_ro_min_max(self):
        low = lowered(
            """
            class C : ReduceScanOp {
              def accumulate(x: real) { roMin(0, 0, x); roMax(1, 0, x); }
            }
            """
        )
        ro = interpret_over(low, [4.0, -1.0, 2.5], {}, [(1, "min"), (1, "max")])
        assert ro.get(0, 0) == -1.0
        assert ro.get(1, 0) == 4.0

    def test_math_builtins(self):
        low = lowered(
            """
            class C : ReduceScanOp {
              def accumulate(x: real) {
                roAdd(0, 0, sqrt(abs(x)) + max(x, 0.0) + floor(x) + toInt(x));
              }
            }
            """
        )
        ro = interpret_over(low, [4.0], {}, [(1, "add")])
        assert ro.get(0, 0) == 2.0 + 4.0 + 4.0 + 4.0

    def test_exp_log(self):
        low = lowered(
            """
            class C : ReduceScanOp {
              def accumulate(x: real) { roAdd(0, 0, log(exp(x))); }
            }
            """
        )
        ro = interpret_over(low, [1.5], {}, [(1, "add")])
        assert ro.get(0, 0) == pytest.approx(1.5)


class TestElementKinds:
    def test_numpy_rows_one_based(self):
        low = lowered(
            """
            class C : ReduceScanOp {
              def accumulate(x: [1..3] real) { roAdd(0, 0, x[1] + x[3]); }
            }
            """
        )
        data = np.array([[10.0, 20.0, 30.0]])
        ro = interpret_over(low, data, {}, [(1, "add")])
        assert ro.get(0, 0) == 40.0

    def test_chapel_array_elements(self):
        from repro.chapel.domains import Domain
        from repro.chapel.types import REAL, ArrayType, array_of
        from repro.chapel.values import from_python

        low = lowered(
            """
            class C : ReduceScanOp {
              def accumulate(x: [1..2] real) { roAdd(0, 0, x[2]); }
            }
            """
        )
        dataset = from_python(
            ArrayType(Domain(2), array_of(REAL, 2)), [[1.0, 2.0], [3.0, 4.0]]
        )
        ro = interpret_over(low, dataset, {}, [(1, "add")])
        assert ro.get(0, 0) == 6.0

    def test_extras_visible(self):
        from repro.chapel.types import REAL, array_of
        from repro.chapel.values import from_python

        low = lowered(
            """
            class C : ReduceScanOp {
              var w: [1..2] real;
              def accumulate(x: real) { roAdd(0, 0, x * w[1] + w[2]); }
            }
            """
        )
        w = from_python(array_of(REAL, 2), [3.0, 10.0])
        ro = interpret_over(low, [2.0], {"w": w}, [(1, "add")])
        assert ro.get(0, 0) == 16.0


class TestErrors:
    def test_unknown_name(self):
        low = lowered(
            "class C : R { def accumulate(x: real) { roAdd(0, 0, x); } }"
        )
        # sabotage: evaluate an expression with an unbound name manually
        from repro.chapel import ast as A
        from repro.compiler.interp import _oracle

        interp = _oracle(low, 1.0, {}, fresh_ro([(1, "add")]))
        with pytest.raises(CompilerError):
            interp.eval(A.Ident(name="ghost"))

    def test_ro_intrinsic_not_an_expression(self):
        from repro.chapel import ast as A
        from repro.compiler.interp import _oracle

        low = lowered(
            "class C : R { def accumulate(x: real) { roAdd(0, 0, x); } }"
        )
        interp = _oracle(low, 1.0, {}, fresh_ro([(1, "add")]))
        with pytest.raises(CompilerError):
            interp.eval(A.Call(name="roAdd", args=(A.IntLit(0),) * 3))
