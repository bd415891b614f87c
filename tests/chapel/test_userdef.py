"""Tests for user-defined ReduceScanOp classes from Chapel source (Fig. 2)."""

import pytest

from repro.chapel.forall import reduce_expr
from repro.chapel.reduce_op import REDUCE_OPS, register_reduce_op
from repro.chapel.userdef import reduce_op_from_source
from repro.util.errors import ChapelError, CompilerError

#: The paper's Figure 2, verbatim structure.
FIGURE2_SUM = """
class SumReduceScanOp : ReduceScanOp {
  var value: real = 0.0;

  def accumulate(x: real) {
    value = value + x;
  }

  def combine(x: SumReduceScanOp) {
    value = value + x.value;
  }

  def generate() {
    return value;
  }
}
"""

MEAN_SOURCE = """
class MeanReduceScanOp : ReduceScanOp {
  var total: real = 0.0;
  var count: int = 0;

  def accumulate(x: real) {
    total = total + x;
    count = count + 1;
  }

  def combine(o: MeanReduceScanOp) {
    total = total + o.total;
    count = count + o.count;
  }

  def generate() {
    if (count == 0) { return 0.0; }
    return total / count;
  }
}
"""


class TestFigure2Sum:
    def test_three_stages(self):
        Op = reduce_op_from_source(FIGURE2_SUM)
        op = Op()
        op.accumulate(1.5)
        op.accumulate(2.5)
        assert op.generate() == 4.0

    def test_combine_reads_other_fields(self):
        Op = reduce_op_from_source(FIGURE2_SUM)
        left, right = Op(), Op()
        left.accumulate_many([1.0, 2.0])
        right.accumulate_many([3.0, 4.0])
        left.combine(right)
        assert left.generate() == 10.0

    def test_in_reduce_expr_two_stage(self):
        Op = reduce_op_from_source(FIGURE2_SUM)
        data = [float(i) for i in range(50)]
        for tasks in (1, 3, 8):
            assert reduce_expr(Op, data, num_tasks=tasks) == sum(data)

    def test_registerable(self):
        Op = reduce_op_from_source(FIGURE2_SUM)
        register_reduce_op("chapelSum", Op)
        try:
            assert reduce_expr("chapelSum", [1.0, 2.0, 3.0]) == 6.0
        finally:
            del REDUCE_OPS["chapelSum"]

    def test_clone_resets_state(self):
        Op = reduce_op_from_source(FIGURE2_SUM)
        op = Op()
        op.accumulate(5.0)
        assert op.clone().generate() == 0.0


class TestMultiFieldOp:
    def test_mean(self):
        Op = reduce_op_from_source(MEAN_SOURCE)
        assert reduce_expr(Op, [2.0, 4.0, 6.0], num_tasks=2) == 4.0

    def test_mean_empty_branch(self):
        Op = reduce_op_from_source(MEAN_SOURCE)
        assert Op().generate() == 0.0

    def test_fields_independent_across_instances(self):
        Op = reduce_op_from_source(MEAN_SOURCE)
        a, b = Op(), Op()
        a.accumulate(10.0)
        assert b._fields["count"] == 0


class TestMethodBodies:
    def test_loops_and_builtins(self):
        src = """
        class SumSquares : ReduceScanOp {
          var value: real = 0.0;
          def accumulate(x: real) {
            var s: real = 0.0;
            for i in 1..1 { s = s + x * x; }
            value = value + sqrt(s * s);
          }
          def combine(o: SumSquares) { value = value + o.value; }
          def generate() { return value; }
        }
        """
        Op = reduce_op_from_source(src)
        assert reduce_expr(Op, [2.0, 3.0]) == pytest.approx(13.0)

    def test_constants_injected(self):
        src = """
        class ScaledSum : ReduceScanOp {
          var value: real = 0.0;
          def accumulate(x: real) { value = value + x * scale; }
          def combine(o: ScaledSum) { value = value + o.value; }
          def generate() { return value; }
        }
        """
        Op = reduce_op_from_source(src, constants={"scale": 10.0})
        assert reduce_expr(Op, [1.0, 2.0]) == 30.0


class TestValidation:
    def test_missing_accumulate(self):
        with pytest.raises(CompilerError):
            reduce_op_from_source(
                "class C : ReduceScanOp { def combine(o: C) { } }"
            )

    def test_missing_combine(self):
        with pytest.raises(CompilerError):
            reduce_op_from_source(
                "class C : ReduceScanOp { def accumulate(x: real) { } }"
            )

    def test_unknown_name_at_runtime(self):
        src = """
        class Bad : ReduceScanOp {
          var value: real = 0.0;
          def accumulate(x: real) { value = value + y; }
          def combine(o: Bad) { }
        }
        """
        Op = reduce_op_from_source(src)
        with pytest.raises(ChapelError):
            Op().accumulate(1.0)

    def test_no_class(self):
        with pytest.raises(CompilerError):
            reduce_op_from_source("record R { var x: int; }")


class TestEquivalenceWithBuiltins:
    """Chapel-source ops must agree with the native built-ins (hypothesis)."""

    SOURCES = {
        "+": """
        class S : ReduceScanOp {
          var value: real = 0.0;
          def accumulate(x: real) { value = value + x; }
          def combine(o: S) { value = value + o.value; }
          def generate() { return value; }
        }
        """,
        "max": """
        class M : ReduceScanOp {
          var value: real = -1.0e308;
          def accumulate(x: real) { if (x > value) { value = x; } }
          def combine(o: M) { if (o.value > value) { value = o.value; } }
          def generate() { return value; }
        }
        """,
    }

    def test_property_equivalence(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            vals=st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1,
                max_size=60,
            ),
            tasks=st.integers(1, 8),
            op=st.sampled_from(["+", "max"]),
        )
        def check(vals, tasks, op):
            Op = reduce_op_from_source(self.SOURCES[op])
            got = reduce_expr(Op, vals, num_tasks=tasks)
            want = reduce_expr(op, vals, num_tasks=tasks)
            assert got == pytest.approx(want, rel=1e-12)

        check()


class TestEdgeSemantics:
    """Edges where user-defined ops follow the one evaluator's rules."""

    def test_early_return_ends_accumulate(self):
        src = """
        class PositiveSum : ReduceScanOp {
          var value: real = 0.0;
          def accumulate(x: real) {
            if (x < 0.0) { return; }
            value = value + x;
          }
          def combine(o: PositiveSum) { value = value + o.value; }
          def generate() { return value; }
        }
        """
        Op = reduce_op_from_source(src)
        assert reduce_expr(Op, [1.0, -5.0, 2.0, -0.5, 4.0], num_tasks=2) == 7.0

    def test_numpy_rows_index_one_based(self):
        import numpy as np

        from repro.chapel.domains import Domain
        from repro.chapel.types import REAL, ArrayType, array_of
        from repro.chapel.values import from_python

        src = """
        class FirstSum : ReduceScanOp {
          var value: real = 0.0;
          def accumulate(x: [1..3] real) { value = value + x[1]; }
          def combine(o: FirstSum) { value = value + o.value; }
          def generate() { return value; }
        }
        """
        Op = reduce_op_from_source(src)
        rows = [[10.0, 20.0, 30.0], [1.0, 2.0, 3.0]]
        chapel = from_python(ArrayType(Domain(2), array_of(REAL, 3)), rows)
        assert reduce_expr(Op, np.array(rows)) == 11.0
        assert reduce_expr(Op, chapel) == 11.0

    @pytest.mark.parametrize(
        "decl, body",
        [
            ("var xs: [1..2] real;", "value = value + x * xs[1];"),
            ("var xs: Point;", "value = value + x * xs.a;"),
            ("", "var xs: [1..2] real; value = value + x * xs[1];"),
        ],
        ids=["array_field", "record_field", "array_local"],
    )
    def test_non_scalar_without_initializer_refused(self, decl, body):
        src = f"""
        record Point {{ var a: real; }}
        class Weighted : ReduceScanOp {{
          var value: real = 0.0;
          {decl}
          def accumulate(x: real) {{ {body} }}
          def combine(o: Weighted) {{ value = value + o.value; }}
        }}
        """
        with pytest.raises(CompilerError, match="'xs'"):
            reduce_op_from_source(src)
