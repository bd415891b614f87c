"""User-defined reductions and reduce-expressions — the paper's §II.

Two more ways this library runs Chapel reduction forms:

1. The paper's Figure 2 class, verbatim: a ``ReduceScanOp`` subclass with
   ``accumulate``/``combine``/``generate``, parsed from source and executed
   with the two-stage (local accumulate, global combine) semantics of
   Figure 1.
2. The paper's §IV-B example ``min reduce A+B`` — a built-in reduction over
   an iterative expression — printed as a mini-Chapel reduction class over
   its stacked leaves and compiled like any other, so the scalar, batch
   (NumPy) and native (C) backends all run it.

Run:  python examples/userdefined_reductions.py
"""

import numpy as np

from repro.chapel import ArrayRef, reduce_expr, reduce_op_from_source
from repro.compiler import compile_reduce_expr
from repro.freeride import FreerideEngine

# -- 1. Figure 2, executable ---------------------------------------------------

FIGURE2_SUM = """
class SumReduceScanOp : ReduceScanOp {
  var value: real = 0.0;

  /* The local reduction function */
  def accumulate(x: real) {
    value = value + x;
  }

  /* The global reduction function */
  def combine(x: SumReduceScanOp) {
    value = value + x.value;
  }

  /* The function output the final result */
  def generate() {
    return value;
  }
}
"""


def demo_figure2() -> None:
    SumOp = reduce_op_from_source(FIGURE2_SUM)
    data = [float(i) for i in range(1, 101)]
    total = reduce_expr(SumOp, data, num_tasks=4)
    print(f"Figure 2 sum class, 4 tasks: {total:.0f}  (expected 5050)")

    # the stages are observable individually, as in Figure 1:
    left, right = SumOp(), SumOp()
    left.accumulate_many(data[:50])     # local reduction, task 1
    right.accumulate_many(data[50:])    # local reduction, task 2
    left.combine(right)                 # global reduction
    print(f"manual two-stage: {left.generate():.0f}")


# -- 2. min reduce A+B ----------------------------------------------------------


def demo_reduce_expr() -> None:
    rng = np.random.default_rng(13)
    A = rng.uniform(0, 100, 100_000)
    B = rng.uniform(0, 100, 100_000)

    job = compile_reduce_expr("min", ArrayRef(A) + ArrayRef(B), backend="native")
    value = job.result_value(FreerideEngine(num_threads=4))
    print(f"\nmin reduce A+B (asked for native, ran {job.effective_backend}, 4 threads): "
          f"{value:.4f}")
    print(f"numpy check:                         {(A + B).min():.4f}")

    scalar = compile_reduce_expr("min", ArrayRef(A) + ArrayRef(B), backend="scalar")
    print(f"scalar backend agrees:               "
          f"{scalar.result_value(FreerideEngine(num_threads=4)):.4f}")
    print(f"bytes linearized for the two leaves: "
          f"{int(job.counters.bytes_linearized):,}")

    value, loc = compile_reduce_expr("minloc", ArrayRef(A) + ArrayRef(B)).result_value()
    print(f"minloc reduce A+B:                   ({value:.4f}, {loc})")


if __name__ == "__main__":
    demo_figure2()
    demo_reduce_expr()
