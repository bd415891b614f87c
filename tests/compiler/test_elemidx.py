"""The ``elemIdx()`` intrinsic: dataset position inside ``accumulate``.

The element index flows through five surfaces — the lowering validator,
the reference interpreter, the scalar per-element kernel, the batch
lane array and the native loop — and all must agree on the same 0-based
global position (split-local offsets would silently shear every
window-style reduction), also for a dataset segment that starts at an
element base.
"""

import numpy as np
import pytest

from repro.chapel.parser import parse_program
from repro.compiler.interp import interpret_accumulate
from repro.compiler.lower import lower_reduction
from repro.compiler.native import probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import CompilerError

SOURCE = """
class positional : ReduceScanOp {
  var win: int;
  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > 3) { w = 3; }
    roAdd(w, 0, 1.0);
    roAdd(w, 1, x);
  }
}
"""

CONSTS = {"win": 4}


class FakeRO:
    def __init__(self):
        self.calls = []

    def accumulate(self, group, slot, value, op="add"):
        self.calls.append((group, slot, float(value)))


def test_lowering_rejects_arguments():
    bad = SOURCE.replace("elemIdx()", "elemIdx(1)")
    with pytest.raises(CompilerError, match="elemIdx takes no arguments"):
        lower_reduction(parse_program(bad), CONSTS)


def test_interpreter_threads_global_position():
    lowered = lower_reduction(parse_program(SOURCE), CONSTS)
    ro = FakeRO()
    interpret_accumulate(lowered, 2.5, {}, ro, elem_index=9)
    # element 9 // win 4 = window 2
    assert ro.calls == [(2, 0, 1.0), (2, 1, 2.5)]


def test_interpreter_clamps_past_last_window():
    lowered = lower_reduction(parse_program(SOURCE), CONSTS)
    ro = FakeRO()
    interpret_accumulate(lowered, 0.0, {}, ro, elem_index=99)
    assert ro.calls[0][0] == 3


def _fresh_ro():
    ro = ReductionObject()
    for _ in range(4):
        ro.alloc(2, "add")
    return ro


@pytest.mark.parametrize("backend", ["scalar", "batch"])
@pytest.mark.parametrize("opt_level", [0, 2])
def test_kernels_agree_with_interpreter(backend, opt_level):
    comp = compile_reduction(
        SOURCE, CONSTS, opt_level=opt_level, backend=backend
    )
    data = np.arange(16, dtype=np.float64) * 0.5
    bound = comp.bind(data)
    ro = _fresh_ro()
    bound.run_serial(ro)
    counts = [ro.get(g, 0) for g in range(4)]
    sums = [ro.get(g, 1) for g in range(4)]
    assert counts == [4.0, 4.0, 4.0, 4.0]
    expect = [float(data[g * 4 : g * 4 + 4].sum()) for g in range(4)]
    assert sums == expect


def test_scalar_kernel_source_uses_loop_variable():
    comp = compile_reduction(SOURCE, CONSTS, opt_level=2, backend="scalar")
    assert "_e" in comp.python_source


def test_batch_kernel_builds_lane_array():
    comp = compile_reduction(SOURCE, CONSTS, opt_level=2, backend="batch")
    assert comp.batch_source is not None
    assert "_ev = _np.arange(_start, _end)" in comp.batch_source


@pytest.mark.parametrize("backend", ["scalar", "batch"])
def test_split_offsets_stay_global(backend):
    """A kernel run over a nonzero split must see global positions, not
    split-local ones."""
    comp = compile_reduction(SOURCE, CONSTS, opt_level=2, backend=backend)
    data = np.ones(16, dtype=np.float64)
    bound = comp.bind(data)
    ro = _fresh_ro()
    comp.effective_kernel(8, 16, ro, bound.env, bound.counters)
    counts = [ro.get(g, 0) for g in range(4)]
    assert counts == [0.0, 0.0, 4.0, 4.0]


needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)


@pytest.mark.parametrize("backend", ["scalar", "batch", pytest.param("native", marks=needs_cc)])
def test_an_element_base_shifts_the_index_on_every_tier(backend):
    """A delta session's tail runs at segment-local positions with its first
    global position as ``_elem_base``: local elements 0..7 of a segment
    based at 8 are global elements 8..15, windows 2 and 3."""
    comp = compile_reduction(SOURCE, CONSTS, opt_level=2, backend=backend)
    assert comp.effective_backend == backend
    data = np.arange(8, dtype=np.float64) + 1.0
    bound = comp.bind(data)
    env = dict(bound.env, _elem_base=8)
    ro = _fresh_ro()
    comp.effective_kernel(0, 8, ro, env, bound.counters)
    assert [ro.get(g, 0) for g in range(4)] == [0.0, 0.0, 4.0, 4.0]
    assert [ro.get(g, 1) for g in range(4)] == [0.0, 0.0, 10.0, 26.0]
    # past the last window: the clamp sees the global index too
    ro = _fresh_ro()
    comp.effective_kernel(0, 8, ro, dict(bound.env, _elem_base=100), bound.counters)
    assert [ro.get(g, 0) for g in range(4)] == [0.0, 0.0, 0.0, 8.0]
