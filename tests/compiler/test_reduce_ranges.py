"""``BoundReduction.reduce_ranges``: one hook, one meaning, on every tier.

The hook reduces ``[starts[i], ends[i])`` in order into an accessor.  The
native kernel takes the two arrays into one C call, the scalar kernel is
looped, the batch kernel is looped or — when the runs are short — run once
over a gathered copy (:meth:`BoundReduction.run_gathered`); whichever it
is, the result and the operation ledger are those of the scalar loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.native import probe_toolchain
from repro.compiler.translate import GATHER_RUN_THRESHOLD, compile_reduction
from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import CompilerError

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)
BACKENDS = ["scalar", "batch", pytest.param("native", marks=needs_cc)]

SUM_SOURCE = """
class sumReduction : ReduceScanOp {
  def accumulate(x: real) {
    roAdd(0, 0, x);
  }
}
"""

IDX_SOURCE = """
class idxSum : ReduceScanOp {
  def accumulate(x: real) {
    roAdd(0, 0, x * elemIdx());
  }
}
"""


def _scratch(layout):
    ro = ReductionObject()
    ro.alloc_many(layout)
    ro.freeze_layout()
    return ro


def _arrays(runs):
    return (
        np.array([s for s, _ in runs], dtype=np.int64),
        np.array([e for _, e in runs], dtype=np.int64),
    )


RUNS = [
    [],
    [(3, 4)],
    [(0, 40)],
    [(2, 3), (5, 6), (9, 10), (39, 40)],  # scattered single elements
    [(0, 5), (5, 5), (7, 12), (30, 40)],  # an empty run in the middle
]


@pytest.mark.parametrize("source", [SUM_SOURCE, IDX_SOURCE], ids=["sum", "elemIdx"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_tier_reduces_the_ranges_at_their_global_positions(backend, source):
    data = (np.arange(40, dtype=np.float64) * 3 % 16) / 8 + 1
    comp = compile_reduction(source, {}, 2, backend=backend)
    assert comp.effective_backend == backend
    bound = comp.bind(data.copy(), {})
    weights = np.arange(40) if source is IDX_SOURCE else np.ones(40)
    for runs in RUNS:
        ro = _scratch([(1, "add")])
        before = bound.counters.elements_processed
        bound.reduce_ranges(*_arrays(runs), ro)
        picked = np.concatenate([np.arange(s, e) for s, e in runs] or [[]]).astype(int)
        assert ro.get(0, 0) == (data[picked] * weights[picked]).sum()
        assert ro.update_count == picked.size
        assert bound.counters.elements_processed - before == picked.size


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_hook_is_what_make_spec_installs(backend):
    comp = compile_reduction(SUM_SOURCE, {}, 2, backend=backend)
    bound = comp.bind(np.arange(10, dtype=np.float64), {})
    spec, _ = bound.make_spec([(1, "add")])
    ro = _scratch([(1, "add")])
    spec.reduce_ranges(*_arrays([(1, 3), (8, 10)]), ro)
    assert ro.get(0, 0) == 1 + 2 + 8 + 9


@needs_cc
def test_native_ranges_refuses_arrays_it_cannot_walk():
    comp = compile_reduction(SUM_SOURCE, {}, 2, backend="native")
    bound = comp.bind(np.arange(10, dtype=np.float64), {})
    ro = _scratch([(1, "add")])
    with pytest.raises(ValueError, match="one length"):
        bound.reduce_ranges(np.array([0, 4]), np.array([2]), ro)
    with pytest.raises(ValueError, match="1-D"):
        bound.reduce_ranges(np.array([[0, 4]]), np.array([[2, 6]]), ro)
    assert ro.update_count == 0
    # strided and narrower integer arrays are converted, not reinterpreted
    both = np.array([[0, 2], [4, 6]], dtype=np.int32)
    bound.reduce_ranges(both[:, 0], both[:, 1], ro)
    assert ro.get(0, 0) == 0 + 1 + 4 + 5


# -- the batch tier's gather -----------------------------------------------------


def test_batch_gathers_short_runs_into_one_dispatch(monkeypatch):
    data = np.arange(4 * GATHER_RUN_THRESHOLD, dtype=np.float64)
    comp = compile_reduction(IDX_SOURCE, {}, 2, backend="batch")
    bound = comp.bind(data.copy(), {})
    gathered = []
    run_gathered = bound.run_gathered
    monkeypatch.setattr(
        bound, "run_gathered",
        lambda idx, ro: gathered.append(idx.tolist()) or run_gathered(idx, ro),
    )
    ro = _scratch([(1, "add")])
    bound.reduce_ranges(*_arrays([(3, 5), (9, 10), (20, 23)]), ro)
    assert gathered == [[3, 4, 9, 20, 21, 22]]
    assert ro.get(0, 0) == sum(i * i for i in gathered[0])
    # one run, or long runs, read the dataset in place
    bound.reduce_ranges(*_arrays([(3, 50)]), ro)
    n = data.size
    bound.reduce_ranges(*_arrays([(0, n // 2), (n // 2 + 1, n)]), ro)
    assert len(gathered) == 1


def test_run_gathered_position_independent():
    data = np.arange(10, dtype=np.float64)
    comp = compile_reduction(SUM_SOURCE, {}, 2, backend="batch")
    bound = comp.bind(data.copy(), {})
    ro = _scratch([(1, "add")])
    assert bound.run_gathered(np.array([2, 5, 9]), ro) == 3
    assert ro.get(0, 0) == data[[2, 5, 9]].sum()
    assert bound.run_gathered(np.array([], dtype=np.intp), ro) == 0


def test_run_gathered_elem_idx_uses_global_indices():
    # the batch backend accepts the true global indices through the env,
    # so elemIdx()-dependent kernels see original positions even though
    # the elements were compacted into a gathered buffer
    data = np.arange(10, dtype=np.float64) + 1
    comp = compile_reduction(IDX_SOURCE, {}, 2, backend="batch")
    bound = comp.bind(data.copy(), {})
    ro = _scratch([(1, "add")])
    idx = np.array([3, 7])
    bound.run_gathered(idx, ro)
    assert ro.get(0, 0) == (data[3] * 3) + (data[7] * 7)


def test_run_gathered_refused_off_the_batch_backend():
    # only the batch kernel reads the gathered elements' true positions
    # from the env; the scalar tier's hook is the loop and never gets here
    data = np.arange(10, dtype=np.float64)
    comp = compile_reduction(IDX_SOURCE, {}, 2, backend="scalar")
    bound = comp.bind(data.copy(), {})
    ro = _scratch([(1, "add")])
    with pytest.raises(CompilerError, match="batch"):
        bound.run_gathered(np.array([1, 2]), ro)
    bound.reduce_ranges(*_arrays([(1, 3)]), ro)
    assert ro.get(0, 0) == 1 * 1 + 2 * 2
