"""A compiled delta session's dataset is two segments, and neither is copied.

The prefix is what ``bind`` made — on the numpy path the caller's own
array — and stays that array for the whole session; appends land in one
owned tail.  No kernel call spans the two: ranges are cut at
``n_prefix``, and a tail range runs at tail-local positions with an
element base, so ``elemIdx()`` stays global.  Every result here is
compared bit for bit with a cold run over the surviving elements at their
original positions (dyadic data: float addition is exact).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.apps.windowed import WINDOWED_CHAPEL_SOURCE
from repro.chapel.values import from_python
from repro.compiler.native import probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride.delta import mask_runs
from repro.freeride.faults import FaultInjector, InjectedFault
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import DELTA_COMMIT_SPLIT_ID, FreerideEngine
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.util.errors import CompilerError

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)
NATIVE = pytest.param("native", marks=needs_cc)
EXECUTORS = ["serial", "threads", "process"]

HISTOGRAM = """
class histogramReduction : ReduceScanOp {
  var bins: int;
  var lo: real;
  var width: real;

  def accumulate(x: real) {
    var b: int = toInt((x - lo) / width);
    if (b < 0) { b = 0; }
    if (b > bins - 1) { b = bins - 1; }
    roAdd(b, 0, 1.0);
    roAdd(b, 1, x);
  }
}
"""
HISTOGRAM_CONSTS = {"bins": 8, "lo": 0.0, "width": 0.25}
HISTOGRAM_LAYOUT = [(2, "add")] * 8

WINDOW_MIN = """
class windowMin : ReduceScanOp {
  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > numWin - 1) { w = numWin - 1; }
    roMin(w, 0, x);
  }
}
"""
WINDOW_CONSTS = {"win": 10, "numWin": 20}
WINDOW_LAYOUT = [(1, "min")] * 20

#: the windowed app kernel: 6 windows of 8, values binned into a 4-entry scale
WINDOWED_CONSTS = {"win": 8, "nw": 6, "nb": 4, "lo": 0.0, "width": 0.5}
WINDOWED_LAYOUT = [(2, "add")] * 6
SCALE = [1.0, 2.0, 0.5, 4.0]


def _windowed(backend):
    """The windowed kernel and its extras."""
    comp = compile_reduction(WINDOWED_CHAPEL_SOURCE, WINDOWED_CONSTS, 2, backend=backend)
    return comp, {"scale": from_python(comp.lowered.extra_types["scale"], SCALE)}


def _positive(rng, n):
    return np.abs(np.round(rng.normal(0, 1, n) * 8) / 8)


def _engine(executor):
    return FreerideEngine(num_threads=2, executor=executor, chunk_size=37)


def _cold(source, consts, backend, values, live, layout, extras=None):
    """A fresh bind of the whole dataset, reduced over its survivors at
    their original positions."""
    bound = compile_reduction(source, consts, 2, backend=backend).bind(
        np.array(values, copy=True), extras or {}
    )
    ro = ReductionObject.from_layout(layout)
    bound.reduce_ranges(*mask_runs(live), ro)
    return ro.snapshot()


def _windowed_oracle(values, live):
    w = np.minimum(np.arange(values.size) // 8, 5)
    b = np.clip((values / 0.5).astype(int), 0, 3)
    out = np.zeros((6, 2))
    np.add.at(out[:, 0], w[live], 1.0)
    np.add.at(out[:, 1], w[live], values[live] * np.array(SCALE)[b[live]])
    return out.reshape(-1)


@pytest.mark.parametrize("backend", ["batch", NATIVE])
@pytest.mark.parametrize("executor", EXECUTORS)
class TestSegments:
    def test_three_epochs_keep_the_callers_array_as_the_prefix(self, executor, backend):
        rng = np.random.default_rng(3)
        caller = _positive(rng, 300)
        comp = compile_reduction(HISTOGRAM, HISTOGRAM_CONSTS, 2, backend=backend)
        bound = comp.bind(caller, {})
        tails = [_positive(rng, k) for k in (40, 25, 61)]
        with _engine(executor) as eng:
            _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
            for tail, retract in zip(tails, ([3, 299], [301, 7], [330])):
                eng.run_delta(sess, append=tail, retract=retract)
            # a full pass whose splits straddle the boundary reads both segments
            full = eng.run(*bound.make_spec(HISTOGRAM_LAYOUT)).ro.snapshot()
        assert np.shares_memory(bound.data_buf.raw, caller)
        appended = sum(t.nbytes for t in tails)
        assert bound.tail_buf.nbytes == appended
        assert bound.tail_buf.capacity < 4 * appended
        values = np.concatenate([caller, *tails])
        live = np.ones(values.size, dtype=bool)
        live[[3, 299, 301, 7, 330]] = False
        assert np.array_equal(
            sess.ro.snapshot(),
            _cold(HISTOGRAM, HISTOGRAM_CONSTS, backend, values, live, HISTOGRAM_LAYOUT),
        )
        assert np.array_equal(
            full,
            _cold(HISTOGRAM, HISTOGRAM_CONSTS, backend, values, np.ones_like(live),
                  HISTOGRAM_LAYOUT),
        )

    def test_the_windowed_kernel_folds_a_tail_with_global_window_ids(
        self, executor, backend
    ):
        rng = np.random.default_rng(5)
        caller = _positive(rng, 21)  # the prefix ends inside window 2
        comp, extras = _windowed(backend)
        bound = comp.bind(caller, extras)
        tails = [_positive(rng, 9), _positive(rng, 30)]  # past the last window too
        with _engine(executor) as eng:
            _, sess = eng.run_baseline(bound=bound, ro_layout=WINDOWED_LAYOUT)
            eng.run_delta(sess, append=tails[0], retract=[20])
            eng.run_delta(sess, append=tails[1], retract=[22])
        values = np.concatenate([caller, *tails])
        live = np.ones(values.size, dtype=bool)
        live[[20, 22]] = False
        assert np.array_equal(sess.ro.snapshot(), _windowed_oracle(values, live))
        assert np.array_equal(
            sess.ro.snapshot(),
            _cold(WINDOWED_CHAPEL_SOURCE, WINDOWED_CONSTS, backend, values, live,
                  WINDOWED_LAYOUT, extras),
        )

    def test_a_rolled_back_first_epoch_leaves_the_callers_array(self, executor, backend):
        rng = np.random.default_rng(7)
        caller = _positive(rng, 120)
        pristine = caller.tobytes()
        comp = compile_reduction(HISTOGRAM, HISTOGRAM_CONSTS, 2, backend=backend)
        bound = comp.bind(caller, {})
        injector = FaultInjector(fail_split_ids={DELTA_COMMIT_SPLIT_ID}, fail_attempts=1)
        tail = _positive(rng, 50)
        with _engine(executor) as eng:
            _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
            before = sess.ro.snapshot().tobytes()
            eng.fault_injector = injector
            with pytest.raises(InjectedFault):
                eng.run_delta(sess, append=tail, retract=[4, 119])
            assert caller.tobytes() == pristine
            assert (bound.n_elements, sess.n_elements, sess.rollbacks) == (120, 120, 1)
            assert sess.ro.snapshot().tobytes() == before
            eng.run_delta(sess, append=tail, retract=[4, 119])  # attempt 2 commits
        assert caller.tobytes() == pristine
        values = np.concatenate([caller, tail])
        live = np.ones(values.size, dtype=bool)
        live[[4, 119]] = False
        assert np.array_equal(
            sess.ro.snapshot(),
            _cold(HISTOGRAM, HISTOGRAM_CONSTS, backend, values, live, HISTOGRAM_LAYOUT),
        )


@pytest.mark.parametrize("backend", ["scalar", "batch", NATIVE])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_replay_block_straddling_the_prefix_end(executor, backend):
    """Window 19 takes every position from 190 on, so its replay block
    starts in the prefix (195 elements) and ends in the tail: one epoch
    retracts an element on each side, and the survivors' runs around them
    cross ``n_prefix``."""
    rng = np.random.default_rng(11)
    caller = np.round(rng.normal(0, 1, 195) * 8) / 8
    tail = np.round(rng.normal(0, 1, 12) * 8) / 8
    # window 19's minimum on each side goes, and the survivors' run between
    # them, [193, 199), crosses the boundary
    first, second = 192, 199
    caller[first], tail[second - 195] = -10.0, -20.0
    comp = compile_reduction(WINDOW_MIN, WINDOW_CONSTS, 2, backend=backend)
    bound = comp.bind(caller, {})
    with _engine(executor) as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=WINDOW_LAYOUT)
        eng.run_delta(sess, append=tail)
        stats = eng.run_delta(sess, retract=[first, second]).stats
    assert stats.delta_groups_replayed == 1
    assert np.shares_memory(bound.data_buf.raw, caller)
    values = np.concatenate([caller, tail])
    live = np.ones(values.size, dtype=bool)
    live[[first, second]] = False
    expected = np.full(20, np.inf)
    np.minimum.at(expected, np.minimum(np.arange(values.size) // 10, 19)[live], values[live])
    got = sess.ro.snapshot()
    assert np.array_equal(got, expected)
    for tier in ("scalar", "batch", "native") if probe_toolchain()["ok"] else ("scalar", "batch"):
        cold = _cold(WINDOW_MIN, WINDOW_CONSTS, tier, values, live, WINDOW_LAYOUT)
        assert cold.tobytes() == got.tobytes()


@pytest.mark.parametrize("backend", ["batch", NATIVE])
def test_a_process_full_pass_ships_only_the_tail(backend):
    rng = np.random.default_rng(13)
    caller = _positive(rng, 500)
    comp = compile_reduction(HISTOGRAM, HISTOGRAM_CONSTS, 2, backend=backend)
    bound = comp.bind(caller, {})
    tails = [_positive(rng, 30), _positive(rng, 45)]
    with FreerideEngine(num_threads=2, executor="process") as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
        segments = eng._res.segments
        tail_bytes0 = segments.session_tail_bytes
        for tail in tails:
            eng.run_delta(sess, append=tail, retract=[int(rng.integers(0, 500))])
        full = eng.run(*bound.make_spec(HISTOGRAM_LAYOUT)).ro.snapshot()
        shipped = segments.session_tail_bytes - tail_bytes0
    values = np.concatenate([caller, *tails])
    assert shipped == sum(t.nbytes for t in tails)
    assert np.array_equal(
        full,
        _cold(HISTOGRAM, HISTOGRAM_CONSTS, backend, values, np.ones(values.size, bool),
              HISTOGRAM_LAYOUT),
    )


def test_run_gathered_reads_both_segments():
    rng = np.random.default_rng(17)
    caller, tail = _positive(rng, 40), _positive(rng, 15)
    comp, extras = _windowed("batch")
    bound = comp.bind(caller, extras)
    bound.append_elements(tail)
    indices = np.array([2, 17, 38, 39, 40, 41, 47, 54])  # both sides of 40
    ro = ReductionObject.from_layout(WINDOWED_LAYOUT)
    assert bound.run_gathered(indices, ro) == indices.size
    values = np.concatenate([caller, tail])
    live = np.zeros(values.size, dtype=bool)
    live[indices] = True
    assert np.array_equal(ro.snapshot(), _windowed_oracle(values, live))
    assert np.shares_memory(bound.data_buf.raw, caller)


def test_truncation_never_cuts_the_prefix():
    bound = compile_reduction(HISTOGRAM, HISTOGRAM_CONSTS, 2).bind(np.ones(10), {})
    bound.append_elements(np.full(4, 0.5))
    bound.truncate_elements(11)
    assert (bound.n_elements, bound.tail_buf.nbytes) == (11, 8)
    with pytest.raises(CompilerError, match="cannot truncate to 9 of 11 elements"):
        bound.truncate_elements(9)
    assert bound.dataset_raw().view(np.float64).tolist() == [1.0] * 10 + [0.5]


# -- a manual session's dataset ------------------------------------------------------


def _manual_histogram() -> ReductionSpec:
    """A hand-written histogram of the same data as ``HISTOGRAM``."""

    def setup(ro):
        ro.alloc_many(HISTOGRAM_LAYOUT)

    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            b = min(int(x / 0.25), 7)
            args.ro.accumulate(b, 0, 1.0)
            args.ro.accumulate(b, 1, float(x))

    return ReductionSpec(name="manual-histogram", setup_reduction_object=setup,
                         reduction=reduction)


@pytest.mark.parametrize("kind", ["array", "list"])
def test_a_manual_session_copies_the_callers_data_once(kind):
    """The first append copies the caller's data into an owned backing with
    room to grow; the next seven land in it, so none of them allocates a
    buffer the size of the dataset.  A rolled-back append restores the
    length, and the result is a cold run's over the survivors."""
    rng = np.random.default_rng(41)
    n = 40_000
    caller = _positive(rng, n)
    pristine = caller.tobytes()
    data = caller if kind == "array" else caller.tolist()
    tails = [_positive(rng, 30) for _ in range(8)]
    retracts = [[7 * k + 1, n + 30 * k - 2] if k else [1] for k in range(8)]
    injector = FaultInjector(fail_split_ids={DELTA_COMMIT_SPLIT_ID}, fail_attempts=1)
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(_manual_histogram(), data)
        views = []
        for k, (tail, retract) in enumerate(zip(tails, retracts)):
            batch = tail if kind == "array" else tail.tolist()
            if k == 4:  # one epoch fails mid-commit and is retried
                eng.fault_injector = injector
                with pytest.raises(InjectedFault):
                    eng.run_delta(sess, append=batch, retract=retract)
                assert sess.source.n_elements == sess.n_elements == n + 30 * k
                eng.fault_injector = None
            tracemalloc.start()
            try:
                eng.run_delta(sess, append=batch, retract=retract)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if k:
                assert peak < caller.nbytes / 8, f"append {k + 1} allocated {peak} bytes"
            views.append(sess.source.data)
        cold = eng.run(_manual_histogram(), _survivors(caller, tails, retracts)).ro
    assert sess.rollbacks == 1
    assert caller.tobytes() == pristine and len(data) == n
    if kind == "array":
        assert all(np.shares_memory(views[0], view) for view in views[1:])
    else:
        assert all(view is views[0] for view in views) and views[0] is not data
    assert np.array_equal(sess.ro.snapshot(), cold.snapshot())
    assert sess.ro.update_count == cold.update_count


def _survivors(caller, tails, retracts):
    values = np.concatenate([caller, *tails])
    live = np.ones(values.size, dtype=bool)
    live[np.concatenate(retracts)] = False
    return values[live]
