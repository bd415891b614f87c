"""Native kernels reduce in one step: what that may and may not leave behind.

Two contracts of the native tier's direct stores:

* **failure atomicity** — a kernel that fails *inside* a split has already
  stored that split's earlier updates into its target.  Under a fault
  policy the target is the attempt's scratch object, which is dropped, so
  no accumulation of a failed attempt is ever visible; without one the run
  raises, as it does with the scalar kernel;
* **O(1) glue** — the interpreter's work per extra split is a small
  constant that does not depend on the width of the reduction object, and
  a replicated direct run never rebuilds or merges a reduction object per
  split.

The module skips when the host has no usable C toolchain.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.compiler.cache import compile_cached
from repro.compiler.native import probe_toolchain
from repro.freeride.faults import FAIL_FAST, SKIP_AND_REPORT, FaultPolicy
from repro.freeride.runtime import FreerideEngine
from repro.util.errors import ReductionObjectError

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

# -- failure atomicity ---------------------------------------------------------

#: The window comes from the element position, a data-dependent shift is
#: added to it: every element holds a value below 1 (shift 0) except the one
#: planted to send its update to a group that does not exist.
FAULTY_WINDOWS = """
class faultyWindows : ReduceScanOp {
  var win: int;

  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win) + toInt(x);
    roAdd(w, 0, 1.0);
    roAdd(w, 1, x);
  }
}
"""

WIN, WINDOWS, CHUNK = 32, 16, 64
N = WIN * WINDOWS
BAD = 200  # ninth element of split 3 = [192, 256): eight updates precede it
GOOD = (np.arange(N, dtype=np.float64) * 5 % 8) / 8.0  # dyadic, all below 1
LAYOUT = [(2, "add")] * WINDOWS

CELLS = [
    ("serial", "full_replication"),
    ("serial", "colored"),
    ("serial", "cache_sensitive_locking"),
    ("threads", "full_replication"),
    ("threads", "colored"),
    ("threads", "cache_sensitive_locking"),
    ("process", "full_replication"),
]


def _window_groups(split, num_groups):
    """The coloring hook: the windows a split's positions fall into."""
    return range(split.start // WIN, (split.end - 1) // WIN + 1)


def _run(executor, technique, policy):
    data = GOOD.copy()
    data[BAD] = 1000.0
    compiled = compile_cached(
        FAULTY_WINDOWS, {"win": WIN}, opt_level=2, backend="native"
    )
    assert compiled.effective_backend == "native"
    spec, idx = compiled.bind(data).make_spec(LAYOUT)
    spec.group_bounds = _window_groups
    with FreerideEngine(
        num_threads=2, executor=executor, technique=technique,
        chunk_size=CHUNK, fault_policy=policy,
    ) as engine:
        return engine.run(spec, idx)


def _survivors():
    """Counts and sums per window with the failed split's elements left out."""
    keep = np.ones(N, dtype=bool)
    keep[BAD // CHUNK * CHUNK : (BAD // CHUNK + 1) * CHUNK] = False
    windows = np.arange(N) // WIN
    expected = np.zeros((WINDOWS, 2))
    expected[:, 0] = np.bincount(windows[keep], minlength=WINDOWS)
    expected[:, 1] = np.bincount(windows[keep], weights=GOOD[keep], minlength=WINDOWS)
    return expected.reshape(-1)


class TestFailureInsideASplit:
    @pytest.mark.parametrize("executor,technique", CELLS)
    def test_fail_fast_raises_what_the_kernel_hit(self, executor, technique):
        with pytest.raises(ReductionObjectError, match="group not allocated"):
            _run(executor, technique, FaultPolicy(max_retries=1, mode=FAIL_FAST))

    @pytest.mark.parametrize("executor,technique", CELLS)
    def test_direct_run_raises(self, executor, technique):
        with pytest.raises(ReductionObjectError, match="group not allocated"):
            _run(executor, technique, None)

    @pytest.mark.parametrize("executor,technique", CELLS)
    def test_skip_and_report_shows_nothing_of_the_failed_split(
        self, executor, technique
    ):
        result = _run(
            executor, technique, FaultPolicy(max_retries=1, mode=SKIP_AND_REPORT)
        )
        assert result.stats.technique_effective.value == technique
        assert result.stats.failed_splits == 1
        assert result.stats.failures[0].split_id == BAD // CHUNK
        assert np.array_equal(result.ro.snapshot(), _survivors())


# -- O(1) glue -------------------------------------------------------------------


def _python_calls(bins, chunk_size):
    """Python-level calls, by function name, of one warm direct serial run."""
    data = (np.arange(3300, dtype=np.float64) * 7) % 64
    compiled = compile_cached(
        HISTOGRAM_CHAPEL_SOURCE,
        {"bins": bins, "lo": 0.0, "width": 64.0 / bins},
        opt_level=2, backend="native",
    )
    assert compiled.effective_backend == "native"
    spec, idx = compiled.bind(data).make_spec([(2, "add")] * bins)
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    with FreerideEngine(executor="serial", chunk_size=chunk_size) as engine:
        splits = sum(engine.run(spec, idx).stats.splits_per_thread)
        sys.setprofile(profiler)
        try:
            engine.run(spec, idx)
        finally:
            sys.setprofile(None)
    return splits, calls


class TestGlueIsConstantPerSplit:
    def test_calls_per_extra_split_do_not_grow_with_groups(self):
        per_split = {}
        for bins in (8, 1024):
            one, calls_one = _python_calls(bins, None)
            many, calls_many = _python_calls(bins, 100)
            assert (one, many) == (1, 33)
            extra = sum(calls_many.values()) - sum(calls_one.values())
            per_split[bins] = extra / (many - one)
        assert per_split[8] == per_split[1024]
        assert per_split[8] <= 0  # a batched run builds no Split objects

    def test_no_reduction_object_is_rebuilt_or_merged_per_split(self):
        _, calls_one = _python_calls(1024, None)
        _, calls_many = _python_calls(1024, 100)
        for calls in (calls_one, calls_many):
            assert calls["from_layout"] == 0
            # the local combination folds the one replica into the result:
            # the run's one fold of a reduction object into another
            assert calls["merge_from"] == 1
            assert calls["_fold"] == 1
            assert calls["_native_ranges"] == 1
