"""Tests for the persistent thread pool and engine lifecycle."""

import threading

import numpy as np
import pytest

from repro.compiler.native import probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride import execute
from repro.freeride.execute import INLINE_WAVE_ELEMENTS
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.util.errors import FreerideError


def sum_spec():
    def setup(ro: ReductionObject) -> None:
        ro.alloc(1, "add")

    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            args.ro.accumulate(0, 0, float(x))

    def finalize(ro: ReductionObject):
        return ro.get(0, 0)

    return ReductionSpec(
        name="sum", setup_reduction_object=setup, reduction=reduction, finalize=finalize
    )


class TestPersistentPool:
    def test_pool_reused_across_runs(self):
        engine = FreerideEngine(num_threads=2, executor="threads")
        try:
            engine.run(sum_spec(), [1, 2, 3])
            pool = engine._pool
            assert pool is not None
            engine.run(sum_spec(), [4, 5, 6])
            assert engine._pool is pool
        finally:
            engine.close()

    def test_serial_executor_never_spins_up_pool(self):
        engine = FreerideEngine(num_threads=2, executor="serial")
        try:
            engine.run(sum_spec(), [1, 2, 3])
            assert engine._pool is None
        finally:
            engine.close()

    def test_results_correct_across_many_runs(self):
        with FreerideEngine(num_threads=3, executor="threads") as engine:
            for i in range(5):
                result = engine.run(sum_spec(), list(range(10 + i)))
                assert result.value == sum(range(10 + i))

    def test_close_is_idempotent(self):
        engine = FreerideEngine(num_threads=2, executor="threads")
        engine.run(sum_spec(), [1])
        engine.close()
        engine.close()

    def test_closed_engine_raises(self):
        engine = FreerideEngine(num_threads=2, executor="threads")
        engine.close()
        with pytest.raises(FreerideError, match="closed"):
            engine.run(sum_spec(), [1, 2])

    def test_context_manager_closes(self):
        with FreerideEngine(num_threads=2, executor="threads") as engine:
            engine.run(sum_spec(), [1, 2])
        assert engine._closed
        with pytest.raises(FreerideError, match="closed"):
            engine.run(sum_spec(), [3])

    def test_pool_threads_named(self):
        import threading

        names = set()

        def spy(args: ReductionArgs) -> None:
            names.add(threading.current_thread().name)

        spec = ReductionSpec(
            name="spy",
            setup_reduction_object=lambda ro: ro.alloc(1, "add"),
            reduction=spy,
        )
        with FreerideEngine(num_threads=2, executor="threads") as engine:
            engine.run(spec, list(range(8)))
        assert any(n.startswith("freeride") for n in names)

    def test_fault_tolerant_path_uses_persistent_pool(self):
        from repro.freeride.faults import FaultPolicy

        engine = FreerideEngine(
            num_threads=2, executor="threads", fault_policy=FaultPolicy()
        )
        try:
            result = engine.run(sum_spec(), list(range(20)))
            assert result.value == sum(range(20))
            pool = engine._pool
            engine.run(sum_spec(), list(range(20)))
            assert engine._pool is pool
        finally:
            engine.close()


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


def _histogram_wave(n):
    """A native 16-bin histogram over ``n`` dyadic values: one wave of two
    equal splits on a two-thread engine."""
    comp = compile_reduction(
        HISTOGRAM, {"bins": 16, "lo": 0.0, "width": 0.125}, 2, backend="native"
    )
    assert comp.effective_backend == "native"
    bound = comp.bind((np.arange(n) % 16) / 8.0, {})
    return bound.make_spec([(2, "add")] * 16)


def _what_a_run_reports(result):
    stats = result.stats
    return (
        result.ro.snapshot().tobytes(),
        stats.splits_per_thread,
        stats.elements_per_thread,
        stats.sharedmem.ro_memory_bytes,
    )


def _serial_twin(spec, idx):
    """The same lanes, inline: what a threaded run of the wave must report."""
    with FreerideEngine(num_threads=2, executor="serial") as engine:
        return _what_a_run_reports(engine.run(spec, idx))


@pytest.mark.skipif(not probe_toolchain()["ok"], reason="no usable C toolchain")
class TestSmallWavesRunInline:
    """A batched wave under ``INLINE_WAVE_ELEMENTS`` live elements costs
    less on the calling thread than the pool hand-off; over it, the pool."""

    def test_a_wave_under_the_constant_never_reaches_the_pool(self, monkeypatch):
        spec, idx = _histogram_wave(INLINE_WAVE_ELEMENTS - 2)

        def no_pool():
            raise AssertionError("a small wave was handed to the pool")

        with FreerideEngine(num_threads=2, executor="threads") as engine:
            monkeypatch.setattr(engine, "_get_pool", no_pool)
            got = _what_a_run_reports(engine.run(spec, idx))
            assert engine._pool is None
        assert got == _serial_twin(spec, idx)
        assert got[1] == [1, 1]

    def test_a_wave_over_it_runs_one_lane_per_pool_thread(self, monkeypatch):
        spec, idx = _histogram_wave(INLINE_WAVE_ELEMENTS + 2)
        # each lane holds its first batch until the other has taken one, so
        # the two splits land one per lane, as they do inline
        ready = threading.Barrier(2, timeout=30)
        threads = set()
        reduce_batch = execute._reduce_batch

        def rendezvous(ctx, lane, splits):
            threads.add(threading.current_thread().name)
            ready.wait()
            reduce_batch(ctx, lane, splits)

        monkeypatch.setattr(execute, "_reduce_batch", rendezvous)
        with FreerideEngine(num_threads=2, executor="threads") as engine:
            got = _what_a_run_reports(engine.run(spec, idx))
        assert len(threads) == 2
        assert all(name.startswith("freeride") for name in threads)
        monkeypatch.undo()
        assert got == _serial_twin(spec, idx)
