"""Tests for the persistent thread pool and engine lifecycle."""

import threading

import numpy as np
import pytest

from repro.apps.windowed import WindowedRunner
from repro.chapel.values import from_python
from repro.compiler.native import probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride import execute
from repro.freeride.execute import INLINE_WAVE_ELEMENTS
from repro.freeride.faults import FaultPolicy
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.obs.tracer import Tracer
from repro.util.errors import FreerideError
from tests.freeride.test_plan import split_objects_built  # noqa: F401 (fixture)
from tests.freeride.test_splitter import loop_chunked

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"], reason="no usable C toolchain"
)


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


def _histogram_tail(n, start):
    """The histogram wave over ``range(start, n)``: data that, like one
    cluster node's share, does not start at element 0."""
    spec, idx = _histogram_wave(n)
    return spec, idx[start:]


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
    less on the calling thread than the team hand-off; over it, the team."""

    def test_a_wave_under_the_constant_never_reaches_the_pool(self, monkeypatch):
        spec, idx = _histogram_wave(INLINE_WAVE_ELEMENTS - 2)

        def no_pool():
            raise AssertionError("a small wave was handed to the pool")

        with FreerideEngine(num_threads=2, executor="threads") as engine:
            monkeypatch.setattr(engine, "_get_pool", no_pool)
            got = _what_a_run_reports(engine.run(spec, idx))
            assert engine._pool is None and engine._res.team is None
        assert got == _serial_twin(spec, idx)
        assert got[1] == [1, 1]

    def test_a_wave_over_it_runs_on_the_team(self, monkeypatch):
        spec, idx = _histogram_wave(INLINE_WAVE_ELEMENTS + 2)

        def no_pool():
            raise AssertionError("a batched native wave was handed to the pool")

        def no_inline_lane(*args):
            raise AssertionError("a team wave ran a lane on the calling thread")

        with FreerideEngine(num_threads=2, executor="threads") as engine:
            monkeypatch.setattr(engine, "_get_pool", no_pool)
            monkeypatch.setattr(execute, "_reduce_positions", no_inline_lane)
            got = _what_a_run_reports(engine.run(spec, idx))
            lanes = [t.name for t in engine._res.team.threads if t.is_alive()]
            assert engine._pool is None
        assert lanes == ["freeride_0", "freeride_1"]
        monkeypatch.undo()
        # which lane claims which split is the team's business: the totals
        # and the bits are the inline lanes'
        twin = _serial_twin(spec, idx)
        assert (got[0], got[3]) == (twin[0], twin[3])
        assert (sum(got[1]), sum(got[2])) == (sum(twin[1]), sum(twin[2]))


def _windowed_wave(n, window=512):
    """The native windowed sums over ``n`` uniform values: its group is a
    function of the position, so ``colored`` aligns and colors its splits."""
    with WindowedRunner(
        window, -(-n // window), np.linspace(0.5, 1.5, 6), 0.0, 1.0, backend="native"
    ) as runner:
        scale_t = runner.compiled.lowered.extra_types["scale"]
        bound = runner.compiled.bind(
            np.random.default_rng(n).uniform(0, 1, n),
            {"scale": from_python(scale_t, runner.scale.tolist())},
        )
        return bound.make_spec(runner.ro_layout())


#: name -> (the run's spec and data, engine options); the 20,000- and
#: 40,960-element waves span more than INLINE_WAVE_ELEMENTS, so threaded
#: runs of them reach the lane team
LAYOUTS = {
    "chunked": (lambda: _histogram_wave(20_000), {"chunk_size": 97}),
    "default": (lambda: _histogram_wave(20_000), {}),
    "default, zero-length": (lambda: _histogram_wave(2), {}),
    "default, offset": (lambda: _histogram_tail(20_000, 3_001), {}),
    "aligned": (lambda: _windowed_wave(40_960), {"technique": "colored"}),
    "aligned, zero-length": (lambda: _windowed_wave(100, 64), {"technique": "colored"}),
    "colored": (
        lambda: _windowed_wave(40_960), {"technique": "colored", "chunk_size": 1000}
    ),
}


@needs_cc
class TestPositionsAndSplitsReportTheSame:
    """A batched lane reduces batches of the plan's positions; a traced run
    makes one range call per position.  Same bits, same ledgers (per lane
    where lanes are fixed: inline) — and neither builds a ``Split``, the
    colored plan's coloring included."""

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_same_bits_and_ledgers(self, layout, threads, executor, split_objects_built):
        make, options = LAYOUTS[layout]
        spec, idx = make()
        reports = []
        for tracer in (None, Tracer()):
            with FreerideEngine(
                num_threads=threads, executor=executor, tracer=tracer, **options
            ) as engine:
                result = engine.run(spec, idx)
            stats = result.stats
            reports.append((
                result.ro.snapshot().tobytes(), stats.splits_per_thread,
                stats.elements_per_thread, stats.total_elements,
                stats.technique_effective.value,
            ))
        (bits, per_split, per_elem, total, tech), traced = reports
        assert (bits, total, tech) == (traced[0], traced[3], traced[4])
        assert total == len(idx)
        if executor == "serial":
            assert (per_split, per_elem) == (traced[1], traced[2])
        else:
            # team lanes (batched) and pool lanes (traced) claim work as they
            # come free: only the totals are fixed
            assert (sum(per_split), sum(per_elem)) == (sum(traced[1]), sum(traced[2]))
        assert split_objects_built["splits"] == 0
        if "zero-length" in layout and threads == 3 and executor == "serial":
            assert 0 in per_split  # a lane whose only split is empty

    @pytest.mark.parametrize("mode", [
        "fault_policy", "traced", "locking", "process",
    ])
    def test_per_split_runs_see_the_same_splits(self, mode, split_objects_built):
        spec, idx = _histogram_wave(3300)
        want = [(s.split_id, len(s)) for s in loop_chunked(idx, 97)]
        split_objects_built.clear()
        tracer = Tracer()
        options = {
            "fault_policy": {"fault_policy": FaultPolicy()},
            "traced": {},
            "locking": {"technique": "cache_sensitive_locking"},
            "process": {"executor": "process"},
        }[mode]
        with FreerideEngine(
            num_threads=2, chunk_size=97, tracer=tracer,
            **{"executor": "threads", **options},
        ) as engine:
            result = engine.run(spec, idx)
        assert split_objects_built["splits"] == 0
        spans = [s for s in tracer.spans() if s.name == "split"]
        assert sorted((s.args["split_id"], s.args["elements"]) for s in spans) == want
        with FreerideEngine(num_threads=2, chunk_size=97) as engine:
            twin = engine.run(spec, idx)
        assert result.ro.snapshot().tobytes() == twin.ro.snapshot().tobytes()
        assert result.stats.total_elements == twin.stats.total_elements == 3300
        if mode == "fault_policy":
            assert set(result.stats.split_attempts) == set(range(len(want)))
