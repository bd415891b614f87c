"""The lane team: batched native waves claimed by C threads, not the pool.

A threaded engine hands each batched native wave of at least
``INLINE_WAVE_ELEMENTS`` elements to its lane team — ``W`` threads named
``freeride_<k>``, parked in C between waves — whose lanes claim guided
batches of split positions by compare-and-swap.  These tests pin what the
team must keep of the pool lanes it replaced: every live position reduced
exactly once into the right replica, the serial executor's errors with the
ledger and update counts of what was stored, no thread outliving its engine,
fork safety and concurrent engines; and that a team which cannot exist runs
the wave inline, loudly.
"""

import gc
import logging
import os
import threading

import numpy as np
import pytest

from repro.compiler import native as native_mod
from repro.compiler.native import NativeUnsupported, probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride import execute
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.obs.tracer import NullTracer, Tracer, tracing
from repro.util.errors import ReductionObjectError
from tests.freeride.test_runtime_pool import HISTOGRAM, LAYOUTS

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"], reason="no usable C toolchain"
)


def _alive(threads):
    return [t.name for t in threads if t.is_alive()]


def _report(result):
    stats = result.stats
    return (
        result.ro.snapshot().tobytes(), stats.total_elements,
        sum(stats.splits_per_thread), sum(stats.elements_per_thread),
        stats.ro_updates,
    )


def _no_inline_lanes(monkeypatch):
    """Make the calling thread's batched path raise: what runs, runs on the team."""

    def refuse(*args):
        raise AssertionError("a team wave ran a lane on the calling thread")

    monkeypatch.setattr(execute, "_reduce_positions", refuse)


def _histogram(values, groups=16):
    comp = compile_reduction(
        HISTOGRAM, {"bins": 16, "lo": 0.0, "width": 0.125}, 2, backend="native"
    )
    assert comp.effective_backend == "native"
    bound = comp.bind(values, {})
    spec, idx = bound.make_spec([(2, "add")] * groups)
    return bound, spec, idx


class TestEveryPositionOnce:
    """Each live position is reduced exactly once, into bits the inline lanes
    produce; the team takes over the pool lanes' partition and 8-thread
    cases."""

    @pytest.mark.parametrize("lanes", [2, 3, 8])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_same_bits_as_the_inline_lanes(self, layout, lanes):
        make, options = LAYOUTS[layout]
        spec, idx = make()
        with FreerideEngine(num_threads=lanes, executor="serial", **options) as engine:
            inline = engine.run(spec, idx)
        with FreerideEngine(num_threads=lanes, executor="threads", **options) as engine:
            teamed = engine.run(spec, idx)
            assert engine._pool is None  # batched native waves never need it
            spans_team = "zero-length" not in layout  # the others span > the constant
            assert (engine._res.team is not None) == spans_team
        assert _report(teamed) == _report(inline)
        assert teamed.stats.total_elements == len(idx)
        assert len(teamed.stats.splits_per_thread) == lanes

    def test_a_team_wave_runs_no_lane_on_the_caller(self, monkeypatch):
        spec, idx = LAYOUTS["chunked"][0]()
        with FreerideEngine(num_threads=2, executor="serial", chunk_size=97) as engine:
            want = _report(engine.run(spec, idx))
        _no_inline_lanes(monkeypatch)
        with FreerideEngine(num_threads=2, executor="threads", chunk_size=97) as engine:
            for _ in range(3):  # waves after the first reuse the parked lanes
                assert _report(engine.run(spec, idx)) == want
                team = engine._res.team
                assert _alive(team.threads) == ["freeride_0", "freeride_1"]
                assert all(t in threading.enumerate() for t in team.threads)

    def test_a_range_cut_at_the_tail_counts_as_one_split(self):
        values = (np.arange(30_000) % 16) / 8.0
        bound, _, _ = _histogram(values[:20_003])
        bound.append_elements(values[20_003:])
        spec, idx = bound.make_spec([(2, "add")] * 16)
        reports = []
        for executor in ("serial", "threads"):
            with FreerideEngine(num_threads=3, executor=executor) as engine:
                reports.append(_report(engine.run(spec, idx)))
        assert reports[0] == reports[1]
        assert reports[1][1:4] == (30_000, 3, 30_000)


class TestALaneThatFails:
    """A kernel error on one lane poisons the wave and raises what the serial
    executor raises, after every lane's stores are accounted for."""

    N = 40_000
    BAD = 31_337  # the one element of the 16th bin

    def _values(self):
        values = (np.arange(self.N) % 15) / 8.0
        values[self.BAD] = 15 / 8.0
        return values

    def test_the_serial_error_and_a_ledger_of_what_was_stored(self):
        bound, short, idx = _histogram(self._values(), groups=15)
        with FreerideEngine(num_threads=2, executor="serial", chunk_size=97) as engine:
            with pytest.raises(ReductionObjectError) as serial:
                engine.run(short, idx)
        with FreerideEngine(num_threads=4, executor="threads", chunk_size=97) as engine:
            with pytest.raises(ReductionObjectError) as teamed:
                engine.run(short, idx)
            assert str(teamed.value) == str(serial.value)
            assert engine._res.team is not None

            # the same wave through the hook, into replicas this test can read
            lanes = [ReductionObject.from_layout([(2, "add")] * 15) for _ in range(4)]
            before = bound.counters.copy()
            starts = np.arange(0, self.N, 97, dtype=np.int64)
            ends = np.minimum(starts + 97, self.N)
            with pytest.raises(ReductionObjectError):
                short.lane_wave(engine._res, starts, ends, lanes)
            updates = sum(ro.update_count for ro in lanes)
            counted = sum(ro.snapshot().reshape(15, 2)[:, 0].sum() for ro in lanes)
            # two stored updates per element counted; one failing lane, whose
            # first update was counted but not stored
            assert updates == 2 * counted
            assert bound.counters.ro_updates - before.ro_updates == updates + 1
            assert (
                bound.counters.elements_processed - before.elements_processed
                == counted + 1
            )

            # the engine's next run is whole
            _, full, _ = _histogram(self._values())
            got = _report(engine.run(full, idx))
        with FreerideEngine(num_threads=4, executor="serial", chunk_size=97) as engine:
            assert got == _report(engine.run(full, idx))


class TestLifecycle:
    def test_close_joins_every_lane(self):
        spec, idx = LAYOUTS["default"][0]()
        engine = FreerideEngine(num_threads=3, executor="threads")
        engine.run(spec, idx)
        threads = engine._res.team.threads
        assert _alive(threads) == ["freeride_0", "freeride_1", "freeride_2"]
        engine.close()
        assert _alive(threads) == [] and engine._res.team is None

    def test_a_collected_engine_joins_every_lane(self):
        spec, idx = LAYOUTS["default"][0]()
        engine = FreerideEngine(num_threads=2, executor="threads")
        engine.run(spec, idx)
        threads = engine._res.team.threads
        assert _alive(threads) == ["freeride_0", "freeride_1"]
        del engine
        gc.collect()
        assert _alive(threads) == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_a_forked_child_drops_the_team(self):
        spec, idx = LAYOUTS["default"][0]()
        with FreerideEngine(num_threads=2, executor="threads") as engine:
            engine.run(spec, idx)
            team = engine._res.team
            pid = os.fork()
            if pid == 0:  # the child: no lanes, so no team it may use
                os._exit(0 if not team.alive else 1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert team.alive
            with FreerideEngine(num_threads=2, executor="process") as procs:
                got = _report(procs.run(spec, idx))
            assert got[0] == _report(engine.run(spec, idx))[0]

    def test_two_engines_run_waves_at_once(self):
        spec, idx = LAYOUTS["chunked"][0]()
        with FreerideEngine(num_threads=2, executor="serial", chunk_size=97) as engine:
            want = _report(engine.run(spec, idx))
        start = threading.Barrier(2, timeout=60)
        got = {}

        def passes(k):
            with FreerideEngine(num_threads=2, executor="threads", chunk_size=97) as engine:
                start.wait()
                got[k] = [_report(engine.run(spec, idx)) for _ in range(20)]

        threads = [threading.Thread(target=passes, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert got[0] == got[1] == [want] * 20


class TestNoTeam:
    def test_a_team_that_cannot_exist_runs_inline_loudly(self, monkeypatch, caplog):
        def absent(lanes):
            raise NativeUnsupported("no futex on this platform")

        monkeypatch.setattr(native_mod, "LaneTeam", absent)
        monkeypatch.setattr(native_mod, "_team_warned", False)
        spec, idx = LAYOUTS["chunked"][0]()
        with FreerideEngine(num_threads=2, executor="serial", chunk_size=97) as engine:
            want = engine.run(spec, idx)
        tracer = Tracer()
        with caplog.at_level(logging.WARNING, logger="repro.compiler.native"), tracing(
            tracer
        ), FreerideEngine(
            num_threads=2, executor="threads", chunk_size=97, tracer=NullTracer()
        ) as engine:
            got = [engine.run(spec, idx) for _ in range(2)]
            assert engine._res.team is None and engine._pool is None
        for result in got:
            # the inline lanes: the serial executor's split of the work too
            assert _report(result) == _report(want)
            assert result.stats.splits_per_thread == want.stats.splits_per_thread
        events = [e.args for e in tracer.events() if e.name == "native_team"]
        assert len(events) == 2  # one per wave that ran inline
        assert events[0]["reason"] == "no futex on this platform"
        assert events[0]["lanes"] == 2
        warnings = [r for r in caplog.records if "lane team unavailable" in r.getMessage()]
        assert len(warnings) == 1
