"""The shape of a delta epoch's work, not only its result.

FREERIDE's bargain is that per-element work lives inside the generated
reduction loop and the runtime around it is O(splits).  For ``run_delta``
on the native tier that means:

* **O(1) interpreter work in |Δ|** — the retract positions stay arrays from
  ``normalize_retract`` to the C call, so an epoch retracting 1,000
  scattered elements executes the Python calls (and bytecodes) of one
  retracting 10;
* **at most three kernel entries per epoch** — appended tail, retracted
  elements, replayed elements;
* **the planner asks each question once** — a footprint the effect summary
  has computed is never computed again, in this epoch or a later one;
* **an invertible epoch's kernel work is |Δ|** — appended plus retracted
  elements, nothing replayed: at 0.5 % churn that is 1/200 of a cold pass,
  which is why a delta beats a re-run by an order of magnitude (the ratio
  itself is the suite's ``freeride.delta_speedup_invertible``);
* **no call into NumPy's Python layer** in a warm epoch, and a compiled
  session's spec built once, yet seeing an ``update_extras`` made between
  epochs.

The module skips when the host has no usable C toolchain.
"""

import concurrent.futures.thread as _futures_thread
import gc
import linecache
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.analysis.effects import EffectSummary
from repro.apps.kmeans import KMEANS_CHAPEL_SOURCE, centroids_to_chapel
from repro.compiler.native import probe_toolchain, team
from repro.compiler.translate import compile_reduction
from repro.freeride import delta
from repro.freeride.execute import INLINE_WAVE_ELEMENTS
from repro.freeride.runtime import FreerideEngine
from repro.util.errors import ReductionObjectError

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)


@pytest.fixture(scope="module", autouse=True)
def _runtime_landed():
    """A session binds the native epoch loops when it opens: the runtime
    has landed before the first one does."""
    team.RUNTIME.get(wait=True)


@pytest.fixture(params=["native", "numpy"])
def path(request, monkeypatch):
    """The path an epoch's bookkeeping takes: the runtime's C loops, or
    NumPy with the runtime forced off."""
    if request.param == "numpy":
        monkeypatch.setattr(delta, "_epoch_runtime", delta._no_runtime)
    return request.param


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
BINS = 4

WINDOW_MIN = """
class windowMin : ReduceScanOp {
  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > numWin - 1) { w = numWin - 1; }
    roMin(w, 0, x);
  }
}
"""
WIN, WINDOWS = 64, 64


def _profiled_epoch(retracted):
    """(Python calls by name, bytecodes executed) of one warm native epoch
    retracting ``retracted`` scattered single elements (every third one, so
    no two are adjacent and all four bins lose elements)."""
    n = 6000
    data = (np.arange(n, dtype=np.float64) % BINS) / BINS
    comp = compile_reduction(
        HISTOGRAM, {"bins": BINS, "lo": 0.0, "width": 1.0 / BINS}, 2,
        backend="native",
    )
    assert comp.effective_backend == "native"
    bound = comp.bind(data, {})
    calls: Counter = Counter()
    opcodes = 0

    def tracer(frame, event, arg):
        nonlocal opcodes
        if event == "call":
            calls[frame.f_code.co_name] += 1
            frame.f_trace_opcodes = True
        elif event == "opcode":
            opcodes += 1
        return tracer

    with FreerideEngine(executor="serial") as engine:
        _, session = engine.run_baseline(bound=bound, ro_layout=[(2, "add")] * BINS)
        # warm, with as many retractions as the epoch measured: the run
        # buffers have grown to their size
        engine.run_delta(session, retract=np.arange(3000, 6000, 3))
        retract = np.arange(0, 3 * retracted, 3)
        sys.settrace(tracer)
        try:
            stats = engine.run_delta(session, retract=retract).stats
        finally:
            sys.settrace(None)
    assert stats.delta_retracted == retracted
    return calls, opcodes


class TestInterpreterWorkIsConstantInDelta:
    def test_a_hundred_times_the_retractions_cost_the_same_python(self, path):
        calls_few, ops_few = _profiled_epoch(10)
        calls_many, ops_many = _profiled_epoch(1000)
        # no call, and no bytecode, per retracted element: a per-element
        # tuple, list entry or loop trip would show as >= 990 of either
        assert sum(calls_many.values()) - sum(calls_few.values()) <= 2
        assert abs(ops_many - ops_few) <= 40

    def test_the_kernel_is_entered_once_for_all_retractions(self, path):
        calls, _ = _profiled_epoch(1000)
        assert calls["_native_ranges"] == 1
        # the runs are cut once: by epoch.c, or by contiguous_runs
        assert calls["contiguous_runs"] == (path == "numpy")


class _Calls:
    """Python calls by name while :attr:`armed`: on the thread that built
    it (:attr:`here`) and on any thread started while it is installed —
    an engine's pool threads (:attr:`elsewhere`).  Only calls into files
    whose path contains ``under`` count."""

    def __init__(self, under=""):
        self.under = under
        self.armed = False
        self.home = threading.get_ident()
        self.here: Counter = Counter()
        self.elsewhere: Counter = Counter()
        self._gc_was_enabled = False

    def __call__(self, frame, event, arg):
        if event == "call" and self.armed and self.under in frame.f_code.co_filename:
            mine = threading.get_ident() == self.home
            (self.here if mine else self.elsewhere)[frame.f_code.co_name] += 1

    def __enter__(self):
        threading.setprofile(self)
        sys.setprofile(self)
        return self

    def __exit__(self, *exc):
        self.disarm()
        sys.setprofile(None)
        threading.setprofile(None)

    def arm(self, engine=None):
        """Count from here on, once nothing started earlier is still running.

        Garbage that earlier code left is collected now, and no cyclic
        collection runs while armed: its finalizers would run on this thread
        in the middle of the counted work.  ``engine``'s pool threads are
        waited for until each is parked for its next job — a worker's
        bookkeeping after its last job (releasing the pool's idle semaphore)
        outlives the future the caller joined.
        """
        gc.collect()
        if engine is not None:
            _wait_until_parked(engine)
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        self.armed = True

    def disarm(self):
        self.armed = False
        if self._gc_was_enabled:
            self._gc_was_enabled = False
            gc.enable()


def _parked(thread, frames):
    """Whether a pool ``thread`` waits in its worker loop's queue ``get``:
    the only Python frame left is the loop's, at that line."""
    frame = frames.get(thread.ident)
    return (
        frame is not None
        and frame.f_code is _futures_thread._worker.__code__
        and "work_queue.get(" in linecache.getline(frame.f_code.co_filename, frame.f_lineno)
    )


def _wait_until_parked(engine, timeout=10.0):
    pool = engine._pool
    if pool is None:
        return
    deadline = time.monotonic() + timeout
    while not all(_parked(t, sys._current_frames()) for t in list(pool._threads)):
        assert time.monotonic() < deadline, "pool threads still busy"
        time.sleep(0.001)


def _calls_of(run):
    """Python calls by name that ``run()`` makes on the calling thread."""
    with _Calls() as calls:
        calls.arm()
        run()
    return calls.here


def _histogram_epochs(n, bins, executor, delta, under=""):
    """Python calls of one warm native histogram epoch (a :class:`_Calls`
    counting calls into files under ``under``).

    ``bins`` bins over ``n`` elements (element ``p`` falls in bin
    ``p % bins``); ``delta(epoch, n)`` gives each epoch's ``run_delta``
    arguments.  The first epoch warms the session, the second is counted.
    """
    comp = compile_reduction(
        HISTOGRAM, {"bins": bins, "lo": 0.0, "width": 1.0 / bins}, 2,
        backend="native",
    )
    assert comp.effective_backend == "native"
    bound = comp.bind((np.arange(n, dtype=np.float64) % bins) / bins, {})
    layout = [(2, "add")] * bins
    with _Calls(under) as calls, FreerideEngine(num_threads=2, executor=executor) as engine:
        _, session = engine.run_baseline(bound=bound, ro_layout=layout)
        engine.run_delta(session, **delta(0, n))
        calls.arm(engine)
        engine.run_delta(session, **delta(1, n))
        calls.disarm()
    return calls


def _churn(epoch, n):
    """0.5 % churn: 3/4 appended, 1/4 retracted as scattered single elements."""
    tail = (np.arange(n * 3 // 800, dtype=np.float64) % 4) / 4
    retract = np.arange(epoch, 3 * (n // 800), 3)
    return {"append": tail, "retract": retract}


def _retract_every_bin(epoch, n):
    """64 isolated retractions, one in each bin of 64 (3 and 64 are coprime)."""
    return {"retract": np.arange(64) * 3 + 192 * epoch}


class TestAWarmEpochCostsItsDelta:
    """Around the kernel, a warm epoch's interpreter work depends on neither
    the dataset's size nor the number of groups, and reuses its state."""

    def test_the_same_python_calls_at_a_hundred_times_the_data(self):
        # a threaded tail of 22 or 2,250 elements runs inline: no pool
        # hand-off, so nothing runs on another thread and the calling
        # thread does the same thing at both sizes
        small = _histogram_epochs(6_000, BINS, "threads", _churn)
        large = _histogram_epochs(600_000, BINS, "threads", _churn)
        assert small.here == large.here
        assert small.elsewhere == large.elsewhere == Counter()

    def test_every_executor_folds_a_small_tail_alike(self):
        # an appended tail under INLINE_WAVE_ELEMENTS is one kernel call into
        # the session's scratch on any executor: no engine pass around it
        calls = {
            executor: _histogram_epochs(6_000, BINS, executor, _churn, "/repro/")
            for executor in ("serial", "threads", "process")
        }
        here = {executor: c.here for executor, c in calls.items()}
        assert here["serial"] == here["threads"] == here["process"]
        assert sum(here["serial"].values()) <= 92
        assert not any(c.elsewhere for c in calls.values())
        for name in ("run", "plan_node", "clone_empty", "_prepare"):
            assert here["serial"][name] == 0

    def test_no_scratch_object_is_built(self, monkeypatch):
        from repro.freeride.reduction_object import ReductionObject

        clone_empty = ReductionObject.clone_empty

        def cloned(ro):
            return clone_empty(ro)

        monkeypatch.setattr(ReductionObject, "clone_empty", cloned)
        # a retraction from add groups, and one that replays min groups: the
        # epochs reduce into the session's scratch objects, and the kernel
        # reuses the pointers it prepared for them
        calls = _histogram_epochs(6_000, BINS, "serial", _retract_every_bin).here
        assert calls["cloned"] == 0 and calls["_prepare"] == 0
        # an appended tail is folded into the session's scratch as well
        for executor in ("serial", "threads"):
            calls = _histogram_epochs(6_000, BINS, executor, _churn)
            for counted in (calls.here, calls.elsewhere):
                assert counted["cloned"] == 0 and counted["_prepare"] == 0
        winmin = _Session(monkeypatch)
        try:
            winmin.epoch(retract=winmin.window(3, 4))
            calls = _calls_of(lambda: winmin.epoch(retract=winmin.window(9, 4)))
            assert winmin.entries == [4, 4]  # retract, then replay
            assert calls["cloned"] == 0 and calls["_prepare"] == 0
        finally:
            winmin.engine.close()

    def test_the_commit_does_not_loop_over_groups(self):
        few = _histogram_epochs(6_000, 4, "serial", _retract_every_bin).here
        many = _histogram_epochs(6_000, 64, "serial", _retract_every_bin).here
        assert sum(few.values()) == sum(many.values())
        assert few == many


class _Session:
    """A native window-min session with every kernel and planner entry counted."""

    def __init__(self, monkeypatch, executor="serial", threads=1):
        rng = np.random.default_rng(5)
        self.n = WIN * WINDOWS
        self.data = np.round(rng.normal(0, 1, self.n) * 8) / 8
        comp = compile_reduction(
            WINDOW_MIN, {"win": WIN, "numWin": WINDOWS}, 2, backend="native"
        )
        assert comp.effective_backend == "native"
        self.bound = comp.bind(self.data.copy(), {})
        self.entries = []
        ranges = comp.native_kernel.ranges

        def counted(starts, ends, *rest):
            self.entries.append(len(starts))
            return ranges(starts, ends, *rest)

        monkeypatch.setattr(comp.native_kernel, "ranges", counted)
        self.evaluated = []
        # the summary's memo misses: the footprints it computes
        evaluate = EffectSummary._footprint

        def counting(summary, start, end, num_groups):
            self.evaluated.append((start, end))
            return evaluate(summary, start, end, num_groups)

        monkeypatch.setattr(EffectSummary, "_footprint", counting)
        self.engine = FreerideEngine(executor=executor, num_threads=threads)
        _, self.session = self.engine.run_baseline(
            bound=self.bound, ro_layout=[(1, "min")] * WINDOWS
        )
        self.entries.clear()
        self.evaluated.clear()

    def epoch(self, **delta):
        self.entries.clear()
        self.evaluated.clear()
        return self.engine.run_delta(self.session, **delta).stats

    def window(self, w, count, skip=0):
        return list(range(w * WIN + skip, w * WIN + skip + 2 * count, 2))


@pytest.fixture
def winmin(monkeypatch):
    session = _Session(monkeypatch)
    yield session
    session.engine.close()


class TestAtMostThreeKernelEntries:
    def test_append_retract_and_replay_are_one_entry_each(self, winmin):
        # 24 isolated retractions in three windows: 24 runs to retract, the
        # windows' survivors in 24 runs to replay, a tail to fold
        retract = winmin.window(3, 8) + winmin.window(17, 8) + winmin.window(40, 8)
        stats = winmin.epoch(append=np.zeros(50), retract=retract)
        assert stats.delta_groups_replayed == 3
        assert len(winmin.entries) == 3
        # [tail], every retraction run, every replay run: one call each
        assert winmin.entries == [1, 24, 24]
        assert stats.delta_replay_elements == 3 * WIN - 24

    def test_retract_only_and_append_only(self, winmin):
        winmin.epoch(retract=winmin.window(5, 4))
        assert len(winmin.entries) == 2  # retract + replay
        winmin.epoch(append=np.zeros(7))
        assert len(winmin.entries) == 1


class TestThePlannerAsksEachQuestionOnce:
    def test_same_windows_again_cost_no_evaluation(self, winmin):
        depth = (WINDOWS - 1).bit_length()  # log2(n / leaf)
        winmin.epoch(retract=winmin.window(9, 3))
        first = list(winmin.evaluated)
        # root to leaf, two children per level
        assert 0 < len(first) <= 2 * depth + 1
        assert len(set(first)) == len(first)
        # the same window again, and after an append moved n: nothing new
        winmin.epoch(retract=winmin.window(9, 3, skip=1))
        assert winmin.evaluated == []
        winmin.epoch(append=np.zeros(30), retract=winmin.window(9, 3, skip=20))
        # n crossed the tree's span: a new root and its right child, once
        assert len(winmin.evaluated) <= 2
        winmin.epoch(append=np.zeros(30), retract=winmin.window(9, 3, skip=40))
        assert winmin.evaluated == []

    def test_a_fresh_window_costs_a_logarithmic_number(self, winmin):
        depth = (WINDOWS - 1).bit_length()
        winmin.epoch(retract=winmin.window(9, 3))
        winmin.epoch(retract=winmin.window(50, 3))
        fresh = len(winmin.evaluated)
        assert 0 < fresh <= 2 * depth
        # a neighbour shares all but the last levels of the path
        winmin.epoch(retract=winmin.window(51, 3))
        assert len(winmin.evaluated) <= 2
        assert len(winmin.evaluated) < fresh


class TestTheSpanSaysWhatTheEpochDid:
    def test_delta_apply_span_attributes(self, monkeypatch):
        from repro.obs.tracer import Tracer

        session = _Session(monkeypatch)
        tracer = Tracer()
        session.engine.tracer = tracer
        try:
            retract = session.window(3, 8) + session.window(17, 8)
            stats = session.epoch(append=np.zeros(50), retract=retract)
            evaluated = len(session.evaluated)
            session.epoch(retract=session.window(3, 2, skip=1))
        finally:
            session.engine.close()
        spans = [s for s in tracer.spans() if s.name == "delta.apply"]
        first, second = (s.args for s in spans)
        assert first["retract_runs"] == 16
        # per window 8 holes, the first at the window's start: 8 runs survive
        assert first["replay_runs"] == 2 * 8
        assert first["kernel_calls"] == 3
        assert first["planner_probes"] == evaluated > 0
        assert first["replay_elements"] == stats.delta_replay_elements
        assert (first["appended"], first["retracted"]) == (50, 16)
        # the second epoch re-asks only what the memo already holds
        assert second["planner_probes"] == 0
        assert second["kernel_calls"] == 2
        assert second["retract_runs"] == 2


def _dyadic(rng, shape):
    """Multiples of 1/8 in [0, 2]: float addition and retraction stay exact."""
    return np.round(rng.uniform(0.0, 2.0, shape) * 8) / 8


def _histogram_case(rng, n):
    consts = {"bins": 16, "lo": 0.0, "width": 0.125}
    return HISTOGRAM, consts, _dyadic(rng, n), {}, [(2, "add")] * 16


def _kmeans_case(rng, n):
    k, dim = 4, 2
    extras = {"centroids": centroids_to_chapel(_dyadic(rng, (k, dim)))}
    layout = [(dim + 2, "add")] * k
    data = _dyadic(rng, (n, dim))
    return KMEANS_CHAPEL_SOURCE, {"k": k, "dim": dim}, data, extras, layout


class TestAnInvertibleEpochCostsItsDelta:
    @pytest.mark.parametrize("make_case", [_histogram_case, _kmeans_case])
    def test_kernel_work_is_appended_plus_retracted(self, make_case):
        n, appended, retracted = 120_000, 450, 150  # 0.5 % churn, 3/4 appends
        rng = np.random.default_rng(42)
        source, consts, data, extras, layout = make_case(rng, n)
        comp = compile_reduction(source, consts, 2, backend="native")
        assert comp.effective_backend == "native"
        bound = comp.bind(data, extras)
        with FreerideEngine(executor="serial") as engine:
            _, session = engine.run_baseline(bound=bound, ro_layout=layout)
            cold = bound.counters.elements_processed
            assert cold == n
            tail = _dyadic(rng, (appended, *data.shape[1:]))
            retract = rng.choice(n, size=retracted, replace=False)
            stats = engine.run_delta(session, append=tail, retract=retract).stats
            epoch_work = bound.counters.elements_processed - cold
            survivors = np.concatenate([np.delete(data, retract, axis=0), tail])
            rerun = engine.run(*comp.bind(survivors, extras).make_spec(layout)).ro
        # a regression to "replay everything" reads n + |Δ| here
        assert epoch_work == appended + retracted
        assert np.array_equal(session.ro.snapshot(), rerun.snapshot())
        assert session.ro.update_count == rerun.update_count
        assert (stats.delta_appended, stats.delta_retracted) == (appended, retracted)
        assert stats.delta_replay_elements == 0
        assert stats.delta_groups_replayed == 0


class TestAFoldedTailIsOneUnitWithItsEpoch:
    """A folded tail runs inside the epoch's all-or-nothing unit, and as one
    in-order call into an empty scratch its bits are the serial engine's."""

    @pytest.mark.parametrize("backend", ["native", "scalar"])
    def test_a_raising_kernel_rolls_the_epoch_back(self, backend):
        # the program clamps to 8 bins, the layout has 4: an element past
        # 1.0 names a group the layout lacks, and the kernel raises
        consts = {"bins": 8, "lo": 0.0, "width": 0.25}
        rng = np.random.default_rng(3)
        comp = compile_reduction(HISTOGRAM, consts, 2, backend=backend)
        assert comp.effective_backend == backend
        bound = comp.bind(rng.integers(0, 8, 200) / 8, {})
        with FreerideEngine(executor="serial") as engine:
            layout = [(2, "add")] * 4
            _, session = engine.run_baseline(bound=bound, ro_layout=layout)
            before = (
                session.ro.snapshot().tobytes(), session.ro.update_count,
                session.n_elements, session.live.tobytes(), session.epoch,
            )
            bad = np.array([0.5, 0.25, 1.75, 0.125])
            with pytest.raises(ReductionObjectError, match="not allocated"):
                engine.run_delta(session, append=bad, retract=[3, 4])
            after = (
                session.ro.snapshot().tobytes(), session.ro.update_count,
                session.n_elements, session.live.tobytes(), session.epoch,
            )
            assert after == before
            assert (session.rollbacks, bound.n_elements) == (1, 200)

            good = np.array([0.5, 0.25, 0.875, 0.125])
            stats = engine.run_delta(session, append=good, retract=[3, 4]).stats
            assert (session.epoch, stats.delta_appended) == (1, 4)
            values = np.concatenate([bound.dataset_raw().view(np.float64)[:200], good])
            live = np.ones(204, dtype=bool)
            live[[3, 4]] = False
            bins = (values[live] / 0.25).astype(int)
            expected = np.zeros((4, 2))
            expected[:, 0] = np.bincount(bins, minlength=4)
            expected[:, 1] = np.bincount(bins, weights=values[live], minlength=4)
            assert np.array_equal(session.ro.snapshot(), expected.reshape(-1))

    def test_a_threaded_session_folds_the_serial_bits(self):
        # uniform reals: float addition rounds, so any difference in the
        # order of the tail's additions shows in the bytes.  The last tail
        # is past INLINE_WAVE_ELEMENTS, where an engine pass would split it
        consts = {"bins": 16, "lo": 0.0, "width": 0.125}
        rng = np.random.default_rng(8)
        base = rng.uniform(0.0, 2.0, 5_000)
        retracted = rng.permutation(5_000)
        sizes = [40, 340, 640, 940, INLINE_WAVE_ELEMENTS + 500]
        epochs = [
            (rng.uniform(0.0, 2.0, size), retracted[7 * k : 7 * k + 7])
            for k, size in enumerate(sizes)
        ]
        comp = compile_reduction(HISTOGRAM, consts, 2, backend="native")
        assert comp.effective_backend == "native"
        snapshots = []
        with FreerideEngine(executor="serial") as serial:
            for executor, threads in (("serial", 1), ("threads", 2)):
                bound = comp.bind(base.copy(), {})
                layout = [(2, "add")] * 16
                _, session = serial.run_baseline(bound=bound, ro_layout=layout)
                with FreerideEngine(num_threads=threads, executor=executor) as engine:
                    for tail, retract in epochs:
                        engine.run_delta(session, append=tail, retract=retract)
                snapshots.append(session.ro.snapshot().tobytes())
        assert snapshots[0] == snapshots[1]


def _window_min_case(rng, n):
    consts = {"win": WIN, "numWin": n // WIN}
    return WINDOW_MIN, consts, _dyadic(rng, n), {}, [(1, "min")] * (n // WIN)


def _scattered(epoch):
    """30 sorted retractions 200 apart (from 30 windows of window-min)."""
    return np.arange(epoch, 6_000, 200)


def _three_windows(epoch):
    """21 retractions clustered in three windows of window-min, as the
    benchmark's window-min churn is."""
    return (np.array([5, 37, 71])[:, None] * WIN + 3 * np.arange(7) + epoch).reshape(-1)


def _warm_epoch_calls(make_case, executor, under, retract=_scattered):
    """Python calls into files under ``under`` of a warm native epoch that
    appends 40 elements and retracts ``retract(epoch)`` (sorted; window-min
    replays the windows they fall in): the third epoch of a two-lane
    session, the first two warming it."""
    rng = np.random.default_rng(13)
    source, consts, data, extras, layout = make_case(rng, 6_400)
    comp = compile_reduction(source, consts, 2, backend="native")
    assert comp.effective_backend == "native"
    bound = comp.bind(data, extras)
    with _Calls(under) as calls, FreerideEngine(num_threads=2, executor=executor) as engine:
        _, session = engine.run_baseline(bound=bound, ro_layout=layout)
        for epoch in range(3):
            tail = _dyadic(rng, (40, *data.shape[1:]))
            if epoch == 2:
                calls.arm(engine)
            engine.run_delta(session, append=tail, retract=retract(epoch))
        calls.disarm()
    return calls


class TestAWarmEpochStaysOffNumpysPythonLayer:
    """NumPy's Python-level functions — ``np.any``, ``np.diff``,
    ``flatnonzero``, the ``concatenate`` dispatcher, even the ``.any()`` and
    ``.sum()`` methods and ``ndarray.ctypes`` — cost a few microseconds each
    in an epoch that does tens of microseconds of kernel work.  A warm epoch
    reaches NumPy through its C entry points only."""

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    @pytest.mark.parametrize(
        "make_case", [_histogram_case, _kmeans_case, _window_min_case],
        ids=["histogram", "kmeans", "window_min"],
    )
    def test_no_call_into_numpys_python_functions(self, make_case, executor, path):
        calls = _warm_epoch_calls(make_case, executor, "/numpy/")
        assert calls.here == Counter()
        assert calls.elsewhere == Counter()


#: Python calls into ``src/repro`` a warm native epoch makes, at most, per
#: path of its bookkeeping: the engine's glue around its two or three kernel
#: calls, pinned at the counts measured on Python 3.11.7 (before the fused
#: commit: 85, 88 and 148; before the C bookkeeping: 39, 39 and 87).  The
#: window-min epoch also walks the replay planner's tree, one memo lookup
#: per node.
EPOCH_CALL_CEILINGS = {
    "native": {"histogram": 34, "kmeans": 34, "window_min": 82},
    "numpy": {"histogram": 42, "kmeans": 42, "window_min": 91},
}

#: the warm epochs those count: a case, and its retractions per epoch
WARM_EPOCHS = {
    "histogram": (_histogram_case, _scattered),
    "kmeans": (_kmeans_case, _scattered),
    "window_min": (_window_min_case, _three_windows),
}


class TestAWarmEpochIsLeanGlue:
    """Around its kernel calls a warm epoch runs a fixed, small amount of
    Python: the checkpointed commit is one pass, an append rebuilds no
    array type and no reader, and the kernel wrapper resolves nothing it
    resolved on an earlier call.  The same calls on every executor, all on
    the calling thread."""

    @pytest.mark.parametrize("name", list(WARM_EPOCHS))
    def test_calls_into_repro_stay_under_the_ceiling(self, name, path):
        make_case, retract = WARM_EPOCHS[name]
        calls = {
            executor: _warm_epoch_calls(make_case, executor, "/repro/", retract)
            for executor in ("serial", "threads", "process")
        }
        here = {executor: c.here for executor, c in calls.items()}
        assert here["serial"] == here["threads"] == here["process"]
        assert sum(here["serial"].values()) <= EPOCH_CALL_CEILINGS[path][name]
        assert not any(c.elsewhere for c in calls.values())
        # the commit reads the layout tables once and makes one pass
        assert here["serial"]["commit_delta"] == 1
        assert here["serial"]["_tables"] <= 2


class TestACompiledSessionHoldsItsSpec:
    def test_update_extras_between_epochs_reaches_the_next_epoch(self, monkeypatch):
        """The spec is built at the first epoch, not again; its hook reads
        the bound env when called, so new centroids reach the next epoch:
        what that epoch adds is a cold run of its tail under the new
        centroids, less a cold run of its retracted rows under them."""
        from repro.compiler.translate import BoundReduction

        rng = np.random.default_rng(21)
        source, consts, data, extras, layout = _kmeans_case(rng, 3_000)
        comp = compile_reduction(source, consts, 2, backend="native")
        assert comp.effective_backend == "native"
        bound = comp.bind(data.copy(), extras)
        first_tail = _dyadic(rng, (40, 2))
        tail = _dyadic(rng, (50, 2))
        moved = {"centroids": centroids_to_chapel(_dyadic(rng, (4, 2)))}
        with FreerideEngine(executor="serial") as engine:
            _, session = engine.run_baseline(bound=bound, ro_layout=layout)
            engine.run_delta(session, append=first_tail, retract=[3, 9])
            built = []
            make_spec = BoundReduction.make_spec
            monkeypatch.setattr(
                BoundReduction, "make_spec",
                lambda self, *args, **kw: built.append(1) or make_spec(self, *args, **kw),
            )
            bound.update_extras(moved)
            before = session.ro.snapshot()
            engine.run_delta(session, append=tail, retract=[11, 20, 3_001])
            assert built == []
            monkeypatch.undo()

            def cold(rows, extras):
                return engine.run(
                    *comp.bind(rows, extras).make_spec(layout)
                ).ro.snapshot()

            retracted = np.stack([data[11], data[20], first_tail[1]])
            expected = cold(tail, moved) - cold(retracted, moved)
            # the old centroids would have given another epoch
            assert not np.array_equal(cold(tail, extras), cold(tail, moved))
        assert np.array_equal(session.ro.snapshot() - before, expected)
