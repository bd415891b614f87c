"""Incremental delta execution: equivalence, rollback, and fast paths.

The contract under test: after any sequence of ``run_delta`` appends and
retractions, the session's committed reduction object is **bit-identical**
to a cold full run over the surviving elements (appends at the tail,
retracted positions tombstoned).  All float data is dyadic (1/8 grids) so
addition is exact and the bit-identity claim is meaningful — see the
RS036 diagnostic for the general-float caveat.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.compiler.native import probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride.execute import INLINE_WAVE_ELEMENTS
from repro.freeride.faults import FaultInjector, FaultPolicy, InjectedFault
from repro.freeride.runtime import DELTA_COMMIT_SPLIT_ID, FreerideEngine
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.util.errors import CompilerError, FreerideError

HISTOGRAM_SOURCE = """
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

# mixed add/min/max over one scalar stream — exercises the invertible
# subtract path and the non-invertible replay path in the same epoch
MIXED_SOURCE = """
class mixedReduction : ReduceScanOp {
  def accumulate(x: real) {
    roAdd(0, 0, x);
    roMin(1, 0, x);
    roMax(2, 0, x);
  }
}
"""
MIXED_LAYOUT = [(1, "add"), (1, "min"), (1, "max")]

WINDOW_MIN_SOURCE = """
class windowMin : ReduceScanOp {
  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > numWin - 1) { w = numWin - 1; }
    roMin(w, 0, x);
  }
}
"""


def _dyadic(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.round(rng.normal(0, 1, n) * 8) / 8


def _cold(engine, source, consts, data, layout, opt_level=2, backend="batch"):
    comp = compile_reduction(source, consts, opt_level, backend=backend)
    bound = comp.bind(np.array(data, copy=True), {})
    spec, idx = bound.make_spec(layout)
    return engine.run(spec, idx)


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize(
    "executor,threads",
    [("serial", 1), ("threads", 2), ("process", 2)],
)
def test_delta_equals_cold_run_histogram(executor, threads, opt_level):
    rng = np.random.default_rng(7)
    base = _dyadic(rng, 400)
    comp = compile_reduction(
        HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, opt_level, backend="batch"
    )
    bound = comp.bind(base.copy(), {})
    with FreerideEngine(num_threads=threads, executor=executor) as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
        tail = _dyadic(rng, 60)
        retract = [3, 4, 5, 120, 250]
        res = eng.run_delta(sess, append=tail, retract=retract)

        survivors = np.concatenate([np.delete(base, retract), tail])
        cold = _cold(
            eng, HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, survivors,
            HISTOGRAM_LAYOUT, opt_level,
        )
        assert np.array_equal(sess.ro.snapshot(), cold.ro.snapshot())
        assert sess.ro.update_count == cold.ro.update_count
        assert res.stats.delta_mode == "append+retract"
        assert res.stats.delta_appended == 60
        assert res.stats.delta_retracted == 5
        assert res.stats.delta_epoch == 1
        assert res.stats.technique_effective is not None


def test_delta_mixed_ops_retract_replays_min_max():
    rng = np.random.default_rng(3)
    base = _dyadic(rng, 200)
    comp = compile_reduction(MIXED_SOURCE, {}, 2, backend="batch")
    bound = comp.bind(base.copy(), {})
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=MIXED_LAYOUT)
        # retract the global min and max so both groups must replay
        retract = [int(np.argmin(base)), int(np.argmax(base))]
        res = eng.run_delta(sess, retract=retract)
        assert res.stats.delta_mode == "retract"
        assert res.stats.delta_groups_replayed == 2  # min and max groups

        survivors = np.delete(base, retract)
        assert sess.ro.get(0, 0) == survivors.sum()
        assert sess.ro.get(1, 0) == survivors.min()
        assert sess.ro.get(2, 0) == survivors.max()


def test_windowed_min_replay_is_effect_summary_bounded():
    consts = {"win": 10, "numWin": 10}
    rng = np.random.default_rng(11)
    base = _dyadic(rng, 100)
    layout = [(1, "min")] * 10
    comp = compile_reduction(WINDOW_MIN_SOURCE, consts, 2, backend="batch")
    bound = comp.bind(base.copy(), {})
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=layout)
        i2 = 20 + int(np.argmin(base[20:30]))
        i7 = 70 + int(np.argmin(base[70:80]))
        res = eng.run_delta(sess, retract=[i2, i7])
        # only the two affected windows replay, and the replay scan stays
        # near their footprint instead of re-reading the whole dataset
        assert res.stats.delta_groups_replayed == 2
        assert res.stats.delta_replay_elements <= 64
        live = np.ones(100, bool)
        live[[i2, i7]] = False
        for w in range(10):
            vals = base[w * 10 : (w + 1) * 10][live[w * 10 : (w + 1) * 10]]
            assert sess.ro.get(w, 0) == vals.min()


def test_append_grows_into_clamped_window():
    consts = {"win": 10, "numWin": 10}
    rng = np.random.default_rng(5)
    base = _dyadic(rng, 100)
    layout = [(1, "min")] * 10
    comp = compile_reduction(WINDOW_MIN_SOURCE, consts, 2, backend="batch")
    bound = comp.bind(base.copy(), {})
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=layout)
        tail = _dyadic(rng, 15)
        eng.run_delta(sess, append=tail)
        assert sess.n_elements == 115
        w9 = np.concatenate([base[90:], tail])  # appended tail clamps to w9
        assert sess.ro.get(9, 0) == w9.min()


def test_multi_epoch_deltas_stay_identical():
    rng = np.random.default_rng(23)
    base = _dyadic(rng, 300)
    comp = compile_reduction(HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, 2, backend="batch")
    bound = comp.bind(base.copy(), {})
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
        all_data = base
        for epoch in range(1, 5):
            tail = _dyadic(rng, 20)
            live_idx = np.flatnonzero(sess.live)
            retract = rng.choice(live_idx, size=7, replace=False)
            eng.run_delta(sess, append=tail, retract=retract)
            all_data = np.concatenate([all_data, tail])
            assert sess.epoch == epoch
        survivors = all_data[sess.live]
        cold = _cold(
            eng, HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, survivors, HISTOGRAM_LAYOUT
        )
        assert np.array_equal(sess.ro.snapshot(), cold.ro.snapshot())
        assert sess.ro.update_count == cold.ro.update_count


# -- fault injection and rollback ------------------------------------------------


def test_mid_commit_fault_rolls_back_and_retry_succeeds():
    rng = np.random.default_rng(9)
    base = _dyadic(rng, 200)
    comp = compile_reduction(HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, 2, backend="batch")
    bound = comp.bind(base.copy(), {})
    injector = FaultInjector(
        fail_split_ids={DELTA_COMMIT_SPLIT_ID}, fail_attempts=1
    )
    with FreerideEngine(executor="serial", fault_injector=injector) as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
        before = sess.ro.snapshot()
        tail = _dyadic(rng, 30)
        with pytest.raises(InjectedFault):
            eng.run_delta(sess, append=tail, retract=[1, 2])
        # full rollback: RO, epoch, dataset length, liveness, bound buffer
        assert np.array_equal(sess.ro.snapshot(), before)
        assert sess.epoch == 0
        assert sess.n_elements == 200
        assert sess.live.all() and sess.live.size == 200
        assert sess.rollbacks == 1
        assert bound.n_elements == 200

        # the retry is attempt 2 for this epoch, past fail_attempts
        eng.run_delta(sess, append=tail, retract=[1, 2])
        survivors = np.concatenate([np.delete(base, [1, 2]), tail])
        cold = _cold(
            eng, HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, survivors, HISTOGRAM_LAYOUT
        )
        assert np.array_equal(sess.ro.snapshot(), cold.ro.snapshot())
        assert sess.epoch == 1


# -- every tier, both in-process executors ---------------------------------------

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)
BACKENDS = ["scalar", "batch", pytest.param("native", marks=needs_cc)]
EXECUTORS = [("serial", 1), ("threads", 2), ("process", 2)]

WINDOW_CONSTS = {"win": 10, "numWin": 20}
WINDOW_LAYOUT = [(1, "min")] * 20


def _histogram_oracle(values, live):
    x = values[live]
    b = np.clip(((x - 0.0) / 0.25).astype(int), 0, 7)
    out = np.zeros((8, 2))
    np.add.at(out[:, 0], b, 1.0)
    np.add.at(out[:, 1], b, x)
    return out.reshape(-1), 2 * x.size


def _mixed_oracle(values, live):
    x = values[live]
    return np.array([x.sum(), x.min(), x.max()]), 3 * x.size


def _window_oracle(values, live):
    w = np.minimum(np.arange(values.size) // 10, 19)
    out = np.full(20, np.inf)
    np.minimum.at(out, w[live], values[live])
    return out, int(live.sum())


def _clustered(rng):
    # five of each of three windows, each window's current minimum among them
    base = _dyadic(rng, 200)
    picks = []
    for w in (2, 3, 11):
        window = np.arange(w * 10, w * 10 + 10)
        rest = np.setdiff1d(window, [w * 10 + int(np.argmin(base[window]))])
        picks += [w * 10 + int(np.argmin(base[window])), *rng.choice(rest, 4, False)]
    return base, [(0, picks)]


def _positive(rng, n):
    return np.abs(_dyadic(rng, n))


#: name -> (source, constants, layout, oracle, rng -> (base, [(appended, retract)]))
DELTA_CASES = {
    "histogram": (
        HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, HISTOGRAM_LAYOUT, _histogram_oracle,
        lambda rng: (_positive(rng, 400), [(60, [3, 4, 5, 120, 250]), (10, [0, 399, 401])]),
    ),
    "mixed_add_min": (
        MIXED_SOURCE, {}, MIXED_LAYOUT, _mixed_oracle,
        lambda rng: (
            (base := _dyadic(rng, 200)),
            [(0, [int(np.argmin(base)), int(np.argmax(base))]), (20, [7])],
        ),
    ),
    "window_min_clustered": (
        WINDOW_MIN_SOURCE, WINDOW_CONSTS, WINDOW_LAYOUT, _window_oracle, _clustered,
    ),
    "append_and_retract": (
        WINDOW_MIN_SOURCE, WINDOW_CONSTS, WINDOW_LAYOUT, _window_oracle,
        # the tail clamps into the last window, which also loses elements
        lambda rng: (_dyadic(rng, 200), [(15, [190, 195, 199, 42]), (5, [200, 214])]),
    ),
    "retract_only": (
        HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, HISTOGRAM_LAYOUT, _histogram_oracle,
        lambda rng: (_positive(rng, 300), [(0, list(range(0, 300, 7)))]),
    ),
    "append_only": (
        MIXED_SOURCE, {}, MIXED_LAYOUT, _mixed_oracle,
        lambda rng: (_dyadic(rng, 100), [(40, []), (1, [])]),
    ),
}

_DELTA_FIELDS = (
    "delta_epoch", "delta_mode", "delta_appended", "delta_retracted",
    "delta_groups_replayed", "delta_replay_elements",
    "delta_checkpoint_saves", "delta_checkpoint_hits",
)


def _drive_case(name, backend, executor, threads):
    """Baseline + the case's epochs; everything an observer can compare."""
    source, consts, layout, oracle, draw = DELTA_CASES[name]
    rng = np.random.default_rng(41)
    base, epochs = draw(rng)
    comp = compile_reduction(source, consts, 2, backend=backend)
    assert comp.effective_backend == backend
    bound = comp.bind(base.copy(), {})
    values, live = base, np.ones(base.size, dtype=bool)
    ledger = []
    with FreerideEngine(num_threads=threads, executor=executor) as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=layout)
        for appended, retract in epochs:
            tail = _dyadic(rng, appended) if appended else None
            if name == "histogram" and tail is not None:
                tail = np.abs(tail)
            res = eng.run_delta(
                sess, append=tail, retract=retract if retract else None
            )
            if tail is not None:
                values = np.concatenate([values, tail])
                live = np.concatenate([live, np.ones(appended, dtype=bool)])
            live[retract] = False
            expected, updates = oracle(values, live)
            assert np.array_equal(sess.ro.snapshot(), expected)
            assert sess.ro.update_count == updates
            assert sess.live.tobytes() == live.tobytes()
            assert (sess.live_count, sess.n_elements) == (int(live.sum()), live.size)
            assert res.stats.delta_appended == appended
            assert res.stats.delta_retracted == len(retract)
            ledger.append(tuple(getattr(res.stats, f) for f in _DELTA_FIELDS))
    return ledger, asdict(bound.counters), values[live]


_REFERENCE: dict = {}


@pytest.mark.parametrize("executor,threads", EXECUTORS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(DELTA_CASES))
def test_delta_on_every_tier(name, backend, executor, threads):
    """Result, update count, ``delta_*`` stats and the operation ledger are
    the same on every backend tier and executor — and the result is the
    NumPy oracle's over the survivors at their original positions."""
    if name not in _REFERENCE:
        _REFERENCE[name] = _drive_case(name, "scalar", "serial", 1)
    ref_ledger, ref_counters, _ = _REFERENCE[name]
    ledger, counters, _ = _drive_case(name, backend, executor, threads)
    assert ledger == ref_ledger
    assert counters == ref_counters


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["histogram", "mixed_add_min", "retract_only"])
def test_delta_equals_cold_run_on_every_tier(name, backend):
    """Position-independent programs: a cold engine run over the survivors."""
    source, consts, layout, oracle, _ = DELTA_CASES[name]
    _, _, survivors = _drive_case(name, backend, "serial", 1)
    with FreerideEngine(executor="serial") as eng:
        cold = _cold(eng, source, consts, survivors, layout, backend=backend)
    expected, updates = oracle(survivors, np.ones(survivors.size, dtype=bool))
    assert np.array_equal(cold.ro.snapshot(), expected)
    assert cold.ro.update_count == updates


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_commit_leaves_the_in_place_state_untouched(backend):
    """The liveness mask is flipped in place before the commit: a commit
    that fails must flip it back, byte for byte, along with everything else."""
    rng = np.random.default_rng(13)
    base = _dyadic(rng, 200)
    comp = compile_reduction(WINDOW_MIN_SOURCE, WINDOW_CONSTS, 2, backend=backend)
    bound = comp.bind(base.copy(), {})
    injector = FaultInjector(
        fail_split_ids={DELTA_COMMIT_SPLIT_ID}, fail_attempts=1
    )
    with FreerideEngine(executor="serial", fault_injector=injector) as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=WINDOW_LAYOUT)
        eng.fault_injector = None
        eng.run_delta(sess, retract=[50, 51])  # an earlier epoch's tombstones
        eng.fault_injector = injector
        before = (
            sess.live.tobytes(), sess.live_count, sess.n_elements, sess.epoch,
            bound.n_elements, bound.dataset_raw().size,
            sess.ro.snapshot().tobytes(), sess.ro.update_count,
            sorted(sess.ro.touched_groups()),
        )
        tail = _dyadic(rng, 230)  # past the mask's capacity: the backing grows
        retract = [int(np.argmin(base[:10])), 52, 199]
        with pytest.raises(InjectedFault):
            eng.run_delta(sess, append=tail, retract=retract)
        after = (
            sess.live.tobytes(), sess.live_count, sess.n_elements, sess.epoch,
            bound.n_elements, bound.dataset_raw().size,
            sess.ro.snapshot().tobytes(), sess.ro.update_count,
            sorted(sess.ro.touched_groups()),
        )
        assert after == before
        assert sess.rollbacks == 1

        eng.run_delta(sess, append=tail, retract=retract)  # attempt 2 commits
        values = np.concatenate([base, tail])
        live = np.ones(values.size, dtype=bool)
        live[[50, 51, *retract]] = False
        expected, updates = _window_oracle(values, live)
        assert np.array_equal(sess.ro.snapshot(), expected)
        assert sess.ro.update_count == updates
        assert sess.live.tobytes() == live.tobytes()
        assert (sess.live_count, sess.epoch) == (int(live.sum()), 2)


@pytest.mark.parametrize("backend", ["batch", pytest.param("native", marks=needs_cc)])
def test_a_failed_fused_commit_restores_every_group_it_wrote(backend):
    """One epoch appends into all three groups of an add/min/max layout and
    retracts the current minimum and maximum: its commit merges the tail
    into every group, subtracts from the add group and rebuilds the min and
    max groups.  A fault at the seam, after the merge, must give back all
    of it — bits, touched flags, update count, liveness, dataset length,
    the ring's earlier epochs and the checkpoint's counters."""
    rng = np.random.default_rng(17)
    base = _dyadic(rng, 200)
    comp = compile_reduction(MIXED_SOURCE, {}, 2, backend=backend)
    assert comp.effective_backend == backend
    bound = comp.bind(base.copy(), {})
    injector = FaultInjector(fail_split_ids={DELTA_COMMIT_SPLIT_ID}, fail_attempts=1)
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=MIXED_LAYOUT)
        first_tail = _dyadic(rng, 12)
        eng.run_delta(sess, append=first_tail, retract=[10, 11])
        eng.run_delta(sess, retract=[20])
        cp = sess.checkpoints

        def state():
            return (
                sess.ro.snapshot().tobytes(),
                [sess.ro.is_touched(g) for g in range(3)],
                sess.ro.update_count,
                sess.live.tobytes(), sess.live_count, sess.n_elements, sess.epoch,
                bound.n_elements, bound.dataset_raw().tobytes(),
                cp.saves, cp.hits, cp.epochs(),
                [sess.ro_at(e).snapshot().tobytes() for e in (0, 1, 2)],
            )

        before = state()
        values = np.concatenate([base, first_tail])
        live = np.ones(values.size, dtype=bool)
        live[[10, 11, 20]] = False
        # the current extremes: retracting them replays the min and max
        # groups, and the tail's values reach all three
        retract = sorted(
            {int(np.flatnonzero(live)[np.argmin(values[live])]),
             int(np.flatnonzero(live)[np.argmax(values[live])])}
        )
        tail = np.array([values[live].min() + 0.5, values[live].max() - 0.5, 0.125])
        eng.fault_injector = injector
        with pytest.raises(InjectedFault):
            eng.run_delta(sess, append=tail, retract=retract)
        assert state() == before
        assert sess.rollbacks == 1

        stats = eng.run_delta(sess, append=tail, retract=retract).stats
        values = np.concatenate([values, tail])
        live = np.concatenate([live, np.ones(3, dtype=bool)])
        live[retract] = False
        expected, updates = _mixed_oracle(values, live)
        assert np.array_equal(sess.ro.snapshot(), expected)
        assert sess.ro.update_count == updates
        # every group saved once, though both the tail and the retraction
        # name it: three hits
        assert (stats.delta_groups_replayed, stats.delta_checkpoint_saves) == (2, 3)
        assert stats.delta_checkpoint_hits == 3
        assert (cp.saves - before[9], cp.hits - before[10]) == (3, 3)


# -- where an appended tail is reduced ------------------------------------------


def _boundary_epochs(backend, executor, threads, tails, monkeypatch=None):
    """A histogram session fed one append+retract epoch per tail length:
    ``(engine runs per epoch, ledger, snapshot bytes, update count, stats)``."""
    rng = np.random.default_rng(17)
    base = _positive(rng, 300)
    comp = compile_reduction(HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, 2, backend=backend)
    assert comp.effective_backend == backend
    bound = comp.bind(base, {})
    runs = [0]  # the baseline's, then one count per epoch
    if monkeypatch is not None:
        run = FreerideEngine.run

        def counted(engine, spec, data):
            runs[-1] += 1
            return run(engine, spec, data)

        monkeypatch.setattr(FreerideEngine, "run", counted)
    ledger, stats = [], []
    with FreerideEngine(num_threads=threads, executor=executor) as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
        for epoch, appended in enumerate(tails):
            runs.append(0)
            res = eng.run_delta(
                sess, append=_positive(rng, appended), retract=[epoch, 100 + epoch]
            )
            ledger.append(tuple(getattr(res.stats, f) for f in _DELTA_FIELDS))
            stats.append(res.stats)
        snapshot, updates = sess.ro.snapshot().tobytes(), sess.ro.update_count
    return runs[1:], ledger, snapshot, updates, stats


@pytest.mark.parametrize("executor", ["threads", "process"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_an_appended_tail_is_folded_at_any_size(backend, executor, monkeypatch):
    """An appended tail is one kernel call into the session's scratch — no
    engine pass — on either side of :data:`INLINE_WAVE_ELEMENTS`, where the
    engine's own waves switch to the pool.  Either way the scalar serial
    session's result, ledger and update count."""
    tails = [INLINE_WAVE_ELEMENTS - 1, INLINE_WAVE_ELEMENTS]
    _, ref_ledger, ref_bytes, ref_updates, _ = _boundary_epochs(
        "scalar", "serial", 1, tails
    )
    runs, ledger, snapshot, updates, stats = _boundary_epochs(
        backend, executor, 2, tails, monkeypatch
    )
    assert runs == [0, 0]
    assert (ledger, snapshot, updates) == (ref_ledger, ref_bytes, ref_updates)
    for appended, epoch in zip(tails, stats):
        assert epoch.splits_per_thread == [1, 0]
        assert epoch.elements_per_thread == [appended, 0]
        assert epoch.total_elements == appended


def test_a_fault_policy_cannot_drop_tail_elements():
    """A folded tail is no split: ``skip_and_report`` and a split fault
    injector never reach it, so the epoch commits every appended element
    and ``live_count`` counts only elements the reduction object saw."""
    rng = np.random.default_rng(19)
    comp = compile_reduction(HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, 2, backend="batch")
    bound = comp.bind(_positive(rng, 100), {})
    policy = FaultPolicy(max_retries=0, mode="skip_and_report")
    with FreerideEngine(executor="serial", fault_policy=policy) as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
        eng.fault_injector = FaultInjector(fail_split_ids={0}, fail_attempts=1)
        stats = eng.run_delta(
            sess, append=_positive(rng, INLINE_WAVE_ELEMENTS), retract=[5, 6]
        ).stats
        assert stats.failed_splits == 0 and stats.failures == []
    values = bound.dataset_raw().view(np.float64)
    live = np.ones(values.size, dtype=bool)
    live[[5, 6]] = False
    expected, updates = _histogram_oracle(values, live)
    assert np.array_equal(sess.ro.snapshot(), expected)
    assert sess.ro.update_count == updates
    assert (sess.n_elements, sess.live_count, sess.epoch, sess.rollbacks) == (
        100 + INLINE_WAVE_ELEMENTS, 98 + INLINE_WAVE_ELEMENTS, 1, 0
    )


def test_a_refused_batch_is_not_a_rollback():
    """A batch refused before the epoch changes anything — an empty one, or
    one of the wrong element shape — raises without counting a rollback."""
    rng = np.random.default_rng(23)
    comp = compile_reduction(HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, 2, backend="batch")
    bound = comp.bind(_positive(rng, 50), {})
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
        before = sess.ro.snapshot().tobytes()
        with pytest.raises(FreerideError, match="added no elements"):
            eng.run_delta(sess, append=np.empty(0), retract=[1])
        with pytest.raises(CompilerError, match="does not match"):
            eng.run_delta(sess, append=np.ones((3, 2)), retract=[1])
        assert (sess.rollbacks, sess.epoch, sess.n_elements) == (0, 0, 50)
        assert sess.ro.snapshot().tobytes() == before
        assert sess.live.all() and bound.n_elements == 50
        eng.run_delta(sess, append=_positive(rng, 4), retract=[1])
        assert (sess.rollbacks, sess.epoch, sess.live_count) == (0, 1, 53)


def test_a_session_driven_by_two_process_engines_publishes_committed_bytes():
    """Each process engine keeps its own copy of the session's shared
    segment; an epoch publishes into neither.  After a rolled-back epoch on
    one engine and commits on both, a full pass on either engine reads the
    committed dataset, not a rolled-back batch's bytes."""
    rng = np.random.default_rng(29)
    comp = compile_reduction(HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, 2, backend="batch")
    bound = comp.bind(_positive(rng, 200), {})
    injector = FaultInjector(fail_split_ids={DELTA_COMMIT_SPLIT_ID}, fail_attempts=1)
    with FreerideEngine(num_threads=2, executor="process") as a, FreerideEngine(
        num_threads=2, executor="process"
    ) as b:
        _, sess = a.run_baseline(bound=bound, ro_layout=HISTOGRAM_LAYOUT)
        a.fault_injector = injector
        with pytest.raises(InjectedFault):  # rolled back on engine a
            a.run_delta(sess, append=np.full(100, 1.875))
        a.fault_injector = None
        b.run_delta(sess, append=np.full(100, 0.125))  # over the same positions
        full_b = b.run(*bound.make_spec(HISTOGRAM_LAYOUT)).ro
        a.run_delta(sess, append=_positive(rng, 50))
        full_a = a.run(*bound.make_spec(HISTOGRAM_LAYOUT)).ro
        tail_bytes = a._res.segments.session_tail_bytes
    values = bound.dataset_raw().view(np.float64)
    assert values.size == 350 and (values[200:300] == 0.125).all()
    expected, updates = _histogram_oracle(values, np.ones(350, dtype=bool))
    assert np.array_equal(sess.ro.snapshot(), expected)
    assert np.array_equal(full_a.snapshot(), expected)
    assert full_a.update_count == updates
    at_300, _ = _histogram_oracle(values[:300], np.ones(300, dtype=bool))
    assert np.array_equal(full_b.snapshot(), at_300)
    # engine a shipped only the elements its segment lacked
    assert tail_bytes == 150 * values.itemsize


# -- manual (uncompiled) sessions -----------------------------------------------


def _manual_sum_spec() -> ReductionSpec:
    def setup(ro):
        ro.alloc(1, "add")

    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            args.ro.accumulate(0, 0, float(x))

    return ReductionSpec(
        name="manual-sum", setup_reduction_object=setup, reduction=reduction
    )


def test_manual_session_append_retract():
    rng = np.random.default_rng(2)
    base = _dyadic(rng, 100)
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(_manual_sum_spec(), base.copy())
        assert sess.compiled is False
        tail = _dyadic(rng, 10)
        eng.run_delta(sess, append=tail, retract=[0, 50])
        survivors = np.concatenate([np.delete(base, [0, 50]), tail])
        assert sess.ro.get(0, 0) == survivors.sum()
        assert sess.ro.update_count == survivors.size


# -- API guards ------------------------------------------------------------------


def test_run_delta_rejects_bad_inputs():
    rng = np.random.default_rng(1)
    base = _dyadic(rng, 50)
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(_manual_sum_spec(), base.copy())
        with pytest.raises(Exception):
            eng.run_delta(sess)  # empty delta
        with pytest.raises(Exception):
            eng.run_delta("not-a-session", append=[1.0])
        with pytest.raises(Exception):
            eng.run_delta(sess, retract=[999])  # out of range
        eng.run_delta(sess, retract=[4])
        with pytest.raises(Exception):
            eng.run_delta(sess, retract=[4])  # double retract refused


def test_run_baseline_argument_exclusivity():
    rng = np.random.default_rng(1)
    base = _dyadic(rng, 50)
    comp = compile_reduction(HISTOGRAM_SOURCE, HISTOGRAM_CONSTS, 2, backend="batch")
    bound = comp.bind(base.copy(), {})
    with FreerideEngine(executor="serial") as eng:
        with pytest.raises(Exception):
            eng.run_baseline(_manual_sum_spec(), base, bound=bound)
        with pytest.raises(Exception):
            eng.run_baseline(bound=bound)  # missing ro_layout
        with pytest.raises(Exception):
            eng.run_baseline()
