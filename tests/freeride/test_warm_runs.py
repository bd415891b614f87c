"""A warm run reuses its plan and its replicas, and nothing else.

``FreerideEngine.run`` keeps two things between runs: the plan of a
compiled spec (``repro.freeride.plan.PlanCache``, keyed on everything
``plan_node`` reads) and emptied full-replication lanes per interned layout
(``repro.freeride.sharedmem.ReplicaPool``).  Pinned here:

(a) hygiene — after a run whose groups end at -0.0, NaN, ±inf or at the
    min/max identities, and after a run that raises part-way, every pooled
    replica holds what ``clone_empty()`` holds, and the next run on the
    engine gives a fresh engine's bits, ``RunStats`` and op-counter ledger;
(b) invalidation — one test per input that could leave a plan or replica
    stale (extras, layout, data range, technique, chunk size), and a custom
    splitter or hand-written spec is never cached;
(c) ownership — the caller's reduction object is never pooled, concurrent
    runs never share a replica, ``close()`` releases both caches, and a
    pooled replica keeps the pointers a native kernel prepared for it.
"""

import dataclasses
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.apps.kmeans import KMEANS_CHAPEL_SOURCE, centroids_to_chapel, kmeans_ro_layout
from repro.compiler.cache import compile_cached
from repro.compiler.native import probe_toolchain
from repro.freeride import plan as plan_module
from repro.freeride.faults import FaultInjector, FaultPolicy, InjectedFault
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionSpec
from repro.freeride.splitter import Split
from tests.freeride.test_plan import HIST_LAYOUT, _histogram

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

#: per element ``e``: group ``3e`` adds ``x[1]``, ``3e + 1`` takes its min,
#: ``3e + 2`` its max; ``x[2]`` names one more group to add 1.0 to, which a
#: value out of the layout turns into a kernel error
EDGES_SOURCE = """
class edges : ReduceScanOp {
  def accumulate(x: [1..2] real) {
    roAdd(3 * elemIdx(), 0, x[1]);
    roMin(3 * elemIdx() + 1, 0, x[1]);
    roMax(3 * elemIdx() + 2, 0, x[1]);
    roAdd(toInt(x[2]), 0, 1.0);
  }
}
"""

#: add groups end at +0.0 (an identity, touched), NaN, +inf and -inf; min
#: and max groups at -0.0, at their identities (NaN and ±inf arrive
#: unordered or equal) and at ±inf
EDGE_VALUES = [-0.0, np.nan, np.inf, -np.inf, 1.5, -2.5]


def _edges_layout(n):
    return [(1, op) for _ in range(n) for op in ("add", "min", "max")]


def _edges(values, backend="native", bad=None):
    """The edge kernel bound to ``values``; element ``bad`` names a group
    past the layout."""
    n = len(values)
    targets = np.zeros(n)
    if bad is not None:
        targets[bad] = 3 * n + 5
    data = np.stack([np.asarray(values, dtype=np.float64), targets], axis=1)
    compiled = compile_cached(EDGES_SOURCE, {}, 2, backend=backend)
    bound = compiled.bind(data)
    spec, idx = bound.make_spec(_edges_layout(n))
    return bound, spec, idx


def _stats(stats):
    """A run's ``RunStats`` without its wall times; a threaded run's lanes
    claim splits in whatever order they get to them, so only their totals."""
    out = dataclasses.asdict(stats)
    out.pop("phase_seconds")
    if stats.executor == "threads":
        for key in ("elements_per_thread", "splits_per_thread"):
            out[key] = sum(out[key])
    return out


def _bits(ro):
    return ro.snapshot().view(np.uint64).tolist(), ro.touched_mask().tolist(), ro.update_count


def _pooled(engine):
    """Every replica the engine's pool holds."""
    return [lane for lanes in engine._res.replicas._free.values() for lane in lanes]


def _assert_pool_is_empty_copies(engine):
    for lane in _pooled(engine):
        fresh = lane.clone_empty()
        assert lane.snapshot().view(np.uint64).tolist() == (
            fresh.snapshot().view(np.uint64).tolist()
        )
        assert lane._touched.tolist() == fresh._touched.tolist()
        assert lane.update_count == fresh.update_count == 0


def _assert_next_run_is_fresh(engine, make, **config):
    """The engine's next run of ``make()``'s binding equals a fresh
    engine's run of a fresh binding: bits, stats and counter ledger."""
    warm_bound, spec, idx = make()
    warm = engine.run(spec, idx)
    cold_bound, spec, idx = make()
    with FreerideEngine(**config) as fresh_engine:
        cold = fresh_engine.run(spec, idx)
    assert _bits(warm.ro) == _bits(cold.ro)
    assert _stats(warm.stats) == _stats(cold.stats)
    assert warm_bound.counters == cold_bound.counters


# -- (a) hygiene ---------------------------------------------------------------

CONFIGS = [
    {"executor": "serial", "num_threads": 2, "chunk_size": 1},
    {"executor": "threads", "num_threads": 2, "chunk_size": 1},
    {"executor": "serial", "num_threads": 1},
]


@needs_cc
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "-".join(map(str, c.values())))
def test_a_replica_comes_back_empty_from_edge_values(config):
    with FreerideEngine(**config) as engine:
        _, spec, idx = _edges(EDGE_VALUES)
        ro = engine.run(spec, idx).ro
        values = ro.snapshot().reshape(-1, 3)
        # the edges really were reached
        assert np.signbit(values[0, 1]) and np.signbit(values[0, 2])  # -0.0
        assert np.isnan(values[1, 0])
        assert values[2, 0] == np.inf and values[3, 0] == -np.inf
        assert values[1, 1] == np.inf and values[1, 2] == -np.inf  # identities
        assert ro.touched_mask().all()
        assert len(_pooled(engine)) == config["num_threads"]
        _assert_pool_is_empty_copies(engine)
        _assert_next_run_is_fresh(engine, lambda: _edges([1.0, 2.0, -3.0, 0.5]), **config)
        _assert_pool_is_empty_copies(engine)


@needs_cc
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "-".join(map(str, c.values())))
def test_a_kernel_error_returns_no_replica(config):
    with FreerideEngine(**config) as engine:
        _, spec, idx = _edges(EDGE_VALUES)
        engine.run(spec, idx)
        pooled = {id(lane) for lane in _pooled(engine)}
        _, spec, idx = _edges(EDGE_VALUES, bad=3)
        with pytest.raises(Exception, match="native kernel"):
            engine.run(spec, idx)
        # the failed run held the pooled lanes: none of them came back
        assert not pooled & {id(lane) for lane in _pooled(engine)}
        _assert_pool_is_empty_copies(engine)
        _assert_next_run_is_fresh(engine, lambda: _edges(EDGE_VALUES), **config)
        _assert_pool_is_empty_copies(engine)


@needs_cc
@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_an_injected_fault_leaves_the_pool_clean(executor):
    config = {"executor": executor, "num_threads": 2, "chunk_size": 1}
    fail_fast = {
        "fault_policy": FaultPolicy(max_retries=0),
        "fault_injector": FaultInjector(fail_split_ids={3}, fail_attempts=99),
    }
    retried = {
        "fault_policy": FaultPolicy(max_retries=2),
        "fault_injector": FaultInjector(fail_split_ids={1, 4}, fail_attempts=1),
    }
    with FreerideEngine(**config, **fail_fast) as engine:
        _, spec, idx = _edges(EDGE_VALUES)
        with pytest.raises(InjectedFault):
            engine.run(spec, idx)
        assert not _pooled(engine)
        engine.fault_policy, engine.fault_injector = retried.values()
        _assert_next_run_is_fresh(engine, lambda: _edges(EDGE_VALUES), **config, **retried)
        _assert_pool_is_empty_copies(engine)
        _assert_next_run_is_fresh(engine, lambda: _edges(EDGE_VALUES), **config, **retried)


# -- (b) what invalidates a plan or a replica -------------------------------------


def _kmeans(centroids, rebind=None):
    points = np.stack(
        [(np.arange(600) * 5) % 17, (np.arange(600) * 3) % 11], axis=1
    ).astype(np.float64)
    compiled = compile_cached(KMEANS_CHAPEL_SOURCE, {"k": 3, "dim": 2}, 2, backend="native")
    bound = compiled.bind(points, {"centroids": centroids_to_chapel(centroids)})
    spec, idx = bound.make_spec(kmeans_ro_layout(3, 2))
    if rebind is not None:
        bound.update_extras({"centroids": centroids_to_chapel(rebind)})
    return bound, spec, idx


@needs_cc
@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_update_extras_reaches_a_warm_run(executor):
    first = np.array([[2.0, 2.0], [8.0, 5.0], [14.0, 9.0]])
    late = np.array([[1.0, 9.0], [9.0, 1.0], [16.0, 10.0]])
    config = {"executor": executor, "num_threads": 2, "chunk_size": 150}
    with FreerideEngine(**config) as engine:
        bound, spec, idx = _kmeans(first)
        before = engine.run(spec, idx).ro.snapshot()
        bound.update_extras({"centroids": centroids_to_chapel(late)})
        after = engine.run(spec, idx)
        assert not np.array_equal(before, after.ro.snapshot())
        _assert_next_run_is_fresh(engine, lambda: _kmeans(first, rebind=late), **config)


@needs_cc
@pytest.mark.parametrize("technique", ["full_replication", "auto", "colored"])
def test_another_layout_is_planned_and_replicated_for_itself(technique):
    wide = HIST_LAYOUT + [(3, "max")] * 4
    config = {"num_threads": 2, "technique": technique, "chunk_size": 400}

    def make(layout):
        spec, data = _histogram(backend="native")
        spec_wide, _ = spec.bound.make_spec(layout)
        return spec.bound, spec_wide, data

    with FreerideEngine(**config) as engine:
        for layout in (HIST_LAYOUT, wide, HIST_LAYOUT, wide):
            _assert_next_run_is_fresh(engine, lambda: make(layout), **config)
        assert len(engine._plans) == 2


@needs_cc
def test_another_data_range_is_planned_for_itself():
    config = {"num_threads": 2, "technique": "auto"}
    with FreerideEngine(**config) as engine:
        for lo, hi in ((0, 3300), (100, 2000), (0, 3300), (1650, 3300)):
            def make():
                spec, _ = _histogram(backend="native")
                return spec.bound, spec, range(lo, hi)

            _assert_next_run_is_fresh(engine, make, **config)
        assert len(engine._plans) == 3


@needs_cc
@pytest.mark.parametrize("attribute,value,fresh", [
    ("technique", SharedMemTechnique.COLORED, {"technique": "colored"}),
    ("technique", SharedMemTechnique.CACHE_SENSITIVE_LOCKING,
     {"technique": "cache_sensitive_locking"}),
    ("chunk_size", 250, {"chunk_size": 250}),
])
def test_an_engine_setting_changed_between_runs_is_planned_for(attribute, value, fresh):
    """An engine's request is read at every run: a changed technique or
    chunk size is another key."""
    with FreerideEngine(num_threads=2) as engine:
        spec, data = _histogram(backend="native")
        engine.run(spec, data)
        setattr(engine, attribute, value)
        if attribute == "technique":
            engine.technique_requested = value.value

        def make():
            spec, data = _histogram(backend="native")
            return spec.bound, spec, data

        _assert_next_run_is_fresh(engine, make, num_threads=2, **fresh)
        assert len(engine._plans) == 2


def _plan_node_calls(engine, spec, data, runs=3):
    calls = Counter()
    real = plan_module.plan_node

    def counting(*args, **kwargs):
        calls["plan_node"] += 1
        return real(*args, **kwargs)

    plan_module.plan_node = counting
    try:
        results = [engine.run(spec, data) for _ in range(runs)]
    finally:
        plan_module.plan_node = real
    return calls["plan_node"], results


@needs_cc
def test_a_custom_splitter_is_planned_every_run():
    calls = Counter()

    def halves(data, num_threads):
        calls["splitter"] += 1
        mid = len(data) // 2
        return [Split(0, 0, mid, data[:mid]), Split(1, mid, len(data), data[mid:])]

    spec, data = _histogram(backend="native")
    with FreerideEngine(num_threads=2, splitter=halves) as engine:
        planned, results = _plan_node_calls(engine, spec, data)
        assert planned == calls["splitter"] == 3
        assert len(engine._plans) == 0
    assert all(sum(r.stats.splits_per_thread) == 2 for r in results)


def test_a_hand_written_spec_is_planned_every_run():
    """Its hooks may read anything, so no key can name its plan."""
    bounds_calls = Counter()

    def setup(ro):
        ro.alloc_many([(1, "add")] * 4)

    def reduction(args):
        for x in args.data:
            args.ro.accumulate(int(x) % 4, 0, float(x))

    def group_bounds(split, num_groups):
        bounds_calls["hook"] += 1
        return range(num_groups)

    spec = ReductionSpec("by-hand", setup, reduction, group_bounds=group_bounds)
    data = np.arange(40, dtype=np.float64)
    with FreerideEngine(num_threads=2, technique="colored", chunk_size=10) as engine:
        planned, results = _plan_node_calls(engine, spec, data)
        assert planned == 3 and bounds_calls["hook"] == 3 * 4
        assert len(engine._plans) == 0
    want = [sum(x for x in range(40) if x % 4 == g) for g in range(4)]
    for result in results:
        assert result.ro.snapshot().tolist() == want


# -- (c) ownership ---------------------------------------------------------------


@needs_cc
def test_the_callers_object_is_never_pooled():
    with FreerideEngine(num_threads=2, chunk_size=400) as engine:
        spec, data = _histogram(backend="native")
        results = [engine.run(spec, data) for _ in range(4)]
        kept = [r.ro.snapshot() for r in results]
        for _ in range(3):
            engine.run(spec, data)
        pooled = {id(lane) for lane in _pooled(engine)}
    assert not pooled & {id(r.ro) for r in results}
    for result, snapshot in zip(results, kept):
        assert np.array_equal(result.ro.snapshot(), snapshot)
        assert np.array_equal(snapshot, kept[0])


@needs_cc
def test_concurrent_runs_never_share_a_replica(monkeypatch):
    with FreerideEngine(num_threads=2, executor="threads", chunk_size=100) as engine:
        spec, data = _histogram(backend="native")
        want = engine.run(spec, data).ro.snapshot()
        pool = engine._res.replicas
        held, lock, overlaps = set(), threading.Lock(), []
        take, give = pool.take, pool.give

        def taking(*args):
            lanes = take(*args)
            with lock:
                ids = {id(lane) for lane in lanes}
                overlaps.append(held & ids)
                held.update(ids)
            return lanes

        def giving(layout, lanes, keep):
            with lock:
                held.difference_update(id(lane) for lane in lanes)
            give(layout, lanes, keep)

        monkeypatch.setattr(pool, "take", taking)
        monkeypatch.setattr(pool, "give", giving)
        results = [None] * 4

        def worker(k):
            results[k] = [engine.run(spec, data).ro.snapshot() for _ in range(15)]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the runs' Python often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert len(overlaps) == 60 and not any(overlaps)
    assert all(np.array_equal(got, want) for runs in results for got in runs)


@needs_cc
def test_close_releases_the_pool_and_the_plans():
    engine = FreerideEngine(num_threads=2)
    spec, data = _histogram(backend="native")
    engine.run(spec, data)
    assert len(_pooled(engine)) == 2 and len(engine._plans) == 1
    engine.close()
    assert not _pooled(engine) and len(engine._plans) == 0


@needs_cc
def test_a_pooled_replica_keeps_its_prepared_pointers():
    """The native wrapper prepares a target's pointers once per replica:
    a warm serial or threaded run prepares none."""
    spec, data = _histogram(backend="native", data=np.resize(np.arange(64.0), 40_000))
    for executor in ("serial", "threads"):
        with FreerideEngine(num_threads=2, executor=executor, chunk_size=5000) as engine:
            engine.run(spec, data)
            prepared = Counter()

            def profiler(frame, event, arg):
                if event == "call" and frame.f_code.co_name == "_prepare":
                    prepared[executor] += 1

            sys.setprofile(profiler)
            try:
                engine.run(spec, data)
            finally:
                sys.setprofile(None)
            assert prepared[executor] == 0


def test_a_warm_run_interns_no_layout():
    """``make_spec`` interns its layout once and hands the result to every
    run's setup: a warm run walks no layout, and its reduction object holds
    the interned tables themselves."""
    from repro.freeride import reduction_object

    spec, data = _histogram()
    interned = reduction_object.intern_layout(HIST_LAYOUT)
    with FreerideEngine(num_threads=2, executor="threads") as engine:
        engine.run(spec, data)
        interned_calls = Counter()

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is reduction_object.intern_layout.__code__:
                interned_calls["intern_layout"] += 1

        sys.setprofile(profiler)
        try:
            result = engine.run(spec, data)
        finally:
            sys.setprofile(None)
    assert interned_calls["intern_layout"] == 0
    assert result.ro.freeze_layout() is interned
