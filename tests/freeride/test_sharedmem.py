"""Unit tests for shared-memory techniques (replication and locking)."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.apps.kmeans import KmeansRunner
from repro.compiler.cache import compile_cached
from repro.freeride.faults import FaultInjector, FaultPolicy
from repro.freeride.plan import run_shape
from repro.freeride.reduction_object import DirectStore, ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import (
    ELEMS_PER_CACHE_LINE,
    LockingAccessor,
    SharedMemManager,
    SharedMemTechnique,
)
from repro.obs.tracer import Tracer
from repro.util.errors import FreerideError, ReductionObjectError

ALL_TECHNIQUES = list(SharedMemTechnique)
LOCKING = SharedMemTechnique.CACHE_SENSITIVE_LOCKING


def make_ro(groups=2, elems=3):
    ro = ReductionObject()
    ro.alloc_matrix(groups, elems)
    return ro


def finish(mgr, ro, lanes):
    """``mgr.finish`` with the shape the planner gives a one-split run."""
    return mgr.finish(ro, lanes, run_shape(mgr.technique, len(lanes), ro.size, 1))


class TestParse:
    def test_parse_string(self):
        assert (
            SharedMemTechnique.parse("cache_sensitive_locking")
            is SharedMemTechnique.CACHE_SENSITIVE_LOCKING
        )

    def test_parse_passthrough(self):
        t = SharedMemTechnique.FULL_REPLICATION
        assert SharedMemTechnique.parse(t) is t

    def test_parse_unknown(self):
        with pytest.raises(FreerideError):
            SharedMemTechnique.parse("spinlocks")

    @pytest.mark.parametrize("name", ["full_locking", "optimized_full_locking"])
    def test_per_element_locking_is_refused(self, name):
        """SDM'02's per-element locking variants are not offered: every way
        of asking for one is refused, naming the techniques there are."""
        kept = "['full_replication', 'cache_sensitive_locking', 'colored']"
        requests = [
            lambda: SharedMemTechnique.parse(name),
            lambda: FreerideEngine(technique=name),
            lambda: KmeansRunner(2, 2, technique=name),
        ]
        for request in requests:
            with pytest.raises(FreerideError) as refused:
                request()
            assert f"choose from {kept}" in str(refused.value)


class TestAllTechniquesAgree:
    """Every technique must produce identical reduction results."""

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_serial_updates(self, technique):
        ro = make_ro()
        mgr = SharedMemManager(technique)
        accessors = mgr.setup(ro, 3)
        for t, acc in enumerate(accessors):
            for e in range(3):
                acc.accumulate(t % 2, e, float(t + e))
        combined, stats, _ = finish(mgr, ro, accessors)
        # thread 0 and 2 hit group 0, thread 1 hits group 1
        assert list(combined.get_group(0)) == [0 + 2, 1 + 3, 2 + 4]
        assert list(combined.get_group(1)) == [1, 2, 3]

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_vectorized_group_updates(self, technique):
        ro = make_ro(groups=1, elems=4)
        mgr = SharedMemManager(technique)
        accessors = mgr.setup(ro, 2)
        accessors[0].accumulate_group(0, np.array([1.0, 2.0, 3.0, 4.0]))
        accessors[1].accumulate_group(0, np.array([10.0, 10.0, 10.0, 10.0]))
        combined, _, _ = finish(mgr, ro, accessors)
        assert list(combined.get_group(0)) == [11.0, 12.0, 13.0, 14.0]

    @pytest.mark.parametrize("tier", ["scalar", "group", "batch"])
    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_identity_valued_updates_stay_touched(self, technique, tier):
        """An update whose value is the op's identity leaves no mark in the
        element buffer; the touched bitmap must carry it under every
        technique — profile footprints and delta checkpoints read it."""
        ro = make_ro(groups=4, elems=2)
        mgr = SharedMemManager(technique)
        accessors = mgr.setup(ro, 2)
        for g in range(4):
            acc = accessors[g % 2]
            if tier == "scalar":
                acc.accumulate(g, 0, 0.0)
                acc.accumulate(g, 1, 0.0)
            elif tier == "group":
                acc.accumulate_group(g, np.zeros(2))
            else:
                acc.accumulate_batch(np.array([g, g]), np.array([0, 1]), 0.0)
        combined, _, _ = finish(mgr, ro, accessors)
        assert not combined.snapshot().any()
        assert combined.touched_groups() == frozenset(range(4))
        assert combined.update_count == 8

    def test_concurrent_locking_correctness(self):
        """An update stores only once it holds its cache line's lock, by
        every update path: while the test holds line 1's lock, another
        thread's update of the group on that line has stored nothing, and
        line 0 stays free; once the lock is let go, the update lands."""
        for path in ("scalar", "group", "batch", "commit"):
            ro = make_ro(groups=2, elems=8)  # one cache line per group
            mgr = SharedMemManager(LOCKING)
            acc, other = mgr.setup(ro, 2)
            values = np.arange(1.0, 9.0)
            waiter = threading.Thread(
                target=update_group, args=(other, path, 1, 8, values)
            )
            line = acc._locks[1]
            line.acquire()
            try:
                waiter.start()
                waiter.join(timeout=0.25)
                assert waiter.is_alive(), f"{path}: finished without the lock"
                assert not ro.get_group(1).any(), f"{path}: stored without the lock"
                acc.accumulate(0, 0, 1.0)  # another line's lock is free
            finally:
                line.release()
            waiter.join(timeout=60)
            assert not waiter.is_alive()
            combined, stats, _ = finish(mgr, ro, [acc, other])
            assert combined.get_group(1).tolist() == values.tolist()
            assert combined.get(0, 0) == 1.0 and stats.num_locks == 2

    @pytest.mark.parametrize("path", ["group", "batch", "commit", "scalar"])
    def test_concurrent_multi_line_updates_lose_nothing(self, path):
        """Updates that hold several locks at once — a group straddling two
        cache lines, a batch over both — neither deadlock nor lose updates
        when real threads run them in opposite orders; nor do single-cell
        updates, one acquisition each."""
        groups, elems = 3, 5  # group 1 spans cells 5..9: lines 0 and 1
        ro = make_ro(groups, elems)
        mgr = SharedMemManager(LOCKING)
        num_threads, per_thread = 8, 200
        accessors = mgr.setup(ro, num_threads)
        cells = groups * elems

        def work(acc):
            for i in range(per_thread):
                order = [2, 1, 0] if i % 2 else [0, 1, 2]
                if path == "scalar":
                    for g in order:
                        for e in range(elems):
                            acc.accumulate(g, e, 1.0)
                elif path == "group":
                    for g in order:
                        acc.accumulate_group(g, np.ones(elems))
                elif path == "batch":
                    acc.accumulate_batch(
                        np.repeat(order, elems), np.tile(np.arange(elems), groups), 1.0
                    )
                else:
                    store = acc.direct_store()
                    store.elements[:cells] += 1.0
                    store.touched[order] = 1
                    acc.note_updates(cells)

        run_threads(work, accessors)
        combined, stats, _ = finish(mgr, ro, accessors)
        assert combined.snapshot().tolist() == [num_threads * per_thread] * cells
        assert combined.update_count == num_threads * per_thread * cells
        assert stats.num_locks == 2
        if path == "scalar":  # one acquisition per update
            assert stats.lock_acquisitions == combined.update_count


def run_threads(work, accessors):
    """``work(acc)`` on one real thread per accessor, switching threads as
    often as the interpreter allows; every thread must finish."""
    threads = [threading.Thread(target=work, args=(acc,)) for acc in accessors]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestStats:
    def test_replication_counts_copies_and_merges(self):
        ro = make_ro()
        mgr = SharedMemManager(SharedMemTechnique.FULL_REPLICATION)
        accessors = mgr.setup(ro, 4)
        combined, stats, lc_stats = finish(mgr, ro, accessors)
        assert stats.private_copies == 4
        assert stats.lock_acquisitions == 0
        assert lc_stats.elements_merged == 4 * ro.size

    def test_cache_sensitive_fewer_locks(self):
        ro = make_ro(groups=2, elems=16)  # 32 elements -> 4 cache lines
        mgr = SharedMemManager(LOCKING)
        accessors = mgr.setup(ro, 2)
        assert accessors[0].stats.num_locks == 32 // ELEMS_PER_CACHE_LINE
        # a partial last line has its own lock
        assert mgr.setup(make_ro(groups=3, elems=3), 1)[0].stats.num_locks == 2

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 64, 65])
    def test_one_lock_per_cache_line(self, size):
        """Every lane shares ``ceil(size / ELEMS_PER_CACHE_LINE)`` locks; the
        last cell, on a whole or a partial line, has one."""
        ro = ReductionObject()
        ro.alloc(size, "add")
        mgr = SharedMemManager(LOCKING)
        lanes = mgr.setup(ro, 3)
        lanes[-1].accumulate(0, size - 1, 1.0)
        _, stats, _ = finish(mgr, ro, lanes)
        assert stats.num_locks == -(-size // ELEMS_PER_CACHE_LINE)
        assert {acc.stats.num_locks for acc in lanes} == {stats.num_locks}
        assert ro.get(0, size - 1) == 1.0 and stats.lock_acquisitions == 1

    def test_cache_sensitive_group_update_fewer_acquisitions(self):
        cache = SharedMemManager(LOCKING).setup(make_ro(groups=1, elems=16), 1)[0]
        cache.accumulate_group(0, np.ones(16))
        assert cache.stats.lock_acquisitions == 2  # 16 elems / 8 per line

    def test_setup_rejects_bad_thread_count(self):
        with pytest.raises(FreerideError):
            SharedMemManager(SharedMemTechnique.FULL_REPLICATION).setup(make_ro(), 0)


class RecordingLock:
    """A lock that logs its index to ``log`` each time it is taken."""

    def __init__(self, index, log):
        self._lock = threading.Lock()
        self.index, self.log = index, log

    def acquire(self):
        self._lock.acquire()
        self.log.append(self.index)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()

    def __exit__(self, *exc):
        self.release()


#: (groups, elems): groups that start, end and straddle cache lines
STRIPES = [
    pytest.param(1, 1, id="1x1-one-cell"),
    pytest.param(2, 8, id="2x8-a-line-per-group"),
    pytest.param(3, 3, id="3x3-last-group-straddles"),
    pytest.param(6, 4, id="6x4-two-groups-per-line"),
    pytest.param(5, 7, id="5x7-groups-straddle"),
    pytest.param(1, 17, id="1x17-partial-third-line"),
    pytest.param(3, 11, id="3x11-groups-span-three-lines"),
]


def update_group(target, path, group, elems, values):
    """Add ``values`` to every cell of ``group`` by one update path."""
    if path == "scalar":
        for e in range(elems):
            target.accumulate(group, e, float(values[e]))
    elif path == "group":
        target.accumulate_group(group, values)
    elif path == "batch":
        # every cell twice, last cell first
        order = list(range(elems))[::-1] * 2
        target.accumulate_batch(
            np.full(2 * elems, group), np.array(order), values[order] / 2
        )
    else:  # a native kernel's store, then its commit
        store = target.direct_store()
        store.elements[group * elems:(group + 1) * elems] += values
        store.touched[group] = 1
        target.note_updates(elems)


class TestLockStripe:
    """A locking lane takes the locks of the cache lines its cells lie in —
    each once, ascending — by every update path, wherever the groups fall
    on the lines, and stores what a bare object does."""

    @pytest.mark.parametrize("path", ["scalar", "group", "batch", "commit"])
    @pytest.mark.parametrize("groups,elems", STRIPES)
    def test_an_update_takes_the_locks_of_its_lines(self, groups, elems, path):
        ro, bare = make_ro(groups, elems), make_ro(groups, elems)
        num_locks = SharedMemManager(LOCKING).setup(ro, 1)[0].stats.num_locks
        assert num_locks == -(-ro.size // ELEMS_PER_CACHE_LINE)
        log = []
        acc = LockingAccessor(
            ro, [RecordingLock(i, log) for i in range(num_locks)], threading.Lock()
        )
        taken = 0
        for g in range(groups):
            lines = [c // ELEMS_PER_CACHE_LINE for c in range(g * elems, (g + 1) * elems)]
            values = np.arange(1.0, elems + 1) * (g + 1)
            log.clear()
            update_group(acc, path, g, elems, values)
            update_group(bare, path, g, elems, values)
            # a scalar update locks its own cell's line, every other path
            # the lines its cells cover
            assert log == (lines if path == "scalar" else sorted(set(lines)))
            taken += len(log)
        assert acc.stats.lock_acquisitions == taken
        assert np.array_equal(ro.snapshot(), bare.snapshot())
        assert ro.touched_groups() == bare.touched_groups() == frozenset(range(groups))
        assert ro.update_count == bare.update_count


class TestSharedVsPrivate:
    def test_locking_accessors_share_storage(self):
        ro = make_ro(groups=1, elems=1)
        accessors = SharedMemManager(LOCKING).setup(ro, 2)
        accessors[0].accumulate(0, 0, 1.0)
        assert ro.get(0, 0) == 1.0, "locking updates hit the shared copy directly"

    def test_replicated_accessors_do_not_share(self):
        ro = make_ro(groups=1, elems=1)
        accessors = SharedMemManager(SharedMemTechnique.FULL_REPLICATION).setup(ro, 2)
        accessors[0].accumulate(0, 0, 1.0)
        assert ro.get(0, 0) == 0.0, "replication defers to the combination phase"
        assert accessors[1].get(0, 0) == 0.0


class TestMemoryAccounting:
    def test_replication_pays_per_thread(self):
        ro = make_ro(groups=4, elems=8)  # 32 elements = 256 bytes
        mgr = SharedMemManager(SharedMemTechnique.FULL_REPLICATION)
        accessors = mgr.setup(ro, 8)
        _, stats, _ = finish(mgr, ro, accessors)
        assert stats.ro_memory_bytes == 8 * 256

    def test_locking_shares_one_copy(self):
        ro = make_ro(groups=4, elems=8)
        mgr = SharedMemManager(LOCKING)
        accessors = mgr.setup(ro, 8)
        _, stats, _ = finish(mgr, ro, accessors)
        assert stats.ro_memory_bytes == 256

    def test_memory_tradeoff_visible(self):
        """The classic replication-vs-locking tradeoff, quantified."""
        def footprint(technique, threads):
            ro = make_ro(groups=100, elems=10)
            mgr = SharedMemManager(technique)
            accessors = mgr.setup(ro, threads)
            _, stats, _ = finish(mgr, ro, accessors)
            return stats.ro_memory_bytes

        repl_8 = footprint(SharedMemTechnique.FULL_REPLICATION, 8)
        lock_8 = footprint(LOCKING, 8)
        assert repl_8 == 8 * lock_8


# Every way an update can name a cell that is not there, on an object of
# ``g`` groups of two elements.  The element cases use the last group.
BAD_UPDATES = [
    pytest.param(lambda t, g: t.accumulate(-1, 0, 1.0), id="accumulate-group-negative"),
    pytest.param(lambda t, g: t.accumulate(g, 0, 1.0), id="accumulate-group-past-end"),
    pytest.param(lambda t, g: t.accumulate(g - 1, 2, 1.0), id="accumulate-elem-past-end"),
    pytest.param(lambda t, g: t.accumulate(g - 1, -1, 1.0), id="accumulate-elem-negative"),
    pytest.param(
        lambda t, g: t.accumulate_group(-1, np.ones(2)), id="group-group-negative"
    ),
    pytest.param(
        lambda t, g: t.accumulate_group(g, np.ones(2)), id="group-group-past-end"
    ),
    pytest.param(
        lambda t, g: t.accumulate_group(g - 1, np.ones(3)), id="group-wrong-length"
    ),
    pytest.param(
        lambda t, g: t.accumulate_batch(np.array([0, -1]), np.array([0, 0]), 1.0),
        id="batch-group-negative",
    ),
    pytest.param(
        lambda t, g: t.accumulate_batch(np.array([0, g]), np.array([0, 0]), 1.0),
        id="batch-group-past-end",
    ),
    pytest.param(
        lambda t, g: t.accumulate_batch(np.array([0, g - 1]), np.array([0, 2]), 1.0),
        id="batch-elem-past-end",
    ),
    pytest.param(
        lambda t, g: t.accumulate_batch(np.array([0, g - 1]), np.array([0, -1]), 1.0),
        id="batch-elem-negative",
    ),
]

#: the object's group count: 3 x 2 ends mid-way through its one cache line;
#: 4 x 2 fills it, so a past-end element's flat index names a lock the
#: stripe does not have
SHAPES = [pytest.param(3, id="3x2-partial-line"), pytest.param(4, id="4x2-whole-line")]


class TestOneRefusal:
    """A bad cell is the reduction object's to refuse: every technique says
    what a bare object says and has stored, flagged, counted and locked
    nothing when it does."""

    @pytest.mark.parametrize("groups", SHAPES)
    @pytest.mark.parametrize("update", BAD_UPDATES)
    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_bad_cell_refused_alike(self, technique, update, groups):
        with pytest.raises(ReductionObjectError) as bare:
            update(make_ro(groups=groups, elems=2), groups)
        ro = make_ro(groups=groups, elems=2)
        acc = SharedMemManager(technique).setup(ro, 2)[1]
        acc.accumulate(1, 1, 5.0)
        # a locking lane updates the shared copy; any other lane is its target
        locking = isinstance(acc, LockingAccessor)
        target = acc.ro if locking else acc

        def state():
            return (
                target.snapshot().tolist(), ro.snapshot().tolist(),
                target.touched_groups(), target.update_count,
                acc.stats.lock_acquisitions if locking else 0,
            )

        before = state()
        with pytest.raises(ReductionObjectError) as refused:
            update(acc, groups)
        assert str(refused.value) == str(bare.value)
        assert state() == before


class TestLaneTargets:
    """What a lane's native kernel stores into, and how it gets committed."""

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_direct_store_is_total(self, technique):
        for acc in SharedMemManager(technique).setup(make_ro(), 2):
            # the lane that shares its target, or the target a lane owns
            assert type(acc) is (
                LockingAccessor if technique is LOCKING else ReductionObject
            )
            store = acc.direct_store()
            assert isinstance(store, DirectStore)
            assert acc.direct_store() is store, "call state is keyed on it"

    def test_colored_lane_views_the_shared_elements_only(self):
        ro = make_ro()
        base = ro.direct_store()
        lanes = SharedMemManager(SharedMemTechnique.COLORED).setup(ro, 2)
        for acc in lanes:
            store = acc.direct_store()
            assert np.shares_memory(store.elements, base.elements)
            assert not np.shares_memory(store.touched, base.touched)
        assert not np.shares_memory(
            lanes[0].direct_store().touched, lanes[1].direct_store().touched
        )
        # an identity-valued update leaves only the flag and the count, and
        # those are the lane's until finish()
        lanes[0].accumulate(1, 2, 0.0)
        assert lanes[0].touched_groups() == {1} and lanes[0].update_count == 1
        assert lanes[1].touched_groups() == frozenset()
        assert ro.touched_groups() == frozenset() and ro.update_count == 0
        lanes[0].accumulate(1, 2, 4.0)
        assert ro.get(1, 2) == lanes[1].get(1, 2) == 4.0

    def test_colored_finish_folds_each_lane_once(self):
        ro = make_ro(groups=4, elems=2)
        mgr = SharedMemManager(SharedMemTechnique.COLORED)
        lanes = mgr.setup(ro, 3)
        lanes[0].accumulate(0, 0, 1.0)
        lanes[0].accumulate_group(1, np.ones(2))
        lanes[1].accumulate_batch(np.array([2, 2, 2]), np.array([0, 1, 1]), 1.0)
        lanes[2].direct_store().elements[6] += 1.0  # what a C kernel does,
        lanes[2].direct_store().touched[3] = 1  # reported afterwards
        lanes[2].note_updates(1)
        counts = [acc.update_count for acc in lanes]
        assert counts == [3, 3, 1]
        combined, stats, lc = finish(mgr, ro, lanes)
        assert combined is ro and lc.strategy == "in_place"
        assert ro.update_count == sum(counts)
        assert ro.touched_groups() == frozenset().union(
            *(acc.touched_groups() for acc in lanes)
        ) == {0, 1, 2, 3}
        assert ro.snapshot().tolist() == [1, 0, 1, 1, 1, 2, 1, 0]
        assert stats.lock_acquisitions == 0 and stats.ro_memory_bytes == ro.nbytes

    def test_locking_lane_commits_its_store_under_locks(self):
        """The native commit: a kernel fills the lane's scratch store, and
        ``note_updates`` merges the flagged groups under their covering
        locks.  Lock counts pinned at PR 19, where ``native.py`` ran the
        same statements itself: line 0, then lines 0-1.
        """
        ro = make_ro(groups=4, elems=3)
        acc, other = SharedMemManager(LOCKING).setup(ro, 2)
        for _ in range(2):  # the scratch is reset, so a second call adds the same
            store = acc.direct_store()
            assert not np.shares_memory(store.elements, ro.direct_store().elements)
            assert not store.touched.any() and not store.elements.any()
            store.elements[3:9] += np.arange(1.0, 7.0)  # groups 1 and 2
            store.touched[[1, 2]] = 1
            acc.note_updates(6)
        assert ro.snapshot().tolist() == [0, 0, 0, 2, 4, 6, 8, 10, 12, 0, 0, 0]
        assert ro.touched_groups() == {1, 2} and ro.update_count == 12
        assert acc.stats.lock_acquisitions == 2 * 3
        assert other.stats.lock_acquisitions == 0
        assert other.direct_store() is not acc.direct_store(), "lane-private"

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_a_retried_locking_commit_locks_what_its_scratch_holds(self, executor):
        """Under a fault policy a locking lane's attempt reduces into a
        scratch object the engine commits once the attempt succeeds.  The
        commit locks the groups that scratch holds — over sorted data, one
        of the 16 bins for each of the 32 splits — as the run without a
        policy does, not every group of every split (512 locks)."""
        spec, data = compile_cached(
            HISTOGRAM_CHAPEL_SOURCE, {"bins": 16, "lo": 0.0, "width": 4.0}, 2,
            backend="native",
        ).bind(np.repeat(np.arange(64.0), 50)).make_spec([(2, "add")] * 16)
        runs = []
        for policy, injector in (
            (None, None),
            (FaultPolicy(max_retries=1), FaultInjector(fail_split_ids={0, 3}, fail_attempts=1)),
        ):
            with FreerideEngine(
                num_threads=2, executor=executor, technique=LOCKING, chunk_size=100,
                fault_policy=policy, fault_injector=injector,
            ) as engine:
                runs.append(engine.run(spec, data))
        plain, retried = runs
        assert retried.stats.retries == 2
        assert retried.ro.snapshot().tobytes() == plain.ro.snapshot().tobytes()
        locks = [run.stats.sharedmem.lock_acquisitions for run in runs]
        assert locks[0] == locks[1] == 32

    def test_locking_lane_with_nothing_stored_takes_no_lock(self):
        ro = make_ro()
        acc = SharedMemManager(LOCKING).setup(ro, 1)[0]
        acc.direct_store()
        acc.note_updates(0)
        assert acc.stats.lock_acquisitions == 0 and ro.update_count == 0


class TestOneCallPerUpdate:
    """A lane that owns its target is that reduction object, so a per-split
    update is one call into ``repro/`` — no wrapper forwards it.  A locking
    lane validates its cell once and stores under the cell's lock without
    calling ``accumulate`` again."""

    @pytest.mark.parametrize(
        "technique", ["full_replication", "colored", "cache_sensitive_locking"]
    )
    def test_a_scalar_update_is_one_call(self, technique):
        compiled = compile_cached(
            HISTOGRAM_CHAPEL_SOURCE, {"bins": 8, "lo": 0.0, "width": 8.0}, 2,
            backend="scalar",
        )
        data = (np.arange(3300, dtype=np.float64) * 7) % 64
        spec, idx = compiled.bind(data).make_spec([(2, "add")] * 8)
        calls = Counter()

        def profiler(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name in ("accumulate", "_cell"):
                calls[code.co_name] += "repro/" in code.co_filename

        with FreerideEngine(
            executor="serial", num_threads=2, technique=technique,
            chunk_size=100, tracer=Tracer(),
        ) as engine:
            sys.setprofile(profiler)
            try:
                result = engine.run(spec, idx)
            finally:
                sys.setprofile(None)
        assert compiled.effective_backend == "scalar"
        assert result.stats.technique_effective.value == technique
        assert result.stats.ro_updates == 2 * len(data)
        assert calls == {
            "accumulate": result.stats.ro_updates, "_cell": result.stats.ro_updates
        }
