"""Unit tests for shared-memory techniques (replication and locking)."""

import threading

import numpy as np
import pytest

from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import (
    ELEMS_PER_CACHE_LINE,
    LockingAccessor,
    ReplicatedAccessor,
    SharedMemManager,
    SharedMemTechnique,
)
from repro.util.errors import FreerideError

ALL_TECHNIQUES = list(SharedMemTechnique)


def make_ro(groups=2, elems=3):
    ro = ReductionObject()
    ro.alloc_matrix(groups, elems)
    return ro


class TestParse:
    def test_parse_string(self):
        assert (
            SharedMemTechnique.parse("full_locking")
            is SharedMemTechnique.FULL_LOCKING
        )

    def test_parse_passthrough(self):
        t = SharedMemTechnique.FULL_REPLICATION
        assert SharedMemTechnique.parse(t) is t

    def test_parse_unknown(self):
        with pytest.raises(FreerideError):
            SharedMemTechnique.parse("spinlocks")


class TestAllTechniquesAgree:
    """All four techniques must produce identical reduction results."""

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_serial_updates(self, technique):
        ro = make_ro()
        mgr = SharedMemManager(technique)
        accessors = mgr.setup(ro, 3)
        for t, acc in enumerate(accessors):
            for e in range(3):
                acc.accumulate(t % 2, e, float(t + e))
        combined, stats, _ = mgr.finish(ro, accessors)
        # thread 0 and 2 hit group 0, thread 1 hits group 1
        assert list(combined.get_group(0)) == [0 + 2, 1 + 3, 2 + 4]
        assert list(combined.get_group(1)) == [1, 2, 3]
        assert stats.technique is SharedMemTechnique.parse(technique)

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_vectorized_group_updates(self, technique):
        ro = make_ro(groups=1, elems=4)
        mgr = SharedMemManager(technique)
        accessors = mgr.setup(ro, 2)
        accessors[0].accumulate_group(0, np.array([1.0, 2.0, 3.0, 4.0]))
        accessors[1].accumulate_group(0, np.array([10.0, 10.0, 10.0, 10.0]))
        combined, _, _ = mgr.finish(ro, accessors)
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
        combined, _, _ = mgr.finish(ro, accessors)
        assert not combined.snapshot().any()
        assert combined.touched_groups() == frozenset(range(4))
        assert combined.update_count == 8

    @pytest.mark.parametrize(
        "technique",
        [
            SharedMemTechnique.FULL_LOCKING,
            SharedMemTechnique.OPTIMIZED_FULL_LOCKING,
            SharedMemTechnique.CACHE_SENSITIVE_LOCKING,
        ],
    )
    def test_concurrent_locking_correctness(self, technique):
        """Real threads hammering the shared copy must not lose updates."""
        ro = make_ro(groups=1, elems=2)
        mgr = SharedMemManager(technique)
        num_threads, per_thread = 8, 500
        accessors = mgr.setup(ro, num_threads)

        def work(acc):
            for _ in range(per_thread):
                acc.accumulate(0, 0, 1.0)
                acc.accumulate(0, 1, 2.0)

        threads = [
            threading.Thread(target=work, args=(acc,)) for acc in accessors
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        combined, stats, _ = mgr.finish(ro, accessors)
        assert combined.get(0, 0) == num_threads * per_thread
        assert combined.get(0, 1) == 2.0 * num_threads * per_thread
        assert stats.lock_acquisitions == num_threads * per_thread * 2


class TestStats:
    def test_replication_counts_copies_and_merges(self):
        ro = make_ro()
        mgr = SharedMemManager(SharedMemTechnique.FULL_REPLICATION)
        accessors = mgr.setup(ro, 4)
        combined, stats, _ = mgr.finish(ro, accessors)
        assert stats.private_copies == 4
        assert stats.lock_acquisitions == 0
        assert stats.merge_elements == 4 * ro.size

    def test_full_locking_one_lock_per_element(self):
        ro = make_ro(groups=2, elems=5)
        mgr = SharedMemManager(SharedMemTechnique.FULL_LOCKING)
        accessors = mgr.setup(ro, 2)
        assert accessors[0].stats.num_locks == 10

    def test_cache_sensitive_fewer_locks(self):
        ro = make_ro(groups=2, elems=16)  # 32 elements -> 4 cache lines
        mgr = SharedMemManager(SharedMemTechnique.CACHE_SENSITIVE_LOCKING)
        accessors = mgr.setup(ro, 2)
        assert accessors[0].stats.num_locks == 32 // ELEMS_PER_CACHE_LINE

    def test_cache_sensitive_group_update_fewer_acquisitions(self):
        ro = make_ro(groups=1, elems=16)
        full = SharedMemManager(SharedMemTechnique.FULL_LOCKING).setup(
            make_ro(groups=1, elems=16), 1
        )[0]
        cache = SharedMemManager(SharedMemTechnique.CACHE_SENSITIVE_LOCKING).setup(
            ro, 1
        )[0]
        full.accumulate_group(0, np.ones(16))
        cache.accumulate_group(0, np.ones(16))
        assert full.stats.lock_acquisitions == 16
        assert cache.stats.lock_acquisitions == 2  # 16 elems / 8 per line

    def test_setup_rejects_bad_thread_count(self):
        with pytest.raises(FreerideError):
            SharedMemManager(SharedMemTechnique.FULL_REPLICATION).setup(make_ro(), 0)


class TestSharedVsPrivate:
    def test_locking_accessors_share_storage(self):
        ro = make_ro(groups=1, elems=1)
        accessors = SharedMemManager(SharedMemTechnique.FULL_LOCKING).setup(ro, 2)
        accessors[0].accumulate(0, 0, 1.0)
        assert ro.get(0, 0) == 1.0, "locking updates hit the shared copy directly"

    def test_replicated_accessors_do_not_share(self):
        ro = make_ro(groups=1, elems=1)
        accessors = SharedMemManager(SharedMemTechnique.FULL_REPLICATION).setup(ro, 2)
        accessors[0].accumulate(0, 0, 1.0)
        assert ro.get(0, 0) == 0.0, "replication defers to the combination phase"
        assert accessors[1].ro.get(0, 0) == 0.0


class TestMemoryAccounting:
    def test_replication_pays_per_thread(self):
        ro = make_ro(groups=4, elems=8)  # 32 elements = 256 bytes
        mgr = SharedMemManager(SharedMemTechnique.FULL_REPLICATION)
        accessors = mgr.setup(ro, 8)
        _, stats, _ = mgr.finish(ro, accessors)
        assert stats.ro_memory_bytes == 8 * 256

    def test_locking_shares_one_copy(self):
        ro = make_ro(groups=4, elems=8)
        mgr = SharedMemManager(SharedMemTechnique.FULL_LOCKING)
        accessors = mgr.setup(ro, 8)
        _, stats, _ = mgr.finish(ro, accessors)
        assert stats.ro_memory_bytes == 256

    def test_memory_tradeoff_visible(self):
        """The classic replication-vs-locking tradeoff, quantified."""
        def footprint(technique, threads):
            ro = make_ro(groups=100, elems=10)
            mgr = SharedMemManager(technique)
            accessors = mgr.setup(ro, threads)
            _, stats, _ = mgr.finish(ro, accessors)
            return stats.ro_memory_bytes

        repl_8 = footprint(SharedMemTechnique.FULL_REPLICATION, 8)
        lock_8 = footprint(SharedMemTechnique.CACHE_SENSITIVE_LOCKING, 8)
        assert repl_8 == 8 * lock_8
