"""Unit tests for the batch (vectorized) reduction-object update path."""

import numpy as np
import pytest

from repro.freeride.plan import run_shape
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import SharedMemManager, SharedMemTechnique
from repro.util.errors import ReductionObjectError


def make_ro():
    ro = ReductionObject()
    ro.alloc(3, "add")  # group 0
    ro.alloc(2, "add")  # group 1
    ro.alloc(2, "min")  # group 2
    return ro


class TestAccumulateBatch:
    def test_matches_scalar_accumulate(self):
        ro_s, ro_b = make_ro(), make_ro()
        groups = np.array([0, 0, 1, 0, 1])
        elems = np.array([0, 2, 1, 0, 0])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        for g, e, v in zip(groups, elems, values):
            ro_s.accumulate(int(g), int(e), float(v))
        ro_b.accumulate_batch(groups, elems, values)
        assert np.array_equal(ro_s.snapshot(), ro_b.snapshot())
        assert ro_b.update_count == 5

    def test_duplicate_cells_fold(self):
        ro = make_ro()
        ro.accumulate_batch(np.zeros(4, dtype=np.int64), 0, 1.0)
        assert ro.get(0, 0) == 4.0

    def test_min_op(self):
        ro = make_ro()
        ro.accumulate_batch(2, np.array([0, 1, 0]), np.array([5.0, -1.0, 2.0]), op="min")
        assert ro.get(2, 0) == 2.0
        assert ro.get(2, 1) == -1.0

    def test_scalar_broadcast_with_lanes(self):
        ro = make_ro()
        ro.accumulate_batch(1, 0, 1.0, lanes=7)
        assert ro.get(1, 0) == 7.0
        assert ro.update_count == 7

    def test_mask_filters_lanes(self):
        ro = make_ro()
        mask = np.array([True, False, True, False])
        # masked-off lanes may hold garbage (out-of-range groups)
        groups = np.array([0, 99, 1, -5])
        ro.accumulate_batch(groups, 0, 2.0, mask=mask)
        assert ro.get(0, 0) == 2.0
        assert ro.get(1, 0) == 2.0
        assert ro.update_count == 2

    def test_all_false_mask_is_noop(self):
        ro = make_ro()
        ro.accumulate_batch(0, 0, 1.0, mask=np.zeros(4, dtype=bool))
        assert ro.update_count == 0
        assert ro.get(0, 0) == 0.0

    def test_op_mismatch_rejected(self):
        ro = make_ro()
        with pytest.raises(ReductionObjectError, match="declared with op"):
            ro.accumulate_batch(2, 0, 1.0, op="add")

    def test_group_bounds_checked(self):
        ro = make_ro()
        with pytest.raises(ReductionObjectError, match="group"):
            ro.accumulate_batch(np.array([0, 3]), 0, 1.0)

    def test_elem_bounds_checked_per_group(self):
        ro = make_ro()
        # elem 2 is valid for group 0 (3 cells) but not group 1 (2 cells)
        with pytest.raises(ReductionObjectError, match="element"):
            ro.accumulate_batch(np.array([0, 1]), np.array([2, 2]), 1.0)

    def test_unknown_op_rejected(self):
        ro = make_ro()
        with pytest.raises(ReductionObjectError, match="unknown"):
            ro.accumulate_batch(0, 0, 1.0, op="mul")

    def test_tables_invalidated_by_alloc(self):
        ro = ReductionObject()
        ro.alloc(2, "add")
        ro.accumulate_batch(0, 1, 1.0)
        ro.alloc(4, "add")
        ro.accumulate_batch(1, 3, 2.0)  # would be out of range on stale tables
        assert ro.get(1, 3) == 2.0


class TestAccessorBatch:
    @pytest.mark.parametrize("technique", list(SharedMemTechnique))
    def test_batch_equals_scalar_through_accessors(self, technique):
        def fill(ro, batched):
            mgr = SharedMemManager(technique)
            accessors = mgr.setup(ro, 2)
            for tid, acc in enumerate(accessors):
                if batched:
                    acc.accumulate_batch(
                        np.array([0, 0, 1]), np.array([0, 2, 1]), float(tid + 1)
                    )
                else:
                    for g, e in ((0, 0), (0, 2), (1, 1)):
                        acc.accumulate(g, e, float(tid + 1))
            mgr.finish(ro, accessors, run_shape(technique, 2, ro.size, 1))
            return ro

        ro_s = fill(make_ro(), batched=False)
        ro_b = fill(make_ro(), batched=True)
        assert np.array_equal(ro_s.snapshot(), ro_b.snapshot())
        assert ro_s.update_count == ro_b.update_count

    def test_locking_accessor_counts_covering_locks(self):
        ro = ReductionObject()
        ro.alloc(16, "add")  # two cache lines
        mgr = SharedMemManager(SharedMemTechnique.CACHE_SENSITIVE_LOCKING)
        accessors = mgr.setup(ro, 1)
        acc = accessors[0]
        before = acc.stats.lock_acquisitions
        # 4 updates over 3 distinct cells in 2 cache lines -> 2 covering locks
        acc.accumulate_batch(
            np.array([0, 0, 0, 0]), np.array([0, 1, 9, 1]), 1.0
        )
        assert acc.stats.lock_acquisitions == before + 2
        mgr.finish(ro, accessors, run_shape(mgr.technique, 1, ro.size, 1))
        assert ro.get(0, 0) == 1.0
        assert ro.get(0, 1) == 2.0
        assert ro.get(0, 9) == 1.0
