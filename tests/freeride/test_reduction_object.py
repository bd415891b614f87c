"""Unit tests for the FREERIDE reduction object."""

import numpy as np
import pytest

from repro.freeride.reduction_object import (
    CACHE_LINE_BYTES,
    ReductionObject,
    aligned_empty,
)
from repro.util.errors import ReductionObjectError


class TestAlloc:
    def test_group_ids_are_sequential(self):
        ro = ReductionObject()
        assert ro.alloc(3) == 0
        assert ro.alloc(5) == 1
        assert ro.num_groups == 2
        assert ro.size == 8

    def test_alloc_matrix(self):
        ro = ReductionObject()
        gids = ro.alloc_matrix(4, 3)
        assert gids == [0, 1, 2, 3]
        assert ro.size == 12

    def test_identity_values_per_op(self):
        ro = ReductionObject()
        g_add = ro.alloc(1, "add")
        g_min = ro.alloc(1, "min")
        g_max = ro.alloc(1, "max")
        assert ro.get(g_add, 0) == 0.0
        assert ro.get(g_min, 0) == np.inf
        assert ro.get(g_max, 0) == -np.inf

    def test_invalid_op(self):
        with pytest.raises(ReductionObjectError):
            ReductionObject().alloc(1, "mul")

    def test_invalid_num_elems(self):
        with pytest.raises(ValueError):
            ReductionObject().alloc(0)

    def test_alloc_after_freeze_rejected(self):
        ro = ReductionObject()
        ro.alloc(1)
        ro.freeze_layout()
        with pytest.raises(ReductionObjectError):
            ro.alloc(1)

    def test_nbytes(self):
        ro = ReductionObject()
        ro.alloc(10)
        assert ro.nbytes == 80


class TestAccumulate:
    def test_add(self):
        ro = ReductionObject()
        g = ro.alloc(2)
        ro.accumulate(g, 0, 1.5)
        ro.accumulate(g, 0, 2.5)
        ro.accumulate(g, 1, -1.0)
        assert ro.get(g, 0) == 4.0
        assert ro.get(g, 1) == -1.0

    def test_min_max(self):
        ro = ReductionObject()
        gmin = ro.alloc(1, "min")
        gmax = ro.alloc(1, "max")
        for v in [3.0, 1.0, 2.0]:
            ro.accumulate(gmin, 0, v)
            ro.accumulate(gmax, 0, v)
        assert ro.get(gmin, 0) == 1.0
        assert ro.get(gmax, 0) == 3.0

    def test_update_count(self):
        ro = ReductionObject()
        g = ro.alloc(2)
        ro.accumulate(g, 0, 1.0)
        ro.accumulate(g, 1, 1.0)
        assert ro.update_count == 2

    def test_out_of_range_elem(self):
        ro = ReductionObject()
        g = ro.alloc(2)
        with pytest.raises(ReductionObjectError):
            ro.accumulate(g, 2, 1.0)

    def test_unallocated_group(self):
        ro = ReductionObject()
        with pytest.raises(ReductionObjectError):
            ro.accumulate(0, 0, 1.0)

    def test_accumulate_group_vectorized(self):
        ro = ReductionObject()
        g = ro.alloc(3)
        ro.accumulate_group(g, np.array([1.0, 2.0, 3.0]))
        ro.accumulate_group(g, np.array([1.0, 1.0, 1.0]))
        assert list(ro.get_group(g)) == [2.0, 3.0, 4.0]
        assert ro.update_count == 6

    def test_accumulate_group_shape_check(self):
        ro = ReductionObject()
        g = ro.alloc(3)
        with pytest.raises(ReductionObjectError):
            ro.accumulate_group(g, np.zeros(2))

    def test_accumulate_group_min(self):
        ro = ReductionObject()
        g = ro.alloc(2, "min")
        ro.accumulate_group(g, np.array([3.0, 5.0]))
        ro.accumulate_group(g, np.array([4.0, 2.0]))
        assert list(ro.get_group(g)) == [3.0, 2.0]

    @staticmethod
    def scalar_reachable_cases():
        """``(size, pad, held, incoming)`` on every group size 1-40, at every
        offset of the group in a cache line, from states scalar updates
        reach — held ±0.0 against incoming ∓0.0, and NaN on either side."""
        rng = np.random.default_rng(58)
        values = np.array([0.0, -0.0, np.nan, 1.0, -1.0, np.inf, -np.inf])
        return [
            (size, pad, held, incoming)
            for size in range(1, 41)
            for pad in range(8)
            for held, incoming in [
                (np.full(size, 0.0), np.full(size, -0.0)),
                (np.full(size, -0.0), np.full(size, 0.0)),
                (rng.choice(values, size), np.full(size, np.nan)),
                (rng.choice(values, size), rng.choice(values, size)),
            ]
        ]

    @staticmethod
    def held_pair(op, size, pad, held):
        """Two objects whose group ``g`` holds ``held`` by scalar updates."""
        pair = ReductionObject(), ReductionObject()
        with np.errstate(invalid="ignore"):  # inf + -inf is a NaN here
            for ro in pair:
                ro.alloc(pad + 1, op)
                g = ro.alloc(size, op)
                for i, v in enumerate(held):
                    ro.accumulate(g, i, float(v))
        return (*pair, g)

    @staticmethod
    def assert_same(ro, scalar, case):
        assert ro.snapshot().tobytes() == scalar.snapshot().tobytes(), case
        assert np.array_equal(ro.touched_mask(), scalar.touched_mask())
        assert ro.update_count == scalar.update_count

    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_accumulate_group_is_accumulate_per_element(self, op):
        """``accumulate_group(g, v)`` leaves the bytes (a zero's sign and a
        NaN's included), touched bits and update count ``accumulate(g, i,
        v[i])`` leaves for every ``i``, on every scalar-reachable case."""
        for size, pad, held, incoming in self.scalar_reachable_cases():
            group, scalar, g = self.held_pair(op, size, pad, held)
            with np.errstate(invalid="ignore"):
                group.accumulate_group(g, incoming)
                for i, v in enumerate(incoming):
                    scalar.accumulate(g, i, float(v))
            self.assert_same(group, scalar, (size, pad, held, incoming))

    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_accumulate_batch_is_accumulate_in_lane_order(self, op):
        """``accumulate_batch`` over lanes that hit every cell of a group
        twice leaves what scalar ``accumulate`` lane by lane leaves: a held
        zero survives an incoming zero of the other sign, and of two tied
        lanes the earlier one's value stays."""
        rng = np.random.default_rng(59)
        for size, pad, held, incoming in self.scalar_reachable_cases():
            batch, scalar, g = self.held_pair(op, size, pad, held)
            again = rng.permutation(size)
            elems = np.concatenate([np.arange(size), again])
            lanes = np.concatenate([incoming, incoming[again]])
            with np.errstate(invalid="ignore"):
                batch.accumulate_batch(g, elems, lanes, op)
                for e, v in zip(elems.tolist(), lanes.tolist()):
                    scalar.accumulate(g, e, v)
            self.assert_same(batch, scalar, (size, pad, held, incoming, again))

    def test_group_view_is_writable(self):
        ro = ReductionObject()
        g = ro.alloc(2)
        view = ro.group_view(g)
        view[0] = 9.0
        assert ro.get(g, 0) == 9.0

    def test_set_overwrites(self):
        ro = ReductionObject()
        g = ro.alloc(1, "min")
        ro.set(g, 0, 5.0)
        assert ro.get(g, 0) == 5.0


class TestMerge:
    def make_pair(self):
        base = ReductionObject()
        base.alloc(2, "add")
        base.alloc(1, "min")
        base.freeze_layout()
        return base, base.clone_empty()

    def test_clone_empty_has_identities(self):
        base, clone = self.make_pair()
        assert clone.get(0, 0) == 0.0
        assert clone.get(1, 0) == np.inf
        assert base.same_layout(clone)

    def test_merge_respects_group_ops(self):
        base, clone = self.make_pair()
        base.accumulate(0, 0, 1.0)
        base.accumulate(1, 0, 5.0)
        clone.accumulate(0, 0, 2.0)
        clone.accumulate(1, 0, 3.0)
        base.merge_from(clone)
        assert base.get(0, 0) == 3.0  # add merged
        assert base.get(1, 0) == 3.0  # min merged

    def test_merge_with_identity_is_noop(self):
        base, clone = self.make_pair()
        base.accumulate(0, 1, 7.0)
        before = base.snapshot()
        base.merge_from(clone)
        assert np.array_equal(base.snapshot(), before)

    def test_merge_layout_mismatch(self):
        a = ReductionObject()
        a.alloc(2)
        b = ReductionObject()
        b.alloc(3)
        with pytest.raises(ReductionObjectError):
            a.merge_from(b)

    def test_merge_is_commutative(self):
        base, _ = self.make_pair()
        x, y = base.clone_empty(), base.clone_empty()
        x.accumulate(0, 0, 1.0)
        x.accumulate(1, 0, 9.0)
        y.accumulate(0, 0, 2.0)
        y.accumulate(1, 0, 4.0)
        xy = base.clone_empty()
        xy.merge_from(x)
        xy.merge_from(y)
        yx = base.clone_empty()
        yx.merge_from(y)
        yx.merge_from(x)
        assert np.array_equal(xy.snapshot(), yx.snapshot())

    def test_groups_iterator(self):
        ro = ReductionObject()
        ro.alloc(2)
        ro.alloc(1)
        got = dict(ro.groups())
        assert set(got) == {0, 1}
        assert len(got[0]) == 2


class TestLayoutTables:
    """What depends on the layout alone is computed once and shared."""

    LAYOUT = [(2, "add"), (3, "add"), (1, "min"), (2, "max"), (4, "add")]

    def make(self):
        ro = ReductionObject()
        ro.alloc_many(self.LAYOUT)
        ro.freeze_layout()
        return ro

    def test_layout_is_one_shared_tuple(self):
        a, b = self.make(), self.make()
        assert a.layout() == tuple(self.LAYOUT)
        assert a.layout() is b.layout() is a.clone_empty().layout()
        assert ReductionObject.from_layout(self.LAYOUT).same_layout(a)

    def test_copies_and_pickles_keep_the_layout(self):
        import copy
        import pickle

        ro = self.make()
        ro.accumulate(2, 0, -4.0)
        for twin in (copy.deepcopy(ro), pickle.loads(pickle.dumps(ro))):
            assert twin.same_layout(ro)
            twin.merge_from(ro)
            assert twin.get(2, 0) == -4.0

    def test_alloc_after_use_rebuilds_the_tables(self):
        ro = ReductionObject()
        ro.alloc(2, "add")
        assert ro.layout() == ((2, "add"),)
        ro.alloc(1, "max")
        assert ro.layout() == ((2, "add"), (1, "max"))
        assert ro.clone_empty().get(1, 0) == -np.inf

    def test_clone_and_from_layout_start_at_the_identities(self):
        expected = [0.0] * 5 + [np.inf] + [-np.inf] * 2 + [0.0] * 4
        for ro in (self.make().clone_empty(), ReductionObject.from_layout(self.LAYOUT)):
            assert ro.snapshot().tolist() == expected
            assert ro.touched_groups() == frozenset()

    def test_merge_and_retract_by_same_op_runs(self):
        rng = np.random.default_rng(0)
        a, b = self.make(), self.make()
        for ro in (a, b):
            for g, (n, _) in enumerate(self.LAYOUT):
                ro.accumulate_group(g, rng.uniform(-5, 5, n))
        before, other = a.snapshot(), b.snapshot()
        a.merge_from(b)
        expected = before + other
        expected[5] = min(before[5], other[5])
        expected[6:8] = np.maximum(before[6:8], other[6:8])
        assert np.array_equal(a.snapshot(), expected)
        assert a.update_count == 24

        adds = ReductionObject.from_layout(self.LAYOUT)
        adds.accumulate_group(4, np.ones(4))
        a.retract_groups(np.array([4]), adds)
        expected[8:] -= 1.0
        assert np.array_equal(a.snapshot(), expected)
        assert a.update_count == 24  # the delta commit accounts for updates
        with pytest.raises(ReductionObjectError, match="group 2 uses non-invertible"):
            a.retract_groups(np.array([2]), b)
        assert np.array_equal(a.snapshot(), expected)  # refused before mutating

    def test_touched_groups_unions_flags_and_values(self):
        ro = self.make()
        ro.accumulate(0, 1, 0.0)  # flagged although the value is the identity
        ro.group_view(3)[1] = 2.0  # filled out of band, never flagged
        assert ro.touched_groups() == frozenset({0, 3})

    def test_direct_store_names_the_live_buffers(self):
        ro = self.make()
        store = ro.direct_store()
        assert store is ro.direct_store()
        store.elements[5] = 1.5
        store.touched[2] = 1
        ro.note_updates(1)
        assert ro.get(2, 0) == 1.5 and ro.is_touched(2) and ro.update_count == 1
        assert store.offsets.tolist() == [0, 2, 5, 6, 8]
        assert store.nelems.tolist() == [2, 3, 1, 2, 4]
        assert store.opcodes.tolist() == [0, 0, 1, 2, 0]


class TestGroupArrays:
    """The array forms against their one-group forms, group by group."""

    LAYOUT = [(2, "add"), (1, "min"), (3, "add"), (2, "max"), (1, "add"), (2, "min")]

    def pair(self, rng):
        mine, theirs = (ReductionObject.from_layout(self.LAYOUT) for _ in range(2))
        for g, (n, _) in enumerate(self.LAYOUT):
            if g:
                mine.accumulate_group(g, np.round(rng.uniform(-4, 4, n) * 8) / 8)
            if g % 3:
                theirs.accumulate_group(g, np.round(rng.uniform(-4, 4, n) * 8) / 8)
        # an add group neither flags: theirs holds it by value only
        theirs.group_view(0)[1] = 0.5
        return mine, theirs

    @staticmethod
    def state(ro):
        return ro.snapshot().tobytes(), ro._touched.tobytes(), ro.update_count

    IDENTITY = {"add": 0.0, "min": np.inf, "max": -np.inf}
    UFUNC = {"add": np.add, "min": np.fmin, "max": np.fmax}

    #: every form of a merge's selection
    SELECTIONS = {
        "whole": None,
        "one id": 3,
        "no ids": [],
        "ids, one": [3],
        "ids, all": [0, 1, 2, 3, 4, 5],
        "ids, consecutive": [1, 2, 3],
        "ids, scattered": [0, 2, 5],
        "ids, scattered, one op": np.array([0, 4], dtype=np.int64),
        "mask": np.array([True, False, True, True, False, True]),
    }

    @pytest.mark.parametrize("groups", SELECTIONS.values(), ids=SELECTIONS.keys())
    def test_merge_and_reset(self, groups):
        picked = np.zeros(len(self.LAYOUT), dtype=bool)
        picked[slice(None) if groups is None else groups] = True
        ids = picked.nonzero()[0]
        rng = np.random.default_rng(ids.size)
        mine, theirs = self.pair(rng)
        by_group, _ = self.pair(np.random.default_rng(ids.size))
        # group by group: the selected ones fold with their op, and are
        # touched where ``theirs`` flags them or holds a non-identity value
        values, flags = mine.snapshot(), mine._touched.copy()
        other = theirs.snapshot()
        offset = 0
        for g, (n, op) in enumerate(self.LAYOUT):
            cells = slice(offset, offset + n)
            offset += n
            if picked[g]:
                values[cells] = self.UFUNC[op](values[cells], other[cells])
                flags[g] |= theirs._touched[g] or (other[cells] != self.IDENTITY[op]).any()
        count = mine.update_count + theirs.update_count

        mine.merge_from(theirs) if groups is None else mine.merge_from(theirs, groups)
        assert mine.snapshot().tobytes() == values.tobytes()
        assert mine._touched.tolist() == flags.tolist()
        assert mine.update_count == count
        assert mine.is_touched(0) == picked[0]  # held by value only
        # the one-id form, group by group, folds the same bits and counts
        # ``theirs`` once per merge
        before = by_group.update_count
        for g in ids:
            by_group.merge_from(theirs, int(g))
        assert self.state(by_group)[:2] == self.state(mine)[:2]
        assert by_group.update_count == before + ids.size * theirs.update_count

        mine.reset_groups(ids)
        for g in ids:
            assert mine.get_group(g).tolist() == [
                self.IDENTITY[self.LAYOUT[g][1]]
            ] * self.LAYOUT[g][0]
            assert not mine.is_touched(g)

    @pytest.mark.parametrize("groups", [[], [0], [0, 2], [0, 2, 4]])
    def test_retract(self, groups):
        by_array, theirs = self.pair(np.random.default_rng(7))
        by_group, _ = self.pair(np.random.default_rng(7))
        by_array.retract_groups(groups, theirs)
        for g in groups:
            by_group.retract_groups(np.array([g]), theirs)
        assert self.state(by_array) == self.state(by_group)

    def test_retract_refuses_before_writing(self):
        mine, theirs = self.pair(np.random.default_rng(3))
        before = self.state(mine)
        with pytest.raises(ReductionObjectError, match="group 3 uses non-invertible"):
            mine.retract_groups([0, 2, 3], theirs)
        assert self.state(mine) == before

    def test_gather_and_set_round_trip(self):
        mine, _ = self.pair(np.random.default_rng(5))
        before = self.state(mine)
        values, touched = mine.gather_groups([1, 2, 5])
        assert values.tolist() == (
            mine.get_group(1).tolist() + mine.get_group(2).tolist()
            + mine.get_group(5).tolist()
        )
        mine.reset_groups([1, 2, 5])
        mine.set_groups([1, 2, 5], values, touched)
        assert self.state(mine) == before

    def test_reset_touched_empties_what_was_written(self):
        mine, theirs = self.pair(np.random.default_rng(9))
        theirs.group_view(4)[0] = -0.0  # equal to the identity, not its bits
        theirs.reset_touched()
        assert self.state(theirs) == self.state(ReductionObject.from_layout(self.LAYOUT))

    @pytest.mark.parametrize("groups", [[6], [-1], [0, 7]])
    def test_unallocated_groups_are_refused(self, groups):
        mine, theirs = self.pair(np.random.default_rng(1))
        for call in (
            lambda: mine.merge_from(theirs, groups),
            lambda: mine.reset_groups(groups),
            lambda: mine.gather_groups(groups),
        ):
            with pytest.raises(ReductionObjectError, match="not all allocated"):
                call()

    @pytest.mark.parametrize(
        "groups", [6, -1, np.ones(5, dtype=bool)], ids=["id 6", "id -1", "short mask"]
    )
    def test_a_bad_selection_is_refused_before_writing(self, groups):
        mine, theirs = self.pair(np.random.default_rng(1))
        before = self.state(mine)
        with pytest.raises(ReductionObjectError):
            mine.merge_from(theirs, groups)
        assert self.state(mine) == before


class TestAlignedAllocator:
    def test_aligned_and_line_padded(self):
        for count, dtype in ((1, np.uint8), (8, bool), (13, np.float64), (1024, np.float64)):
            arr = aligned_empty(count, dtype)
            assert arr.shape == (count,) and arr.dtype == np.dtype(dtype)
            assert arr.ctypes.data % CACHE_LINE_BYTES == 0
            owner = arr.base if arr.base is not None else arr
            while owner.base is not None:
                owner = owner.base
            lines = -(-arr.nbytes // CACHE_LINE_BYTES)
            end_of_last_line = arr.ctypes.data + lines * CACHE_LINE_BYTES
            assert owner.ctypes.data + owner.nbytes >= end_of_last_line

    def test_no_two_lanes_buffers_share_a_line(self):
        base = ReductionObject()
        base.alloc_matrix(8, 1)
        base.freeze_layout()
        lines: list[int] = []
        replicas = [base.clone_empty() for _ in range(16)]  # all alive at once
        for replica in replicas:
            store = replica.direct_store()
            for buf in (store.elements, store.touched):
                first = buf.ctypes.data // CACHE_LINE_BYTES
                last = (buf.ctypes.data + buf.nbytes - 1) // CACHE_LINE_BYTES
                lines.extend(range(first, last + 1))
        assert len(lines) == len(set(lines))


class TestCommitDelta:
    """The fused delta commit against the per-step commit it replaced —
    checkpoint save, merge, retract, reset and merge — on a mixed layout
    with groups filled out of band: the same bits, touched flags, update
    count, checkpoint counters and pre-images, and every scratch object
    left as a fresh clone."""

    LAYOUT = TestGroupArrays.LAYOUT

    @staticmethod
    def state(ro):
        return TestGroupArrays.state(ro)

    def filled(self, rng, groups):
        ro = ReductionObject.from_layout(self.LAYOUT)
        for g in groups:
            n = self.LAYOUT[g][0]
            ro.accumulate_group(g, np.round(rng.uniform(-4, 4, n) * 8) / 8)
        return ro

    @staticmethod
    def bound(path, committed, scratch):
        """``commit_delta``'s ``native`` on ``path``: the C loops bound over
        these objects, or None (the NumPy path)."""
        if path == "numpy":
            return None
        from repro.compiler.native import NativeUnsupported, probe_toolchain, team
        from repro.freeride.delta import NativeEpoch

        if not probe_toolchain()["ok"]:
            pytest.skip("no usable C toolchain")
        try:
            rt = team.RUNTIME.get(wait=True)
        except NativeUnsupported as exc:
            pytest.skip(f"no native runtime: {exc}")
        roles = dict(zip(("tail", "retract", "replay"), scratch))
        if roles["replay"] is None:
            roles["replay"] = committed.clone_empty()
        return NativeEpoch(rt, committed, roles, np.ones(1, dtype=bool))

    @pytest.mark.parametrize("path", ["numpy", "native"])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_step_by_step_commit(self, seed, path):
        from repro.freeride.delta import ROCheckpoint

        rng = np.random.default_rng(seed)
        pick = lambda: sorted(rng.choice(6, rng.integers(0, 7), replace=False).tolist())
        committed = self.filled(rng, range(6))
        tail, retract = self.filled(rng, pick()), self.filled(rng, pick())
        tail.group_view(2)[0] = 0.25  # out of band: a value, no flag
        hit = retract.touched_mask()
        noninvertible = np.array([op != "add" for _, op in self.LAYOUT])
        replayed = (hit & noninvertible).nonzero()[0]
        replay = self.filled(rng, sorted({*replayed.tolist(), *pick()})) if replayed.size else None
        merged = tail.touched_mask().nonzero()[0]
        retracted = (hit & ~noninvertible).nonzero()[0]

        ref, ref_cp = committed.copy(), ROCheckpoint()
        ref_cp.begin(1, ref, n_elements=0, live_count=0)
        ref_cp.save_groups(ref, merged, retracted, replayed)
        ref.merge_from(tail, merged)  # + tail.update_count
        ref.retract_groups(retracted, retract)
        replayed_updates = 0
        if replay is not None:
            ref.reset_groups(replayed)
            ref.merge_from(replay, replayed)  # + replay.update_count
            replayed_updates = replay.update_count
        # the commit gains the tail's updates and loses the retracted ones;
        # a replay rebuilds groups and counts nothing
        ref.update_count -= retract.update_count + replayed_updates

        fused, cp = committed.copy(), ROCheckpoint()
        scratch = [tail.copy(), retract.copy(), replay.copy() if replay is not None else None]
        cp.begin(1, fused, n_elements=0, live_count=0)
        fused.commit_delta(
            scratch[0], scratch[1], hit, scratch[2], cp.save, None,
            self.bound(path, fused, scratch),
        )

        assert self.state(fused) == self.state(ref)
        assert (cp.saves, cp.hits) == (ref_cp.saves, ref_cp.hits)
        empty = self.state(ReductionObject.from_layout(self.LAYOUT))
        assert all(self.state(s) == empty for s in scratch if s is not None)
        for ro, checkpoint in ((fused, cp), (ref, ref_cp)):
            checkpoint.rollback(ro)
            assert self.state(ro) == self.state(committed)
            assert (checkpoint.saves, checkpoint.hits) == (0, 0)

    @pytest.mark.parametrize("path", ["numpy", "native"])
    def test_a_raising_seam_still_empties_the_scratch(self, path):
        rng = np.random.default_rng(4)
        committed = self.filled(rng, range(6))
        tail, retract = self.filled(rng, [0, 3]), self.filled(rng, [1, 2])
        saved = []

        def seam():
            raise RuntimeError("seam")

        with pytest.raises(RuntimeError, match="seam"):
            committed.commit_delta(
                tail, retract, retract.touched_mask(), None,
                lambda *image: saved.append(image), seam,
                self.bound(path, committed, [tail, retract, None]),
            )
        groups, values, touched, hits = saved[0]
        assert groups.nonzero()[0].tolist() == [0, 1, 2, 3] and hits == 0
        empty = self.state(ReductionObject.from_layout(self.LAYOUT))
        assert self.state(tail) == self.state(retract) == empty
