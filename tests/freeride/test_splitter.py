"""Unit tests for the FREERIDE splitters."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.freeride.splitter import (
    Split,
    SplitQueue,
    _check_partition,
    aligned_layout,
    aligned_splits,
    chunked_layout,
    chunked_splitter,
    default_layout,
    default_splitter,
    layout_splits,
)
from repro.util.errors import SplitterError

# -- the per-split loops the layouts replaced, kept as their reference ---------------


def loop_default(data, req_units):
    n = len(data)
    base, extra = divmod(n, req_units)
    splits, start = [], 0
    for t in range(req_units):
        size = base + (1 if t < extra else 0)
        splits.append(Split(t, start, start + size, data[start : start + size]))
        start += size
    return splits


def loop_chunked(data, chunk_size):
    n = len(data)
    splits = []
    for sid, start in enumerate(range(0, n, chunk_size)):
        end = min(start + chunk_size, n)
        splits.append(Split(sid, start, end, data[start:end]))
    return splits or [Split(0, 0, 0, data[0:0])]


def loop_aligned(data, req_units, alignment):
    n = len(data)
    bounds = [0]
    for t in range(1, req_units):
        snapped = int(round(n * t / req_units / alignment)) * alignment
        bounds.append(min(max(snapped, bounds[-1]), n))
    bounds.append(n)
    return [
        Split(i, a, b, data[a:b]) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


def assert_same_splits(got, want):
    """Field for field: ``split_id``, ``start``, ``end`` (Python ints) and
    ``data`` (``range``/list data compare by value)."""
    assert got == want
    assert all(type(s.start) is int and type(s.end) is int for s in got)


def assert_layout_is(layout, want):
    """The arrays are int64, partition ``[0, n)`` and hold ``want``'s bounds."""
    starts, ends = layout
    assert starts.dtype == ends.dtype == np.int64
    _check_partition(starts, ends, want[-1].end)
    assert list(zip(starts.tolist(), ends.tolist())) == [(s.start, s.end) for s in want]


SIZES = (0, 1, 5, 243, 244, 245, 3300, 250_000)
CHUNKS = (1, 2, 3, 7, 244, 1953, 15_625, 300_000)


class TestLayoutsAreTheSplits:
    """Each rule's arrays, and the ``Split`` objects built from them, equal
    the per-split loop's, for ``range`` data (what compiled specs run over)
    and list data (what ``repro.mapreduce`` splits)."""

    @pytest.mark.parametrize("n", SIZES)
    def test_default(self, n):
        for data in [range(n)] + ([list(range(n))] if n < 5000 else []):
            for req in range(1, 9):
                want = loop_default(data, req)
                assert_layout_is(default_layout(n, req), want)
                assert_same_splits(default_splitter(data, req), want)

    @pytest.mark.parametrize("n", SIZES)
    def test_chunked(self, n):
        for chunk in CHUNKS:
            if n // chunk > 10_000:
                continue  # a quarter-million one-element splits adds nothing
            data = range(n)
            want = loop_chunked(data, chunk)
            assert_layout_is(chunked_layout(n, chunk), want)
            assert_same_splits(chunked_splitter(data, chunk), want)
            if n < 5000:
                assert_same_splits(
                    chunked_splitter(list(data), chunk), loop_chunked(list(data), chunk)
                )

    def test_zero_length_and_empty_layouts(self):
        assert_layout_is(default_layout(2, 4), loop_default(range(2), 4))
        assert [e - s for s, e in zip(*default_layout(2, 4))] == [1, 1, 0, 0]
        assert [(int(s), int(e)) for s, e in zip(*chunked_layout(0, 4))] == [(0, 0)]
        assert [(int(s), int(e)) for s, e in zip(*default_layout(0, 3))] == [(0, 0)] * 3

    def test_splits_view_numpy_data(self):
        data = np.arange(3300)
        for got, want in zip(chunked_splitter(data, 244), loop_chunked(data, 244)):
            assert (got.split_id, got.start, got.end) == (
                want.split_id, want.start, want.end
            )
            assert np.array_equal(got.data, want.data) and got.data.base is data

    def test_layout_splits_is_the_one_materializer(self):
        data = range(10, 40)
        starts = np.array([0, 4, 4, 30], dtype=np.int64)
        ends = np.array([4, 4, 30, 30], dtype=np.int64)
        assert layout_splits(data, starts, ends) == [
            Split(0, 0, 4, range(10, 14)), Split(1, 4, 4, range(14, 14)),
            Split(2, 4, 30, range(14, 40)), Split(3, 30, 30, range(40, 40)),
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 20_000),
        req=st.integers(1, 40),
        alignment=st.integers(1, 600),
        chunk=st.integers(1, 5_000),
    )
    def test_every_rule_matches_its_loop(self, n, req, alignment, chunk):
        data = range(n)
        for layout, splits, want in (
            (default_layout(n, req), default_splitter(data, req), loop_default(data, req)),
            (
                aligned_layout(n, req, alignment),
                aligned_splits(data, req, alignment),
                loop_aligned(data, req, alignment),
            ),
            (chunked_layout(n, chunk), chunked_splitter(data, chunk), loop_chunked(data, chunk)),
        ):
            assert_layout_is(layout, want)
            assert_same_splits(splits, want)


class TestCheckPartition:
    """One vectorized pass, the per-split loop's two messages."""

    def check(self, pairs, n, ids=None):
        starts = np.array([a for a, _ in pairs], dtype=np.int64)
        ends = np.array([b for _, b in pairs], dtype=np.int64)
        return _check_partition(starts, ends, n, ids)

    def test_a_partition_passes_through(self):
        starts, ends = self.check([(0, 3), (3, 3), (3, 10)], 10)
        assert starts.tolist() == [0, 3, 3] and ends.tolist() == [3, 3, 10]
        self.check([], 0)

    def test_a_gap_or_overlap_names_the_first_bad_split(self):
        with pytest.raises(SplitterError, match=r"^split 1 does not continue the partition at 6$"):
            self.check([(0, 6), (4, 10)], 10)
        with pytest.raises(SplitterError, match=r"^split 7 does not continue the partition at 2$"):
            self.check([(0, 2), (3, 10)], 10, ids=[5, 7])
        with pytest.raises(SplitterError, match="split 1 does not continue"):
            self.check([(0, 2), (2, 1), (1, 10)], 10)  # runs backwards

    def test_a_short_cover_says_how_far_it_got(self):
        with pytest.raises(SplitterError, match=r"^splits cover \[0, 5\) but data has 10 elements$"):
            self.check([(0, 5)], 10)
        with pytest.raises(SplitterError, match=r"^splits cover \[0, 0\) but data has 4 elements$"):
            self.check([], 4)


class TestDefaultSplitter:
    def test_balanced_partition(self):
        data = list(range(10))
        splits = default_splitter(data, 3)
        assert [len(s) for s in splits] == [4, 3, 3]
        assert [s.data for s in splits] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_exact_partition_of_numpy(self):
        data = np.arange(100)
        splits = default_splitter(data, 8)
        recon = np.concatenate([s.data for s in splits])
        assert np.array_equal(recon, data)

    def test_views_not_copies(self):
        data = np.arange(10)
        splits = default_splitter(data, 2)
        assert splits[0].data.base is data

    def test_more_units_than_data(self):
        splits = default_splitter([1, 2], 4)
        assert [len(s) for s in splits] == [1, 1, 0, 0]

    def test_start_end_consistent(self):
        splits = default_splitter(list(range(17)), 5)
        for s in splits:
            assert s.end - s.start == len(s.data)

    def test_invalid_req_units(self):
        with pytest.raises(ValueError):
            default_splitter([1], 0)

    def test_unsplittable_data(self):
        with pytest.raises(SplitterError):
            default_splitter(42, 2)


class TestChunkedSplitter:
    def test_fixed_chunks(self):
        splits = chunked_splitter(list(range(10)), 4)
        assert [len(s) for s in splits] == [4, 4, 2]
        assert splits[2].data == [8, 9]

    def test_single_chunk(self):
        splits = chunked_splitter([1, 2], 100)
        assert len(splits) == 1 and len(splits[0]) == 2

    def test_empty_data(self):
        splits = chunked_splitter([], 4)
        assert len(splits) == 1 and len(splits[0]) == 0

    def test_split_ids_sequential(self):
        splits = chunked_splitter(list(range(9)), 2)
        assert [s.split_id for s in splits] == [0, 1, 2, 3, 4]


class TestSplitQueue:
    def test_drain_order(self):
        splits = chunked_splitter(list(range(6)), 2)
        q = SplitQueue(splits)
        assert [s.split_id for s in q.drain()] == [0, 1, 2]
        assert q.take() is None

    def test_concurrent_take_no_duplicates(self):
        splits = chunked_splitter(list(range(1000)), 1)
        q = SplitQueue(splits)
        taken: list[int] = []
        lock = threading.Lock()

        def worker():
            while (s := q.take()) is not None:
                with lock:
                    taken.append(s.split_id)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(taken) == list(range(1000))


class TestSplitQueueFaultAPI:
    def make_queue(self, n=6, chunk=2):
        return SplitQueue(chunked_splitter(list(range(n)), chunk))

    def test_claim_returns_split_and_attempt(self):
        q = self.make_queue()
        split, attempt = q.claim()
        assert split.split_id == 0
        assert attempt == 1

    def test_complete_first_wins(self):
        q = self.make_queue()
        split, _ = q.claim()
        assert q.complete(split) is True
        assert q.complete(split) is False  # duplicate commit rejected

    def test_requeue_bumps_attempt(self):
        q = self.make_queue()
        split, attempt = q.claim()
        assert attempt == 1
        q.requeue(split)
        assert q.requeues == 1
        again, attempt2 = q.claim()
        assert again.split_id == split.split_id  # retries drain first
        assert attempt2 == 2

    def test_requeue_after_complete_is_ignored(self):
        q = self.make_queue()
        split, _ = q.claim()
        q.complete(split)
        q.requeue(split)
        assert q.requeues == 0
        ids = []
        while (item := q.claim()) is not None:
            ids.append(item[0].split_id)
        assert split.split_id not in ids

    def test_outstanding_tracks_lifecycle(self):
        q = self.make_queue(n=4, chunk=2)  # 2 splits
        assert q.outstanding()
        a, _ = q.claim()
        b, _ = q.claim()
        assert q.claim() is None
        assert q.outstanding()  # both in flight
        q.complete(a)
        q.abandon(b)
        assert not q.outstanding()

    def test_abandon_recorded(self):
        q = self.make_queue()
        split, _ = q.claim()
        q.abandon(split)
        assert q.abandoned == [split.split_id]

    def test_steal_straggler(self):
        import time

        q = self.make_queue(n=2, chunk=2)  # 1 split
        split, _ = q.claim()
        assert q.steal_straggler(10.0) is None  # not yet a straggler
        time.sleep(0.02)
        stolen = q.steal_straggler(0.01)
        assert stolen is not None
        s2, attempt = stolen
        assert s2.split_id == split.split_id
        assert attempt == 2
        # the steal reset the in-flight clock
        assert q.steal_straggler(0.01) is None
        # only the first completion commits
        assert q.complete(split) is True
        assert q.complete(s2) is False

    def test_poison_stops_claims(self):
        q = self.make_queue()
        q.poison()
        assert q.poisoned
        assert q.claim() is None
        assert q.take() is None

    def test_attempts_query(self):
        q = self.make_queue()
        split, _ = q.claim()
        assert q.attempts(split.split_id) == 1
        q.requeue(split)
        q.claim()
        assert q.attempts(split.split_id) == 2
