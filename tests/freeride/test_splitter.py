"""Unit tests for the FREERIDE splitters."""

import sys
import threading

import numpy as np
import pytest

from repro.freeride.splitter import SplitQueue, chunked_splitter, default_splitter
from repro.util.errors import SplitterError


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


class TestSplitQueueGuidedBatches:
    """``take_batch``: retries first, then ceil(pending / (2 * lanes))."""

    def make_queue(self, n):
        return SplitQueue(chunked_splitter(list(range(n)), 1))

    def test_batches_partition_the_queue_in_order(self):
        for n in (1, 2, 7, 100, 1025):
            for lanes in (1, 2, 3, 8):
                q = self.make_queue(n)
                seen = []
                while batch := q.take_batch(lanes):
                    seen.extend(s.split_id for s in batch)
                assert seen == list(range(n)), (n, lanes)

    def test_batch_sizes_follow_the_guided_rule(self):
        q = self.make_queue(100)
        sizes = []
        while batch := q.take_batch(2):
            sizes.append(len(batch))
        pending, expected = 100, []
        while pending:
            expected.append(-(-pending // 4))
            pending -= expected[-1]
        assert sizes == expected
        assert sizes[0] == 25 and sizes[-1] == 1
        assert all(sizes)  # never an empty batch before the queue is drained

    def test_retries_go_first_in_one_batch(self):
        q = self.make_queue(10)
        a, _ = q.claim()
        b, _ = q.claim()
        q.requeue(b)
        q.requeue(a)
        assert [s.split_id for s in q.take_batch(2)] == [1, 0]
        assert [s.split_id for s in q.take_batch(2)] == [2, 3]

    def test_empty_after_poison(self):
        q = self.make_queue(10)
        assert len(q.take_batch(2)) == 3
        q.poison()
        assert q.take_batch(2) == []

    def test_concurrent_batches_no_duplicates(self):
        q = self.make_queue(1000)
        taken: list[int] = []
        lock = threading.Lock()

        def worker():
            while batch := q.take_batch(8):
                with lock:
                    taken.extend(s.split_id for s in batch)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
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
