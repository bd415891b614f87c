"""SplitQueue lifecycle invariants under real multi-worker contention.

The fault-tolerant executors (threads in-process, the process executor's
parent dispatch loop) rely on three guarantees the earlier single-threaded
tests never stressed: ``claim``/``requeue`` hand each split to exactly one
worker at a time, ``complete`` commits exactly once per split however many
speculative duplicates race it, and ``steal_straggler`` never resurrects a
finished split.
"""

import threading
import time
from collections import Counter

from repro.freeride.splitter import SplitQueue


def make_queue(num_splits=40):
    return SplitQueue(range(num_splits)), range(num_splits)


class TestClaimRequeueContention:
    def test_every_split_commits_exactly_once(self):
        """8 workers, every attempt of every split fails once then succeeds."""
        queue, splits = make_queue()
        commits = Counter()
        attempts_seen = Counter()
        lock = threading.Lock()

        def worker():
            while True:
                item = queue.claim()
                if item is None:
                    if not queue.outstanding():
                        return
                    time.sleep(0.0002)
                    continue
                pos, attempt = item
                with lock:
                    attempts_seen[pos] += 1
                if attempt == 1:
                    queue.requeue(pos)
                    continue
                if queue.complete(pos):
                    with lock:
                        commits[pos] += 1

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()

        ids = set(splits)
        assert set(commits) == ids
        assert all(c == 1 for c in commits.values())
        # one failed and one successful attempt per split
        assert all(attempts_seen[i] == 2 for i in ids)
        assert queue.requeues == len(ids)
        assert all(queue.attempts(i) == 2 for i in ids)
        assert not queue.outstanding()

    def test_concurrent_claims_never_alias(self):
        """No two workers may hold the same split simultaneously."""
        queue, _ = make_queue()
        holding: set[int] = set()
        overlaps: list[int] = []
        lock = threading.Lock()

        def worker():
            while True:
                item = queue.claim()
                if item is None:
                    if not queue.outstanding():
                        return
                    time.sleep(0.0002)
                    continue
                pos, attempt = item
                with lock:
                    if pos in holding:
                        overlaps.append(pos)
                    holding.add(pos)
                time.sleep(0.0005)  # widen the overlap window
                with lock:
                    holding.discard(pos)
                if attempt < 3:
                    queue.requeue(pos)
                else:
                    queue.complete(pos)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert overlaps == []


class TestStragglerSteal:
    def test_speculative_duplicates_commit_once(self):
        """Everyone steals the same straggler; exactly one commit wins."""
        queue, _ = make_queue(4)
        claimed = [queue.claim() for _ in range(4)]
        assert all(c is not None for c in claimed)
        time.sleep(0.02)

        wins = Counter()
        lock = threading.Lock()

        def thief():
            item = queue.steal_straggler(0.0)
            if item is None:
                return
            pos, _ = item
            if queue.complete(pos):
                with lock:
                    wins[pos] += 1

        threads = [threading.Thread(target=thief) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        # thieves may steal different stragglers, but each split commits once
        assert all(c == 1 for c in wins.values())
        # the original workers' completions of stolen splits are rejected
        for pos, _ in claimed:
            if pos in wins:
                assert queue.complete(pos) is False

    def test_steal_resets_inflight_clock(self):
        queue, _ = make_queue(2)
        queue.claim()
        time.sleep(0.02)
        first = queue.steal_straggler(0.01)
        assert first is not None
        # immediately after a steal the straggler is young again
        assert queue.steal_straggler(0.01) is None

    def test_finished_splits_are_never_stolen(self):
        queue, _ = make_queue(3)
        done = []
        while (item := queue.claim()) is not None:
            queue.complete(item[0])
            done.append(item[0])
        assert len(done) == 3
        time.sleep(0.02)
        assert queue.steal_straggler(0.0) is None
