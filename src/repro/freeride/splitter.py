"""Input-data splitting for the FREERIDE runtime.

Table I: ``int (*splitter_t)(void*, int, reduction_args_t*)`` — "Split the
whole input data set according to the number of the threads provided by the
initialization part."  The paper's applications use the **default splitter**,
which block-partitions the input; we also provide a fixed-chunk splitter used
for dynamic scheduling (the runtime hands chunks to idle threads, which is
how the Phoenix-based FREERIDE implementation balances load).

Splits are *views* where the input supports them (numpy arrays, lists via
slices), so splitting never copies element data.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.util.errors import SplitterError
from repro.util.validation import check_positive_int

__all__ = [
    "Split",
    "default_splitter",
    "chunked_splitter",
    "aligned_splits",
    "split_descriptors",
    "SplitQueue",
]


@dataclass(frozen=True)
class Split:
    """One unit of work: a contiguous slice of the input data.

    ``start``/``end`` are 0-based element indices into the full input;
    ``data`` is the corresponding view.
    """

    split_id: int
    start: int
    end: int
    data: Any

    def __len__(self) -> int:
        return self.end - self.start


def _data_len(data: Any) -> int:
    try:
        return len(data)
    except TypeError:
        raise SplitterError(f"cannot split data of type {type(data)}")


def _slice(data: Any, start: int, end: int) -> Any:
    return data[start:end]


def default_splitter(data: Any, req_units: int) -> list[Split]:
    """Block-partition ``data`` into ``req_units`` balanced splits.

    This is FREERIDE's default splitter: the first ``n % req_units`` splits
    receive one extra element.  Splits with zero elements are produced when
    ``req_units`` exceeds the data size, so every thread still receives an
    answer (matching the C API, which returns a unit count per thread).
    """
    check_positive_int(req_units, "req_units")
    n = _data_len(data)
    base, extra = divmod(n, req_units)
    splits: list[Split] = []
    start = 0
    for t in range(req_units):
        size = base + (1 if t < extra else 0)
        splits.append(Split(t, start, start + size, _slice(data, start, start + size)))
        start += size
    _check_partition(splits, n)
    return splits


def aligned_splits(data: Any, req_units: int, alignment: int) -> list[Split]:
    """Block-partition with split boundaries snapped to ``alignment``.

    The effect analysis exposes the element-period of ``elemIdx()``-derived
    group forms as :attr:`~repro.compiler.groupbounds.GroupBounds.alignment`
    (``e // k`` changes group only at multiples of ``k``).  Snapping each
    boundary to the nearest multiple keeps any one alignment window inside a
    single split, so per-split group footprints stay disjoint and the
    COLORED technique colors wide waves instead of chaining splits that
    straddle a window.  Degenerates to near-balanced blocks — boundaries
    move by at most ``alignment/2`` elements from the even partition.
    """
    check_positive_int(req_units, "req_units")
    check_positive_int(alignment, "alignment")
    n = _data_len(data)
    bounds = [0]
    for t in range(1, req_units):
        ideal = n * t / req_units
        snapped = int(round(ideal / alignment)) * alignment
        bounds.append(min(max(snapped, bounds[-1]), n))
    bounds.append(n)
    splits = [
        Split(i, a, b, _slice(data, a, b))
        for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]
    _check_partition(splits, n)
    return splits


def chunked_splitter(data: Any, chunk_size: int) -> list[Split]:
    """Partition ``data`` into fixed-size chunks (last one may be short).

    Used with dynamic scheduling: many more chunks than threads, pulled from
    a shared queue.
    """
    check_positive_int(chunk_size, "chunk_size")
    n = _data_len(data)
    splits = []
    for sid, start in enumerate(range(0, n, chunk_size)):
        end = min(start + chunk_size, n)
        splits.append(Split(sid, start, end, _slice(data, start, end)))
    if n == 0:
        splits = [Split(0, 0, 0, _slice(data, 0, 0))]
    _check_partition(splits, n)
    return splits


def split_descriptors(splits: Sequence[Split]) -> list[tuple[int, int, int]]:
    """Compact picklable ``(split_id, start, stop)`` descriptors.

    The process executor ships these instead of :class:`Split` objects —
    workers index the shared-memory dataset directly, so a few integers per
    split are the entire dispatch payload.  Requires unit-step index-range
    split data, which is what compiled reductions run over (their engine
    data is the element index range).
    """
    out: list[tuple[int, int, int]] = []
    for s in splits:
        d = s.data
        if not isinstance(d, range) or d.step != 1:
            raise SplitterError(
                "process dispatch requires splits over a unit-step element "
                "index range (compiled reductions); got split data of type "
                f"{type(d).__name__}"
            )
        out.append((s.split_id, d.start, d.stop))
    return out


def _check_partition(splits: Sequence[Split], n: int) -> None:
    """Verify splits exactly partition [0, n) in order."""
    pos = 0
    for s in splits:
        if s.start != pos or s.end < s.start:
            raise SplitterError(
                f"split {s.split_id} does not continue the partition at {pos}"
            )
        pos = s.end
    if pos != n:
        raise SplitterError(f"splits cover [0, {pos}) but data has {n} elements")


class SplitQueue:
    """A thread-safe work queue of splits for dynamic scheduling.

    Beyond plain FIFO draining (:meth:`take`), the queue supports the
    fault-tolerant executor's lifecycle: :meth:`claim` hands out splits with
    attempt tracking, failed attempts are :meth:`requeue`-d for another
    worker (retried splits are served before fresh ones), exhausted splits
    are :meth:`abandon`-ed, and :meth:`steal_straggler` lets an idle worker
    speculatively duplicate a long-in-flight split — the first finisher
    commits, via the :meth:`complete` first-completion gate.
    """

    def __init__(self, splits: Sequence[Split]) -> None:
        self._splits = list(splits)
        self._by_id = {s.split_id: s for s in self._splits}
        self._pending: deque[Split] = deque(self._splits)
        self._retry: deque[Split] = deque()
        self._inflight: dict[int, float] = {}  # split_id -> attempt start
        self._attempts: dict[int, int] = {}
        self._done: set[int] = set()
        self._abandoned: list[int] = []
        self._poisoned = False
        self.requeues = 0
        self._lock = threading.Lock()

    def take(self) -> Split | None:
        """Pop the next split, or None when the queue is drained.

        Retried splits, when present, are served before fresh ones.
        """
        with self._lock:
            return self._pop()

    def _pop(self) -> Split | None:
        if self._poisoned:
            return None
        if self._retry:
            return self._retry.popleft()
        if self._pending:
            return self._pending.popleft()
        return None

    def take_batch(self, lanes: int) -> list[Split]:
        """Pop the next *guided* batch of splits, in queue order.

        Every queued retry goes first, in one batch; otherwise the batch is
        ``ceil(pending / (2 * lanes))`` fresh splits — large while the queue
        is long, single splits at its tail, so ``lanes`` consumers finish
        together.  Empty only when the queue is drained or poisoned.
        """
        with self._lock:
            if self._poisoned:
                return []
            if self._retry:
                batch = list(self._retry)
                self._retry.clear()
                return batch
            count = -(-len(self._pending) // (2 * lanes))
            return [self._pending.popleft() for _ in range(count)]

    def __len__(self) -> int:
        return len(self._splits)

    def drain(self) -> Iterator[Split]:
        """Iterate remaining splits (single-threaded use)."""
        while (s := self.take()) is not None:
            yield s

    # -- fault-tolerant lifecycle ------------------------------------------------

    def claim(self) -> "tuple[Split, int] | None":
        """Pop the next split with attempt tracking: ``(split, attempt)``.

        Marks the split in flight.  Returns None when nothing is claimable
        *right now* — check :meth:`outstanding` to distinguish "drained"
        from "everything is in flight elsewhere".
        """
        with self._lock:
            s = self._pop()
            if s is None:
                return None
            attempt = self._attempts.get(s.split_id, 0) + 1
            self._attempts[s.split_id] = attempt
            self._inflight[s.split_id] = time.monotonic()
            return s, attempt

    def complete(self, split: Split) -> bool:
        """Record a successful attempt; True only for the *first* completion.

        Speculative straggler duplicates call this too — exactly one caller
        sees True and commits its result, the rest discard theirs.
        """
        with self._lock:
            self._inflight.pop(split.split_id, None)
            if split.split_id in self._done:
                return False
            self._done.add(split.split_id)
            return True

    def requeue(self, split: Split) -> None:
        """Put a failed split back for another attempt (served first)."""
        with self._lock:
            self._inflight.pop(split.split_id, None)
            if split.split_id in self._done:
                return  # a speculative duplicate already finished it
            self._retry.append(split)
            self.requeues += 1

    def abandon(self, split: Split) -> None:
        """Give up on a split: mark it terminally failed."""
        with self._lock:
            self._inflight.pop(split.split_id, None)
            if split.split_id not in self._done:
                self._done.add(split.split_id)
                self._abandoned.append(split.split_id)

    def steal_straggler(self, threshold_seconds: float) -> "tuple[Split, int] | None":
        """Speculatively re-dispatch the oldest split in flight for at least
        ``threshold_seconds``; returns ``(split, attempt)`` or None.

        The stolen split's in-flight clock is reset so the same straggler is
        not immediately re-stolen by every idle worker.
        """
        now = time.monotonic()
        with self._lock:
            if self._poisoned:
                return None
            oldest_sid, oldest_start = None, now
            for sid, start in self._inflight.items():
                if sid in self._done:
                    continue
                if now - start >= threshold_seconds and start < oldest_start:
                    oldest_sid, oldest_start = sid, start
            if oldest_sid is None:
                return None
            self._inflight[oldest_sid] = now
            attempt = self._attempts.get(oldest_sid, 0) + 1
            self._attempts[oldest_sid] = attempt
            return self._by_id[oldest_sid], attempt

    def outstanding(self) -> bool:
        """Is any split still pending, queued for retry, or in flight?"""
        with self._lock:
            return bool(self._retry or self._pending or self._inflight)

    def poison(self) -> None:
        """Stop handing out work (fail-fast shutdown); claims return None."""
        with self._lock:
            self._poisoned = True

    @property
    def poisoned(self) -> bool:
        with self._lock:
            return self._poisoned

    def attempts(self, split_id: int) -> int:
        """Attempts recorded for a split id (0 if never claimed)."""
        with self._lock:
            return self._attempts.get(split_id, 0)

    def attempt_table(self) -> dict[int, int]:
        """Attempts per claimed split id — the run's ``split_attempts`` ledger."""
        with self._lock:
            return dict(self._attempts)

    @property
    def abandoned(self) -> list[int]:
        """Split ids given up on, in abandonment order."""
        with self._lock:
            return list(self._abandoned)
