"""Input-data splitting for the FREERIDE runtime.

Table I: ``int (*splitter_t)(void*, int, reduction_args_t*)`` — "Split the
whole input data set according to the number of the threads provided by the
initialization part."  The paper's applications use the **default splitter**,
which block-partitions the input; we also provide a fixed-chunk splitter used
for dynamic scheduling (the runtime hands chunks to idle threads, which is
how the Phoenix-based FREERIDE implementation balances load).

Splits are *views* where the input supports them (numpy arrays, lists via
slices), so splitting never copies element data.

Each built-in rule computes a *layout* first — two int64 arrays
``(starts, ends)`` of positions into the data, one entry per split — with
NumPy (:func:`default_layout`, :func:`aligned_layout`,
:func:`chunked_layout`); :func:`layout_splits` is the one function that
turns a layout into :class:`Split` objects.  A run carries its layout as
positions from the plan to the kernel: the engine calls it only to hand a
callable ``group_bounds`` hook its splits, and a hand-written spec's
per-split callback gets a ``Split`` built for each attempt.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.util.errors import SplitterError
from repro.util.validation import check_positive_int

__all__ = [
    "Split",
    "default_splitter",
    "chunked_splitter",
    "aligned_splits",
    "default_layout",
    "aligned_layout",
    "chunked_layout",
    "layout_splits",
    "element_ranges",
    "SplitQueue",
]

#: a split layout: split ``i`` covers positions ``[starts[i], ends[i])`` —
#: two int64 arrays that partition ``[0, n)`` in order
Layout = tuple[np.ndarray, np.ndarray]


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


def default_layout(n: int, req_units: int) -> Layout:
    """FREERIDE's default splitter as a layout: ``n`` elements in
    ``req_units`` balanced blocks, the first ``n % req_units`` one longer.

    Blocks with zero elements are produced when ``req_units`` exceeds
    ``n``, so every thread still receives an answer (matching the C API,
    which returns a unit count per thread).
    """
    check_positive_int(req_units, "req_units")
    base, extra = divmod(n, req_units)
    # block t starts after t blocks of `base` and min(t, extra) extra elements
    t = np.arange(req_units + 1, dtype=np.int64)
    bounds = t * base + np.minimum(t, extra)
    return bounds[:-1], bounds[1:]


def aligned_layout(n: int, req_units: int, alignment: int) -> Layout:
    """Balanced blocks with their boundaries snapped to ``alignment``.

    The effect analysis exposes the element-period of ``elemIdx()``-derived
    group forms as :attr:`~repro.analysis.effects.EffectSummary.alignment`
    (``e // k`` changes group only at multiples of ``k``).  Snapping each
    boundary to the nearest multiple keeps any one alignment window inside a
    single split, so per-split group footprints stay disjoint and the
    COLORED technique colors wide waves instead of chaining splits that
    straddle a window.  Degenerates to near-balanced blocks — boundaries
    move by at most ``alignment/2`` elements from the even partition, and
    are clamped to stay ordered and inside ``[0, n]``.
    """
    check_positive_int(req_units, "req_units")
    check_positive_int(alignment, "alignment")
    ideal = np.arange(1, req_units, dtype=np.int64) * n / req_units
    # np.round, like round(), takes a tie to the even neighbour
    snapped = np.round(ideal / alignment).astype(np.int64) * alignment
    inner = np.maximum.accumulate(np.minimum(snapped, n))
    return np.concatenate(([0], inner)), np.concatenate((inner, [n]))


def chunked_layout(n: int, chunk_size: int) -> Layout:
    """Fixed-size chunks of ``n`` elements (the last one may be short).

    Used with dynamic scheduling: many more chunks than threads.  No
    elements still make one (empty) chunk.
    """
    check_positive_int(chunk_size, "chunk_size")
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    starts = np.arange(0, n, chunk_size, dtype=np.int64)
    return starts, np.minimum(starts + chunk_size, n)


def layout_splits(data: Any, starts: np.ndarray, ends: np.ndarray) -> list[Split]:
    """The :class:`Split` objects of a layout over ``data``: split ``i`` has
    id ``i`` and views ``data[starts[i]:ends[i]]``."""
    return [
        Split(i, a, b, data[a:b])
        for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist()))
    ]


def element_ranges(
    data: Any, layout: Layout
) -> "tuple[np.ndarray, np.ndarray] | tuple[None, None]":
    """The element values each split of ``layout`` reduces when ``data`` is
    a unit-step ``range`` (what every compiled spec runs over): its
    ``start`` plus each position.  ``(None, None)`` for other data."""
    if not (isinstance(data, range) and data.step == 1):
        return None, None
    starts, ends = layout
    if data.start:
        return starts + data.start, ends + data.start
    return starts, ends


def default_splitter(data: Any, req_units: int) -> list[Split]:
    """Block-partition ``data`` into ``req_units`` balanced splits
    (:func:`default_layout`)."""
    return layout_splits(data, *default_layout(_data_len(data), req_units))


def aligned_splits(data: Any, req_units: int, alignment: int) -> list[Split]:
    """Block-partition with split boundaries snapped to ``alignment``
    (:func:`aligned_layout`)."""
    return layout_splits(
        data, *aligned_layout(_data_len(data), req_units, alignment)
    )


def chunked_splitter(data: Any, chunk_size: int) -> list[Split]:
    """Partition ``data`` into fixed-size chunks (:func:`chunked_layout`)."""
    return layout_splits(data, *chunked_layout(_data_len(data), chunk_size))


def _check_partition(
    starts: np.ndarray,
    ends: np.ndarray,
    n: int,
    split_ids: "Sequence[int] | None" = None,
) -> Layout:
    """Verify ``[starts[i], ends[i])`` exactly partition [0, n) in order;
    returns the layout.  ``split_ids`` names the splits in a refusal
    (default: their positions)."""
    # where each split has to start: where the one before it ended
    due = np.concatenate(([0], ends))[: len(starts)]
    bad = np.flatnonzero((starts != due) | (ends < starts))
    if bad.size:
        i = int(bad[0])
        sid = i if split_ids is None else split_ids[i]
        raise SplitterError(
            f"split {sid} does not continue the partition at {int(due[i])}"
        )
    pos = int(ends[-1]) if len(ends) else 0
    if pos != n:
        raise SplitterError(f"splits cover [0, {pos}) but data has {n} elements")
    return starts, ends


class SplitQueue:
    """A thread-safe work queue of split positions for dynamic scheduling.

    Items are positions into the run's layout (or any list the caller
    indexes).  Beyond plain FIFO draining (:meth:`take`), the queue supports
    the fault-tolerant executor's lifecycle: :meth:`claim` hands out
    positions with attempt tracking, failed attempts are :meth:`requeue`-d
    for another worker (retried positions are served before fresh ones),
    exhausted ones are :meth:`abandon`-ed, and :meth:`steal_straggler` lets
    an idle worker speculatively duplicate a long-in-flight split — the
    first finisher commits, via the :meth:`complete` first-completion gate.
    """

    def __init__(self, positions: Iterable[int]) -> None:
        self._pending: deque[int] = deque(positions)
        self._retry: deque[int] = deque()
        self._inflight: dict[int, float] = {}  # position -> attempt start
        self._attempts: dict[int, int] = {}
        self._done: set[int] = set()
        self._abandoned: list[int] = []
        self._poisoned = False
        self.requeues = 0
        self._lock = threading.Lock()

    def take(self) -> int | None:
        """Pop the next position, or None when the queue is drained.

        Retried positions, when present, are served before fresh ones.
        """
        with self._lock:
            return self._pop()

    def _pop(self) -> int | None:
        if self._poisoned:
            return None
        if self._retry:
            return self._retry.popleft()
        if self._pending:
            return self._pending.popleft()
        return None

    # -- fault-tolerant lifecycle ------------------------------------------------

    def claim(self) -> "tuple[int, int] | None":
        """Pop the next position with attempt tracking: ``(pos, attempt)``.

        Marks it in flight.  Returns None when nothing is claimable
        *right now* — check :meth:`outstanding` to distinguish "drained"
        from "everything is in flight elsewhere".
        """
        with self._lock:
            pos = self._pop()
            if pos is None:
                return None
            attempt = self._attempts.get(pos, 0) + 1
            self._attempts[pos] = attempt
            self._inflight[pos] = time.monotonic()
            return pos, attempt

    def complete(self, pos: int) -> bool:
        """Record a successful attempt; True only for the *first* completion.

        Speculative straggler duplicates call this too — exactly one caller
        sees True and commits its result, the rest discard theirs.
        """
        with self._lock:
            self._inflight.pop(pos, None)
            if pos in self._done:
                return False
            self._done.add(pos)
            return True

    def requeue(self, pos: int) -> None:
        """Put a failed split back for another attempt (served first)."""
        with self._lock:
            self._inflight.pop(pos, None)
            if pos in self._done:
                return  # a speculative duplicate already finished it
            self._retry.append(pos)
            self.requeues += 1

    def abandon(self, pos: int) -> None:
        """Give up on a split: mark it terminally failed."""
        with self._lock:
            self._inflight.pop(pos, None)
            if pos not in self._done:
                self._done.add(pos)
                self._abandoned.append(pos)

    def steal_straggler(self, threshold_seconds: float) -> "tuple[int, int] | None":
        """Speculatively re-dispatch the oldest split in flight for at least
        ``threshold_seconds``; returns ``(pos, attempt)`` or None.

        The stolen split's in-flight clock is reset so the same straggler is
        not immediately re-stolen by every idle worker.
        """
        now = time.monotonic()
        with self._lock:
            if self._poisoned:
                return None
            oldest, oldest_start = None, now
            for pos, start in self._inflight.items():
                if pos in self._done:
                    continue
                if now - start >= threshold_seconds and start < oldest_start:
                    oldest, oldest_start = pos, start
            if oldest is None:
                return None
            self._inflight[oldest] = now
            attempt = self._attempts.get(oldest, 0) + 1
            self._attempts[oldest] = attempt
            return oldest, attempt

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

    def attempts(self, pos: int) -> int:
        """Attempts recorded for a position (0 if never claimed)."""
        with self._lock:
            return self._attempts.get(pos, 0)

    def attempt_table(self) -> dict[int, int]:
        """Attempts per claimed position, in first-claim order."""
        with self._lock:
            return dict(self._attempts)

    @property
    def abandoned(self) -> list[int]:
        """Positions given up on, in abandonment order."""
        with self._lock:
            return list(self._abandoned)
