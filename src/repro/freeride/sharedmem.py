"""Shared-memory parallelization techniques for the reduction object.

The paper (§III-A): "the results from multiple threads in a single node are
combined locally **depending on the shared memory technique chosen by the
application developer**."  The FREERIDE line of work (Jin & Agrawal, SDM'02)
defines the techniques we reproduce:

``FULL_REPLICATION``
    each thread updates a private copy of the reduction object; copies are
    merged after the local reduction ends.  No synchronization during
    processing; memory cost scales with the number of threads.
``CACHE_SENSITIVE_LOCKING``
    one shared copy and one lock per cache block of elements (8 float64
    elements per 64-byte line), reducing the number of locks and false
    sharing.  SDM'02's per-element variants, full and optimized full
    locking, are not kept: they differ from this one only in the lock
    stride, and no run chooses them.
``COLORED``
    one shared copy with *neither* locks nor replicas: the engine colors the
    splits at plan time so that splits running concurrently are provably
    conflict-free (their RO group sets are disjoint — the PyOP2 iteration-set
    coloring argument), and executes them wave by wave.  Requires exact
    plan-time group bounds (see :mod:`repro.compiler.groupbounds` and
    :mod:`repro.freeride.coloring`); the engine falls back to another
    technique when the bounds are inexact.

All techniques produce identical reduction results; they differ in
synchronization counts, memory footprint and (in the simulated machine) cost.

A thread updates the reduction object through its *lane*
(:meth:`SharedMemManager.setup`).  Under full replication and colored the
lane owns its target, so it is that :class:`ReductionObject`: a private
copy, or a view of the shared one.  Under cache-sensitive locking it is a
:class:`LockingAccessor`, which stores into the shared copy under locks.
"""

from __future__ import annotations

import enum
import hashlib
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory as mp_shm
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.freeride.combination import CombinationStats, combine
from repro.freeride.reduction_object import DirectStore, ReductionObject
from repro.util.errors import FreerideError

if TYPE_CHECKING:
    from repro.freeride.plan import RunShape

__all__ = [
    "SharedMemTechnique",
    "SharedMemStats",
    "LockingAccessor",
    "Lane",
    "SharedMemManager",
    "ReplicaPool",
    "SharedBufferCache",
    "create_shm_segment",
    "attach_shm_segment",
    "close_shm_segment",
    "ELEMS_PER_CACHE_LINE",
    "num_locks",
]

#: 64-byte cache line / 8-byte float64 elements.
ELEMS_PER_CACHE_LINE = 8


def num_locks(elements: int) -> int:
    """Cache-sensitive locking's stripe: one lock per cache line of a
    reduction object of ``elements`` float64 elements (at least one)."""
    return max(1, -(-elements // ELEMS_PER_CACHE_LINE))


class SharedMemTechnique(enum.Enum):
    """Which shared-memory technique guards reduction-object updates."""

    FULL_REPLICATION = "full_replication"
    CACHE_SENSITIVE_LOCKING = "cache_sensitive_locking"
    COLORED = "colored"

    @classmethod
    def parse(cls, value: "SharedMemTechnique | str") -> "SharedMemTechnique":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise FreerideError(
                f"unknown shared-memory technique {value!r}; "
                f"choose from {[t.value for t in cls]}"
            )


@dataclass
class SharedMemStats:
    """Synchronization accounting: what the run counted, and the run's
    shape (:class:`~repro.freeride.plan.RunShape`), the cost model's too."""

    lock_acquisitions: int = 0
    private_copies: int = 0
    num_locks: int = 0
    #: reduction-object memory footprint: replication pays one copy per
    #: thread, locking shares one copy (the classic tradeoff)
    ro_memory_bytes: int = 0
    #: how many splits each wave of the run ran
    wave_widths: tuple[int, ...] = ()


def _covering(first: int, count: int) -> range:
    """Lock indices covering the ``count`` flat cells from ``first``."""
    return range(
        first // ELEMS_PER_CACHE_LINE,
        (first + count - 1) // ELEMS_PER_CACHE_LINE + 1,
    )


class LockingAccessor:
    """*The lane that shares its target*: cache-sensitive locking.

    ``ro`` is the one shared copy; every update validates its cells through
    the object, then stores under the locks covering them.  ``locks`` holds
    one lock per cache line of ``ro`` and ``meta_lock`` guards its update
    count; every lane of a run shares both.  It offers the update methods
    of a :class:`ReductionObject` — a lane that owns its target (full
    replication, colored) is that object itself.
    """

    def __init__(
        self,
        shared_ro: ReductionObject,
        locks: "list[threading.Lock]",
        meta_lock: threading.Lock,
    ) -> None:
        self.ro = shared_ro
        self.stats = SharedMemStats(num_locks=len(locks))
        self._locks = locks
        self._meta_lock = meta_lock
        #: what :meth:`direct_store` hands out; built on first use
        self._scratch: ReductionObject | None = None

    def _holding(self, indices: "Iterable[int]", update: Callable, *args) -> None:
        """``update(*args)`` while holding the locks ``indices`` — acquired
        ascending, so concurrent holders cannot deadlock, released in
        reverse and counted on the way out.  (A call, not a ``with``: a
        generator context manager costs three times the hold itself, once
        per group of every commit.)"""
        locks = self._locks
        acquired = []
        try:
            for i in indices:
                locks[i].acquire()
                acquired.append(i)
            update(*args)
        finally:
            for i in reversed(acquired):
                locks[i].release()
            self.stats.lock_acquisitions += len(acquired)

    def accumulate(self, group: int, elem: int, value: float, op=None) -> None:
        meta, idx = self.ro._cell(group, elem, op)
        with self._locks[idx // ELEMS_PER_CACHE_LINE]:
            self.ro.store_cell(meta, idx, value)
        self.stats.lock_acquisitions += 1

    def accumulate_group(self, group: int, values: np.ndarray) -> None:
        # a vectorized group update takes one lock per cache line it spans
        meta = self.ro._meta(group)
        values = meta.vector(values)
        self._holding(
            _covering(meta.offset, meta.num_elems),
            self.ro.accumulate_group, group, values,
        )

    def accumulate_batch(
        self, groups, elems, values, op="add", mask=None, lanes=None
    ) -> None:
        idx, v = self.ro.batch_cells(groups, elems, values, op, mask, lanes)
        if idx.size == 0:
            return
        # every touched cell's lock, then the whole batch at once
        self._holding(
            np.unique(idx // ELEMS_PER_CACHE_LINE).tolist(),
            self.ro.apply_batch, idx, v, op,
        )

    def merge_from(self, other: ReductionObject, groups=None) -> None:
        """:meth:`ReductionObject.merge_from` into the shared copy, group by
        group (every group, or ascending ids), each under its covering locks:
        other threads observe a group's merge entirely or not at all.  The
        update count is added once, under its own lock."""
        ro = self.ro
        tables = ro._check_same_layout(other, "merge")
        for g in range(ro.num_groups) if groups is None else groups:
            meta = ro._meta(g)
            self._holding(
                _covering(meta.offset, meta.num_elems), ro._fold, other, tables, g
            )
        with self._meta_lock:
            ro.update_count += other.update_count

    def direct_store(self) -> DirectStore:
        """C takes no locks, so the kernel stores into a lane-private
        scratch object; :meth:`note_updates` commits it."""
        if self._scratch is None:
            self._scratch = self.ro.clone_empty()
        return self._scratch.direct_store()

    def note_updates(self, count: int) -> None:
        """Commit what the kernel left in the scratch object — the groups it
        flagged, under their locks — and reset them for the next call."""
        scratch = self._scratch
        assert scratch is not None, "note_updates follows direct_store"
        touched = np.flatnonzero(scratch.direct_store().touched).tolist()
        scratch.update_count = count
        try:
            if touched:
                self.merge_from(scratch, touched)
        finally:
            scratch.reset_groups(touched)
            scratch.update_count = 0


#: layouts a :class:`ReplicaPool` keeps emptied replicas of, the least
#: recently used dropped first
REPLICA_POOL_LAYOUTS = 4


class ReplicaPool:
    """Emptied full-replication lanes, kept per interned layout.

    An engine runs the same pass again and again (the outer loop of the
    paper's Figure 4), and each run needs one private copy per lane.  A
    copy that comes back from a run is emptied with
    :meth:`ReductionObject.reset_touched` — the state of a fresh
    :meth:`~ReductionObject.clone_empty` — and serves a later run of the
    same layout, keeping its buffers and with them its
    :class:`~repro.freeride.reduction_object.DirectStore`, on which a native
    kernel keys the pointers it prepared.  A copy is out of the pool while
    a run holds it, so two concurrent runs never share one.  Safe to share
    between threads.
    """

    def __init__(self) -> None:
        self._free: "dict[Any, list[ReductionObject]]" = {}
        self._lock = threading.Lock()

    def take(
        self, base_ro: ReductionObject, layout: Any, count: int
    ) -> list[ReductionObject]:
        """``count`` empty copies of ``base_ro``, whose interned layout is
        ``layout``: pooled ones first, then fresh ones."""
        with self._lock:
            free = self._free.pop(layout, [])
            keep = max(0, len(free) - count)
            taken, self._free[layout] = free[keep:], free[:keep]  # now the newest
        while len(taken) < count:
            taken.append(base_ro.clone_empty())
        return taken

    def give(self, layout: Any, lanes: list[ReductionObject], keep: int) -> None:
        """Empty ``lanes`` (copies of interned layout ``layout``) and pool up
        to ``keep`` copies of that layout."""
        for lane in lanes:
            lane.reset_touched()
        with self._lock:
            free = self._free.pop(layout, [])
            free += lanes[: max(0, keep - len(free))]
            self._free[layout] = free
            while len(self._free) > REPLICA_POOL_LAYOUTS:
                del self._free[next(iter(self._free))]

    def clear(self) -> None:
        with self._lock:
            self._free.clear()


#: what a thread updates the reduction object through: a copy or view of
#: its own, or a lane sharing it under locks
Lane = ReductionObject | LockingAccessor


class SharedMemManager:
    """Creates per-thread lanes and finishes the local combination.

    Usage::

        mgr = SharedMemManager(technique)
        lanes = mgr.setup(base_ro, num_threads)
        ... each thread t updates lanes[t] ...
        ro, sm_stats, lc_stats = mgr.finish(base_ro, lanes, plan.shape)

    A lane that owns its target is a :class:`ReductionObject`: a private
    copy under full replication, a :meth:`~ReductionObject.view` of
    ``base_ro`` under colored.  Cache-sensitive locking hands out
    :class:`LockingAccessor` lanes over ``base_ro`` itself.  Given a
    :class:`ReplicaPool`, full replication takes its copies from the pool in
    :meth:`setup`, and :meth:`finish` gives them back emptied once they are
    combined.
    """

    def __init__(self, technique: SharedMemTechnique | str) -> None:
        self.technique = SharedMemTechnique.parse(technique)

    def setup(
        self,
        base_ro: ReductionObject,
        num_threads: int,
        pool: "ReplicaPool | None" = None,
    ) -> list[Lane]:
        if num_threads <= 0:
            raise FreerideError("num_threads must be positive")
        layout = base_ro.freeze_layout()
        if self.technique is SharedMemTechnique.FULL_REPLICATION:
            # no pool: every lane is a fresh clone
            return (pool or ReplicaPool()).take(base_ro, layout, num_threads)
        if self.technique is SharedMemTechnique.COLORED:
            # One shared copy, zero locks — safe only under a wave schedule
            # (the engine guarantees concurrently-running splits touch
            # disjoint group sets).  The flags and the update count, which
            # every update writes, stay per lane until finish().
            return [base_ro.view() for _ in range(num_threads)]
        # cache-sensitive locking: one lock per cache line, shared by every lane
        locks = [threading.Lock() for _ in range(num_locks(base_ro.size))]
        meta_lock = threading.Lock()
        return [LockingAccessor(base_ro, locks, meta_lock) for _ in range(num_threads)]

    def finish(
        self,
        base_ro: ReductionObject,
        lanes: list[Lane],
        shape: "RunShape",
        combination: "Callable[[list[ReductionObject]], ReductionObject] | None" = None,
        pool: "ReplicaPool | None" = None,
    ) -> tuple[ReductionObject, SharedMemStats, CombinationStats]:
        """Run the local combination phase.

        Returns ``(combined RO, shared-memory stats, combination stats)``.
        This is the single accounting path for local combination: the stats
        copy ``shape``, the run's :class:`~repro.freeride.plan.RunShape`,
        and add the lock acquisitions the lanes counted.

        ``combination``, when given (full replication only), is the
        application's custom ``combination_t``: it receives the per-thread
        copies and must return a :class:`ReductionObject`, which is then
        merged into ``base_ro``.  The per-thread copies are never mutated
        by the default combination, which gives them to ``pool`` once they
        are merged; copies a custom combination saw are not pooled.
        """
        total = SharedMemStats(
            private_copies=shape.private_copies,
            num_locks=shape.num_locks, ro_memory_bytes=shape.ro_memory_bytes,
            wave_widths=shape.wave_widths,
        )
        # Only replication combines copies; the other techniques share
        # base_ro, which they already updated in place.
        if self.technique is SharedMemTechnique.COLORED:
            # Fold in the flags and update counts the lanes' views kept off
            # the shared object.
            for view in lanes:
                base_ro.update_count += view.update_count
                base_ro._touched |= view._touched
            return base_ro, total, CombinationStats(strategy="in_place")
        if self.technique is not SharedMemTechnique.FULL_REPLICATION:
            for lane in lanes:
                total.lock_acquisitions += lane.stats.lock_acquisitions
            return base_ro, total, CombinationStats(strategy="in_place")

        if combination is not None:
            combined = combination(lanes)
            if not isinstance(combined, ReductionObject):
                raise FreerideError("custom combination must return a ReductionObject")
            base_ro.merge_from(combined)
            lc_stats = CombinationStats(
                strategy="custom",
                merges=len(lanes),
                rounds=1,
                elements_merged=base_ro.size * len(lanes),
            )
        else:
            _, lc_stats = combine(lanes, target=base_ro)
            if pool is not None:
                # setup froze base_ro, so its interned layout is set
                pool.give(base_ro._layout, lanes, len(lanes))
        return base_ro, total, lc_stats


# -- process-mode shared-memory segments ----------------------------------------
#
# The ``"process"`` executor extends full replication across address spaces:
# the parent publishes the linearized dataset into a POSIX shared-memory
# segment once, workers attach it zero-copy, and per-worker reduction-object
# replicas live in a second segment the parent wraps (and merges all-to-one
# through the ordinary ``combine()``) after the workers return.


def create_shm_segment(nbytes: int) -> mp_shm.SharedMemory:
    """Create an anonymous shared-memory segment of at least ``nbytes``.

    The creator owns the segment: pass the returned object to
    :func:`close_shm_segment` with ``unlink=True`` when every attached view
    has been dropped.
    """
    return mp_shm.SharedMemory(create=True, size=max(1, int(nbytes)))


def attach_shm_segment(name: str) -> mp_shm.SharedMemory:
    """Attach an existing segment *without* taking ownership of it.

    Python's ``multiprocessing.resource_tracker`` registers a segment on
    every attach (not just on create) before 3.13; ``track=False`` opts out
    where available.  On older versions the duplicate registration is left
    in place deliberately: every attacher in this architecture is a pool
    worker (or the creating process itself) sharing the creator's tracker,
    whose name cache is a *set* — the attach-side register is a no-op
    against the creator's entry, and the creator's eventual unlink removes
    it exactly once.  Unregistering here instead would strip the creator's
    entry the first time and underflow the set when several workers attach
    the same segment.
    """
    try:
        return mp_shm.SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:
        return mp_shm.SharedMemory(name=name)


def close_shm_segment(shm: mp_shm.SharedMemory, unlink: bool = False) -> None:
    """Close (and optionally unlink) a segment, tolerating live exports.

    ``SharedMemory.close`` raises ``BufferError`` while numpy views over
    ``shm.buf`` are still alive; callers drop their views first, but a
    leaked view must not turn cleanup into a crash — the mapping is then
    left for the OS to reap at process exit while the name is still
    unlinked (so no ``/dev/shm`` entry outlives the run).
    """
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
    try:
        shm.close()
    except BufferError:
        pass


def _flat_parts(parts: "tuple[np.ndarray, ...]") -> list[np.ndarray]:
    """Each part as a flat byte view; a strided part is refused."""
    flats = []
    for arr in parts:
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:
            raise FreerideError("can only publish C-contiguous buffers")
        flats.append(arr.reshape(-1).view(np.uint8))
    return flats


def _copy_parts(
    shm: mp_shm.SharedMemory, flats: list[np.ndarray], start: int, stop: int
) -> None:
    """Copy bytes ``[start, stop)`` of the parts' concatenation into ``shm``
    at the same offsets."""
    if start >= stop:
        return
    dst = np.ndarray((stop,), dtype=np.uint8, buffer=shm.buf)
    pos = 0
    for flat in flats:
        lo, hi = max(start, pos), min(stop, pos + flat.size)
        if lo < hi:
            dst[lo:hi] = flat[lo - pos : hi - pos]
        pos += flat.size
    del dst


class SharedBufferCache:
    """Publishes read-only numpy buffers into shared memory, once per content.

    The process executor ships only ``(segment name, nbytes)`` descriptors
    per run; the actual bytes cross the process boundary exactly once per
    distinct buffer *content*, however many runs (outer-loop iterations)
    reuse it.  Keyed by a SHA-256 digest of the bytes rather than the source
    array's address: ``run_iterative`` re-linearizes the dataset into a
    fresh array every pass, so address-keying would republish identical data
    as a new segment per iteration (unbounded ``/dev/shm`` growth over
    k-means' ~20 passes), and an address key would also need a strong
    reference pinning every source array alive.  Hashing costs ~1 ms per
    couple of MB — noise next to a segment copy.  Owned by one engine and
    released by ``engine.close()`` (or the engine's exit finalizer).
    """

    def __init__(self) -> None:
        self._entries: dict[str, mp_shm.SharedMemory] = {}
        #: session key -> (segment, bytes currently valid in it); see
        #: :meth:`publish_session`
        self._sessions: dict[str, tuple[mp_shm.SharedMemory, int]] = {}
        #: bytes copied by session publishes, split by kind — a delta
        #: session's steady state is tail-only (the incremental win the
        #: benchmarks assert); full copies happen only on first publish
        #: and on capacity growth
        self.session_tail_bytes = 0
        self.session_full_bytes = 0
        self._lock = threading.Lock()

    def publish_session(self, key: str, *parts: np.ndarray) -> tuple[str, int]:
        """Publish a *growable* buffer under a caller-chosen session key.

        The buffer is the concatenation of ``parts`` (a delta session's
        prefix and tail).  Unlike :meth:`publish` (content-addressed, one
        immutable segment per distinct byte string), a session segment is
        updated in place: when the parts extend the previously published
        bytes, only the new bytes are copied — O(|Δ|) per delta run instead
        of O(n).  The segment is over-allocated 2× so repeated appends
        amortize; past capacity a larger segment replaces it (workers
        re-attach by the new name; the old segment is unlinked but stays
        mapped wherever it is still open).
        """
        flats = _flat_parts(parts)
        nbytes = sum(int(flat.size) for flat in flats)
        with self._lock:
            entry = self._sessions.get(key)
            if entry is not None:
                shm, written = entry
                written = min(written, nbytes)
                if shm.size >= nbytes:
                    _copy_parts(shm, flats, written, nbytes)
                    self.session_tail_bytes += nbytes - written
                    self._sessions[key] = (shm, nbytes)
                    return shm.name, nbytes
                # outgrew capacity: migrate to a doubled segment (full copy)
                close_shm_segment(shm, unlink=True)
            shm = create_shm_segment(max(2 * nbytes, 1))
            _copy_parts(shm, flats, 0, nbytes)
            self.session_full_bytes += nbytes
            self._sessions[key] = (shm, nbytes)
            return shm.name, nbytes

    def publish(self, *parts: np.ndarray) -> tuple[str, int]:
        """Copy the concatenation of ``parts`` into a shared segment (once);
        returns ``(name, nbytes)``."""
        flats = _flat_parts(parts)
        digest = hashlib.sha256()
        for flat in flats:
            digest.update(flat)
        key = digest.hexdigest()
        nbytes = sum(int(flat.size) for flat in flats)
        with self._lock:
            shm = self._entries.get(key)
            if shm is None:
                shm = create_shm_segment(nbytes)
                _copy_parts(shm, flats, 0, nbytes)
                self._entries[key] = shm
            return shm.name, nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def names(self) -> list[str]:
        """Names of the live segments (tests assert they vanish on close)."""
        with self._lock:
            return [shm.name for shm in self._entries.values()] + [
                shm.name for shm, _ in self._sessions.values()
            ]

    def close(self) -> None:
        """Unlink and close every published segment.  Idempotent."""
        with self._lock:
            entries, self._entries = list(self._entries.values()), {}
            sessions, self._sessions = list(self._sessions.values()), {}
        for shm in entries:
            close_shm_segment(shm, unlink=True)
        for shm, _ in sessions:
            close_shm_segment(shm, unlink=True)
