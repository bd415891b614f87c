"""Shared-memory parallelization techniques for the reduction object.

The paper (§III-A): "the results from multiple threads in a single node are
combined locally **depending on the shared memory technique chosen by the
application developer**."  The FREERIDE line of work (Jin & Agrawal, SDM'02)
defines the techniques we reproduce:

``FULL_REPLICATION``
    each thread updates a private copy of the reduction object; copies are
    merged after the local reduction ends.  No synchronization during
    processing; memory cost scales with the number of threads.
``FULL_LOCKING``
    one shared copy; every element update acquires that element's lock.
``OPTIMIZED_FULL_LOCKING``
    same locking granularity, but each lock is co-located with its element
    (one cache miss instead of two).  Functionally identical to full locking;
    the difference is priced by the cost model.
``CACHE_SENSITIVE_LOCKING``
    one lock per cache block of elements (8 float64 elements per 64-byte
    line), reducing the number of locks and false sharing.
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
"""

from __future__ import annotations

import enum
import hashlib
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory as mp_shm
from typing import Callable, Iterable

import numpy as np

from repro.freeride.combination import (
    PARALLEL_MERGE_THRESHOLD_BYTES,
    CombinationStats,
    combine,
)
from repro.freeride.reduction_object import (
    ACCUMULATE_OPS,
    _MERGE_UFUNC,
    DirectStore,
    ReductionObject,
    aligned_empty,
)
from repro.util.errors import FreerideError

__all__ = [
    "SharedMemTechnique",
    "SharedMemStats",
    "ROAccessor",
    "ReplicatedAccessor",
    "LockingAccessor",
    "ColoredAccessor",
    "ScratchAccessor",
    "SharedMemManager",
    "SharedBufferCache",
    "create_shm_segment",
    "attach_shm_segment",
    "close_shm_segment",
    "ELEMS_PER_CACHE_LINE",
]

#: 64-byte cache line / 8-byte float64 elements.
ELEMS_PER_CACHE_LINE = 8


class SharedMemTechnique(enum.Enum):
    """Which shared-memory technique guards reduction-object updates."""

    FULL_REPLICATION = "full_replication"
    FULL_LOCKING = "full_locking"
    OPTIMIZED_FULL_LOCKING = "optimized_full_locking"
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
    """Synchronization accounting, consumed by the cost model."""

    technique: SharedMemTechnique = SharedMemTechnique.FULL_REPLICATION
    lock_acquisitions: int = 0
    private_copies: int = 0
    merge_elements: int = 0  # elements merged during local combination
    num_locks: int = 0
    #: reduction-object memory footprint: replication pays one copy per
    #: thread, the locking techniques share one copy (the classic tradeoff)
    ro_memory_bytes: int = 0

    def add(self, other: "SharedMemStats") -> None:
        self.lock_acquisitions += other.lock_acquisitions
        self.private_copies += other.private_copies
        self.merge_elements += other.merge_elements
        self.num_locks += other.num_locks
        self.ro_memory_bytes += other.ro_memory_bytes


class ROAccessor:
    """A thread's handle for updating the reduction object."""

    stats: SharedMemStats

    def accumulate(self, group: int, elem: int, value: float, op=None) -> None:
        raise NotImplementedError

    def accumulate_group(self, group: int, values: np.ndarray) -> None:
        raise NotImplementedError

    def accumulate_batch(
        self,
        groups,
        elems,
        values,
        op: str = "add",
        mask: np.ndarray | None = None,
        lanes: int | None = None,
    ) -> None:
        """Vectorized per-lane updates (see
        :meth:`ReductionObject.accumulate_batch`); used by batch kernels."""
        raise NotImplementedError

    def merge_from_scratch(
        self,
        scratch: ReductionObject,
        groups: "Iterable[int] | None" = None,
    ) -> None:
        """Commit a per-split scratch reduction object in one atomic step.

        The fault-tolerant engine processes each split attempt into a fresh
        scratch object and calls this only on success, so a failed or
        retried attempt never leaves partial accumulations behind.

        ``groups``, when given, restricts the commit to those group ids —
        the COLORED technique commits only the groups its coloring proved
        the split can touch, so concurrent same-wave commits never
        read-modify-write a group both left untouched.
        """
        raise NotImplementedError

    def direct_store(self) -> "DirectStore | None":
        """The buffers the calling lane may store into with no help from
        this accessor, or ``None`` when every store needs its synchronization.

        Lanes whose accessors hand out a direct store commute: each owns a
        private copy, or the wave schedule gives it exclusive cells.  A
        native kernel then reduces in one step — straight into the lane's
        reduction object — and reports the updates it made through
        :meth:`note_updates`; otherwise it runs into a private scratch
        object that is committed through :meth:`merge_from_scratch`.
        """
        return None

    def note_updates(self, count: int) -> None:
        """Account for ``count`` updates made through :meth:`direct_store`."""
        raise NotImplementedError


class ReplicatedAccessor(ROAccessor):
    """Full replication: updates go to a private copy, no locks."""

    def __init__(self, private_ro: ReductionObject, technique: SharedMemTechnique) -> None:
        self.ro = private_ro
        self.stats = SharedMemStats(
            technique=technique,
            private_copies=1,
            ro_memory_bytes=private_ro.nbytes,
        )

    def accumulate(self, group: int, elem: int, value: float, op=None) -> None:
        self.ro.accumulate(group, elem, value, op)

    def accumulate_group(self, group: int, values: np.ndarray) -> None:
        self.ro.accumulate_group(group, values)

    def accumulate_batch(
        self, groups, elems, values, op="add", mask=None, lanes=None
    ) -> None:
        self.ro.accumulate_batch(groups, elems, values, op, mask, lanes)

    def merge_from_scratch(self, scratch: ReductionObject, groups=None) -> None:
        # The private copy belongs to one thread; a plain merge is atomic
        # enough (the merge either happens wholly or not at all from the
        # combination phase's point of view).  ``groups`` needs no handling:
        # the scratch's untouched groups hold merge identities.
        self.ro.merge_from(scratch)

    def direct_store(self) -> DirectStore:
        return self.ro.direct_store()

    def note_updates(self, count: int) -> None:
        self.ro.note_updates(count)


class ScratchAccessor(ROAccessor):
    """Accessor over a private per-split scratch object — no locks, no stats.

    Handed to the reduction function while a fault policy is active; the
    engine commits the scratch through the real accessor's
    :meth:`ROAccessor.merge_from_scratch` only if the attempt succeeds.
    """

    def __init__(self, scratch_ro: ReductionObject) -> None:
        self.ro = scratch_ro
        self.stats = SharedMemStats()

    def accumulate(self, group: int, elem: int, value: float, op=None) -> None:
        self.ro.accumulate(group, elem, value, op)

    def accumulate_group(self, group: int, values: np.ndarray) -> None:
        self.ro.accumulate_group(group, values)

    def accumulate_batch(
        self, groups, elems, values, op="add", mask=None, lanes=None
    ) -> None:
        self.ro.accumulate_batch(groups, elems, values, op, mask, lanes)

    def direct_store(self) -> DirectStore:
        return self.ro.direct_store()

    def note_updates(self, count: int) -> None:
        self.ro.note_updates(count)


class ColoredAccessor(ROAccessor):
    """Conflict-free coloring: direct updates to the shared copy, no locks.

    Safe only under the engine's wave schedule — splits updating through
    these accessors concurrently have disjoint group sets, so no two
    threads ever touch the same cell.  The state the waves *would* share is
    the reduction object's ``update_count`` and the line-packed touched
    bitmap, flagged on every update (an identity-valued one leaves no other
    mark); each accessor therefore keeps its own tally and its own flags, and
    :meth:`SharedMemManager.finish` folds them into the shared object after
    the last wave.
    """

    def __init__(self, shared_ro: ReductionObject, technique: SharedMemTechnique) -> None:
        self.ro = shared_ro
        self.stats = SharedMemStats(technique=technique)
        #: accessor-local update tally, folded into the shared RO at finish()
        self.updates = 0
        shared = shared_ro.direct_store()
        #: accessor-local touched flags, folded in at finish() like the tally
        self.touched = aligned_empty(shared.touched.size, bool)
        self.touched[:] = False
        self._store = DirectStore(
            shared.elements, self.touched,
            shared.offsets, shared.nelems, shared.opcodes,
        )

    def accumulate(self, group: int, elem: int, value: float, op=None) -> None:
        meta, idx = self.ro._cell(group, elem, op)
        ACCUMULATE_OPS[meta.op](self.ro._buffer, idx, value)
        self.touched[meta.group_id] = True
        self.updates += 1

    def accumulate_group(self, group: int, values: np.ndarray) -> None:
        meta = self.ro._meta(group)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (meta.num_elems,):
            raise FreerideError(
                f"group {group} expects {meta.num_elems} values, got {values.shape}"
            )
        sl = slice(meta.offset, meta.offset + meta.num_elems)
        ufunc = _MERGE_UFUNC[meta.op]
        self.ro._buffer[sl] = ufunc(self.ro._buffer[sl], values)
        self.touched[meta.group_id] = True
        self.updates += meta.num_elems

    def accumulate_batch(
        self, groups, elems, values, op="add", mask=None, lanes=None
    ) -> None:
        idx, v = self.ro.batch_cells(groups, elems, values, op, mask, lanes)
        if idx.size == 0:
            return
        _MERGE_UFUNC[op].at(self.ro._buffer, idx, v)
        self.touched[self.ro.groups_of(idx)] = True
        self.updates += int(idx.size)

    def merge_from_scratch(self, scratch: ReductionObject, groups=None) -> None:
        # Commit only the groups the coloring proved this split touches:
        # a full merge would read-modify-write groups concurrent same-wave
        # commits also leave untouched, racing on their cells.
        gids = range(self.ro.num_groups) if groups is None else groups
        for g in gids:
            self.ro.merge_group_from(g, scratch)
        self.updates += scratch.update_count

    def direct_store(self) -> DirectStore:
        return self._store

    def note_updates(self, count: int) -> None:
        self.updates += count


class _LockTable:
    """Maps (group, elem) cells to lock indices for a locking technique."""

    def __init__(self, ro: ReductionObject, technique: SharedMemTechnique) -> None:
        self.technique = technique
        if technique is SharedMemTechnique.CACHE_SENSITIVE_LOCKING:
            num_locks = (ro.size + ELEMS_PER_CACHE_LINE - 1) // ELEMS_PER_CACHE_LINE
        else:  # one lock per element
            num_locks = ro.size
        self.num_locks = max(1, num_locks)
        self.locks = [threading.Lock() for _ in range(self.num_locks)]
        #: guards non-element metadata (e.g. the shared update counter)
        self.meta_lock = threading.Lock()
        # Precompute each group's element offset to index the flat lock array.
        self._group_offsets = [ro._meta(g).offset for g in range(ro.num_groups)]

    def lock_index(self, group: int, elem: int, group_offset: int) -> int:
        flat = group_offset + elem
        if self.technique is SharedMemTechnique.CACHE_SENSITIVE_LOCKING:
            return flat // ELEMS_PER_CACHE_LINE
        return flat

    def group_lock_indices(self, group: int, num_elems: int) -> range:
        off = self._group_offsets[group]
        if self.technique is SharedMemTechnique.CACHE_SENSITIVE_LOCKING:
            first = off // ELEMS_PER_CACHE_LINE
            last = (off + num_elems - 1) // ELEMS_PER_CACHE_LINE
            return range(first, last + 1)
        return range(off, off + num_elems)


class LockingAccessor(ROAccessor):
    """Locking techniques: updates hit the shared copy under locks."""

    def __init__(
        self,
        shared_ro: ReductionObject,
        table: _LockTable,
        technique: SharedMemTechnique,
    ) -> None:
        self.ro = shared_ro
        self._table = table
        self.stats = SharedMemStats(technique=technique, num_locks=table.num_locks)

    def accumulate(self, group: int, elem: int, value: float, op=None) -> None:
        off = self._table._group_offsets[group]
        idx = self._table.lock_index(group, elem, off)
        with self._table.locks[idx]:
            self.ro.accumulate(group, elem, value, op)
        self.stats.lock_acquisitions += 1

    def accumulate_group(self, group: int, values: np.ndarray) -> None:
        meta = self.ro._meta(group)
        indices = self._table.group_lock_indices(group, meta.num_elems)
        # Acquire all covering locks in index order (deadlock-free), update,
        # release.  A vectorized group update under cache-sensitive locking
        # touches ceil(n/8) locks; under full locking, n locks.
        acquired = []
        try:
            for i in indices:
                self._table.locks[i].acquire()
                acquired.append(i)
            self.ro.accumulate_group(group, values)
        finally:
            for i in reversed(acquired):
                self._table.locks[i].release()
        self.stats.lock_acquisitions += len(acquired)

    def accumulate_batch(
        self, groups, elems, values, op="add", mask=None, lanes=None
    ) -> None:
        idx, v = self.ro.batch_cells(groups, elems, values, op, mask, lanes)
        if idx.size == 0:
            return
        # Cover every touched cell's lock, acquired in ascending index order
        # (deadlock-free against concurrent batch updates and commits), then
        # apply the whole batch and release in reverse.
        if self._table.technique is SharedMemTechnique.CACHE_SENSITIVE_LOCKING:
            lock_indices = np.unique(idx // ELEMS_PER_CACHE_LINE)
        else:
            lock_indices = np.unique(idx)
        acquired = []
        try:
            for i in lock_indices.tolist():
                self._table.locks[i].acquire()
                acquired.append(i)
            self.ro.apply_batch(idx, v, op)
        finally:
            for i in reversed(acquired):
                self._table.locks[i].release()
        self.stats.lock_acquisitions += len(acquired)

    def merge_from_scratch(self, scratch: ReductionObject, groups=None) -> None:
        # Apply the scratch object group-by-group, each group under its
        # covering locks (acquired in ascending index order, so concurrent
        # commits cannot deadlock).  A group merge is one atomic unit: other
        # threads observe it entirely or not at all.
        gids = range(self.ro.num_groups) if groups is None else sorted(groups)
        for g in gids:
            meta = self.ro._meta(g)
            indices = self._table.group_lock_indices(g, meta.num_elems)
            acquired = []
            try:
                for i in indices:
                    self._table.locks[i].acquire()
                    acquired.append(i)
                self.ro.merge_group_from(g, scratch)
            finally:
                for i in reversed(acquired):
                    self._table.locks[i].release()
            self.stats.lock_acquisitions += len(acquired)
        with self._table.meta_lock:
            self.ro.update_count += scratch.update_count


class SharedMemManager:
    """Creates per-thread accessors and finishes the local combination.

    Usage::

        mgr = SharedMemManager(technique)
        accessors = mgr.setup(base_ro, num_threads)
        ... each thread t updates accessors[t] ...
        ro, sm_stats, lc_stats = mgr.finish(base_ro, accessors)
    """

    def __init__(self, technique: SharedMemTechnique | str) -> None:
        self.technique = SharedMemTechnique.parse(technique)

    def setup(self, base_ro: ReductionObject, num_threads: int) -> list[ROAccessor]:
        if num_threads <= 0:
            raise FreerideError("num_threads must be positive")
        base_ro.freeze_layout()
        if self.technique is SharedMemTechnique.FULL_REPLICATION:
            return [
                ReplicatedAccessor(base_ro.clone_empty(), self.technique)
                for _ in range(num_threads)
            ]
        if self.technique is SharedMemTechnique.COLORED:
            # One shared copy, zero locks — safe only under a wave schedule
            # (the engine guarantees concurrently-running splits touch
            # disjoint group sets).
            return [
                ColoredAccessor(base_ro, self.technique)
                for _ in range(num_threads)
            ]
        table = _LockTable(base_ro, self.technique)
        return [
            LockingAccessor(base_ro, table, self.technique)
            for _ in range(num_threads)
        ]

    def finish(
        self,
        base_ro: ReductionObject,
        accessors: list[ROAccessor],
        combination: "Callable[[list[ReductionObject]], ReductionObject] | None" = None,
        parallel_merge_threshold: int = PARALLEL_MERGE_THRESHOLD_BYTES,
    ) -> tuple[ReductionObject, SharedMemStats, CombinationStats]:
        """Run the local combination phase.

        Returns ``(combined RO, shared-memory stats, combination stats)``.
        This is the single accounting path for local combination — the
        engine calls it too, so ``num_locks``, ``ro_memory_bytes`` and
        ``merge_elements`` are reported identically everywhere.

        ``combination``, when given (full replication only), is the
        application's custom ``combination_t``: it receives the per-thread
        copies and must return a :class:`ReductionObject`, which is then
        merged into ``base_ro``.  The per-thread copies are never mutated
        by the default combination.
        """
        total = SharedMemStats(technique=self.technique)
        for acc in accessors:
            total.add(acc.stats)
        # Accessors of a locking technique share one lock table; report the
        # table size, not the per-accessor sum.
        total.num_locks = max((acc.stats.num_locks for acc in accessors), default=0)
        if self.technique is SharedMemTechnique.COLORED:
            # Fold the accessor-local update tallies the wave schedule kept
            # off the shared object (see ColoredAccessor).
            for acc in accessors:
                base_ro.update_count += acc.updates  # type: ignore[attr-defined]
                base_ro._touched |= acc.touched  # type: ignore[attr-defined]
        if self.technique is not SharedMemTechnique.FULL_REPLICATION:
            total.ro_memory_bytes = base_ro.nbytes  # one shared copy
            # Locking and colored techniques already updated base_ro in place.
            return base_ro, total, CombinationStats(strategy="in_place")

        copies = [acc.ro for acc in accessors]  # type: ignore[attr-defined]
        if combination is not None:
            combined = combination(copies)
            if not isinstance(combined, ReductionObject):
                raise FreerideError("custom combination must return a ReductionObject")
            base_ro.merge_from(combined)
            lc_stats = CombinationStats(
                strategy="custom",
                merges=len(copies),
                rounds=1,
                elements_merged=base_ro.size * len(copies),
            )
        else:
            _, lc_stats = combine(copies, parallel_merge_threshold, target=base_ro)
        total.merge_elements += lc_stats.elements_merged
        return base_ro, total, lc_stats


# -- process-mode shared-memory segments ----------------------------------------
#
# The ``"process"`` executor extends full replication across address spaces:
# the parent publishes the linearized dataset into a POSIX shared-memory
# segment once, workers attach it zero-copy, and per-worker reduction-object
# replicas live in a second segment the parent wraps (and merges through the
# ordinary ``combine()`` tree) after the workers return.


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

    def publish_session(
        self, key: str, arr: np.ndarray, valid_prefix: int | None = None
    ) -> tuple[str, int]:
        """Publish a *growable* buffer under a caller-chosen session key.

        Unlike :meth:`publish` (content-addressed, one immutable segment
        per distinct byte string), a session segment is updated in place:
        when ``arr`` extends the previously published bytes, only the new
        tail is copied — O(|Δ|) per delta run instead of O(n).  The
        segment is over-allocated 2× so repeated appends amortize; past
        capacity a larger segment replaces it (workers re-attach by the
        new name; the old segment is unlinked but stays mapped wherever
        it is still open).

        ``valid_prefix`` caps how many previously published bytes are
        trusted — after a rolled-back delta shrank the dataset, bytes past
        the rollback point are stale and are rewritten.
        """
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:
            raise FreerideError("can only publish C-contiguous buffers")
        flat = arr.reshape(-1).view(np.uint8)
        nbytes = int(flat.size)
        with self._lock:
            entry = self._sessions.get(key)
            if entry is not None:
                shm, written = entry
                if valid_prefix is not None:
                    written = min(written, int(valid_prefix))
                written = min(written, nbytes)
                if shm.size >= nbytes:
                    if nbytes > written:
                        dst = np.ndarray((nbytes,), dtype=np.uint8, buffer=shm.buf)
                        dst[written:nbytes] = flat[written:nbytes]
                        del dst
                        self.session_tail_bytes += nbytes - written
                    self._sessions[key] = (shm, nbytes)
                    return shm.name, nbytes
                # outgrew capacity: migrate to a doubled segment (full copy)
                new = create_shm_segment(max(2 * nbytes, 1))
                if nbytes:
                    dst = np.ndarray((nbytes,), dtype=np.uint8, buffer=new.buf)
                    dst[:] = flat
                    del dst
                self.session_full_bytes += nbytes
                close_shm_segment(shm, unlink=True)
                self._sessions[key] = (new, nbytes)
                return new.name, nbytes
            shm = create_shm_segment(max(2 * nbytes, 1))
            if nbytes:
                dst = np.ndarray((nbytes,), dtype=np.uint8, buffer=shm.buf)
                dst[:] = flat
                del dst
            self.session_full_bytes += nbytes
            self._sessions[key] = (shm, nbytes)
            return shm.name, nbytes

    def publish(self, arr: np.ndarray) -> tuple[str, int]:
        """Copy ``arr`` into a shared segment (once); returns ``(name, nbytes)``."""
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:
            raise FreerideError("can only publish C-contiguous buffers")
        flat = arr.reshape(-1).view(np.uint8)
        key = hashlib.sha256(flat).hexdigest()
        with self._lock:
            shm = self._entries.get(key)
            if shm is None:
                shm = create_shm_segment(arr.nbytes)
                if arr.nbytes:
                    dst = np.ndarray((arr.nbytes,), dtype=np.uint8, buffer=shm.buf)
                    dst[:] = flat
                    del dst
                self._entries[key] = shm
            return shm.name, arr.nbytes

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
