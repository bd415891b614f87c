"""Incremental delta execution: O(|Δ|) append/retract over a baseline run.

The batch pipeline (linearize → split → accumulate → combine) recomputes
the whole reduction whenever the dataset changes.  This module holds the
state that lets :meth:`repro.freeride.runtime.FreerideEngine.run_delta`
update the committed reduction object in work proportional to the change:

:class:`DeltaSession`
    the handle ``run_baseline`` returns — the committed
    :class:`~repro.freeride.reduction_object.ReductionObject`, a liveness
    bitmap over the (logical) element positions, and the checkpoint ring.
    Retraction is *logical* (tombstones): positions never shift, so
    position-dependent kernels (e.g. windowed's ``elemIdx() / win`` group
    form) stay valid and a delta result is comparable element-for-element
    with a cold run over the surviving elements at their original
    positions.

:class:`ROCheckpoint`
    a bounded ring of per-epoch copy-on-write group snapshots.  Before a
    delta batch mutates a group, its pre-image is saved once per epoch;
    a batch that fails mid-commit rolls back in O(groups touched), and the
    sealed ring reconstructs the reduction object as of any retained epoch
    (windowed / streaming queries) without ever copying untouched groups.

Invertibility decides the retract strategy per group (see
:data:`~repro.freeride.reduction_object.INVERTIBLE_ACCUMULATE_OPS` and the
RS034/RS035 diagnostics): ``add`` groups subtract the retracted
contributions directly; min/max groups re-reduce from the surviving
elements, restricted to the groups the effect summary
(:meth:`~repro.compiler.groupbounds.GroupBounds.groups_for_range`) proves
a retracted range can touch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.freeride.reduction_object import (
    INVERTIBLE_ACCUMULATE_OPS,
    OP_CODES,
    ReductionObject,
)
from repro.util.errors import FreerideError
from repro.util.validation import check_positive_int

__all__ = [
    "DeltaSession",
    "ROCheckpoint",
    "contiguous_runs",
    "mask_runs",
]


def contiguous_runs(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a sorted, unique index array into ``[starts[i], ends[i])`` runs.

    Both results are C-contiguous int64 arrays — the form every
    ``reduce_ranges`` hook takes, so a run list is never a Python list.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return indices, indices.copy()
    breaks = np.flatnonzero(np.diff(indices) != 1) + 1
    starts = indices[np.concatenate(([0], breaks))]
    ends = indices[np.concatenate((breaks - 1, [indices.size - 1]))] + 1
    return starts, ends


def mask_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal ``[starts[i], ends[i])`` runs of True in a boolean mask."""
    padded = np.zeros(mask.size + 2, dtype=np.int8)
    padded[1:-1] = mask
    edges = np.diff(padded)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


@dataclass
class _EpochRecord:
    """Pre-images of everything one delta epoch mutated."""

    epoch: int
    #: group id -> (values before this epoch's commit, touched bit before)
    groups: dict[int, tuple[np.ndarray, bool]] = field(default_factory=dict)
    update_count: int = 0
    n_elements: int = 0
    live_count: int = 0


class ROCheckpoint:
    """Bounded ring of copy-on-write reduction-object snapshots.

    ``begin(epoch, ro, ...)`` opens a record; :meth:`save_group` copies a
    group's pre-image the *first* time the epoch touches it (later saves of
    the same group are counted as ``hits`` — the COW dedup the delta
    counters report).  :meth:`rollback` restores the open record and drops
    it; :meth:`commit` seals it into the ring, evicting the oldest record
    past ``capacity``.  :meth:`restore` rebuilds the full object as of any
    epoch still covered by the ring.
    """

    def __init__(self, capacity: int = 8) -> None:
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self._ring: deque[_EpochRecord] = deque()
        self._open: _EpochRecord | None = None
        #: pre-image copies actually taken (one per (epoch, group))
        self.saves = 0
        #: save_group calls answered by an existing pre-image (COW dedup)
        self.hits = 0

    # -- epoch lifecycle ------------------------------------------------------

    def begin(
        self, epoch: int, ro: ReductionObject, *, n_elements: int, live_count: int
    ) -> None:
        if self._open is not None:
            raise FreerideError(
                f"checkpoint epoch {self._open.epoch} still open; "
                "commit or roll back before beginning another"
            )
        self._open = _EpochRecord(
            epoch=epoch,
            update_count=ro.update_count,
            n_elements=n_elements,
            live_count=live_count,
        )

    def save_group(self, ro: ReductionObject, group: int) -> None:
        """Save a group's pre-image once per open epoch (copy-on-write)."""
        rec = self._require_open()
        if group in rec.groups:
            self.hits += 1
            return
        rec.groups[group] = (ro.get_group(group), ro.is_touched(group))
        self.saves += 1

    def rollback(self, ro: ReductionObject) -> tuple[int, int, int]:
        """Undo the open epoch; returns ``(groups_restored, n_elements, live)``.

        O(groups touched): only saved pre-images are written back.  The
        record is discarded — the failed epoch never enters the ring.
        """
        rec = self._require_open()
        for group, (values, touched) in rec.groups.items():
            ro.set_group(group, values, touched)
        ro.update_count = rec.update_count
        self._open = None
        return len(rec.groups), rec.n_elements, rec.live_count

    def commit(self) -> None:
        """Seal the open epoch into the ring (evicting past capacity)."""
        rec = self._require_open()
        self._ring.append(rec)
        self._open = None
        while len(self._ring) > self.capacity:
            self._ring.popleft()

    def _require_open(self) -> _EpochRecord:
        if self._open is None:
            raise FreerideError("no checkpoint epoch open")
        return self._open

    # -- windowed / streaming queries -----------------------------------------

    def epochs(self) -> list[int]:
        """Sealed epochs currently retained, oldest first."""
        return [rec.epoch for rec in self._ring]

    def restorable_epochs(self, current_epoch: int) -> list[int]:
        """Epochs :meth:`restore` can rebuild, oldest first.

        The record sealed for epoch ``e`` holds the pre-images of what ``e``
        changed, so the state *as of the end of* epoch ``e - 1`` is
        reachable while that record is retained.
        """
        reachable = [current_epoch]
        for rec in reversed(self._ring):
            if rec.epoch != reachable[-1]:
                break
            reachable.append(rec.epoch - 1)
        return sorted(reachable)

    def restore(
        self, ro: ReductionObject, epoch: int, current_epoch: int
    ) -> ReductionObject:
        """Rebuild the reduction object as of the end of ``epoch``.

        Copies the current object, then walks the ring from newest to
        oldest applying the pre-images of every sealed epoch after the
        target — the oldest applicable pre-image of each group wins, which
        is exactly its value when the target epoch ended.
        """
        if epoch not in self.restorable_epochs(current_epoch):
            raise FreerideError(
                f"epoch {epoch} is outside the checkpoint ring "
                f"(restorable: {self.restorable_epochs(current_epoch)})"
            )
        past = ro.copy()
        for rec in reversed(self._ring):
            if rec.epoch <= epoch:
                break
            for group, (values, touched) in rec.groups.items():
                past.set_group(group, values, touched)
            past.update_count = rec.update_count
        return past

    @property
    def retained_groups(self) -> int:
        """Total group pre-images held by the sealed ring (memory gauge)."""
        return sum(len(rec.groups) for rec in self._ring)


@dataclass
class DeltaSession:
    """A baseline run plus the state needed to apply deltas to it.

    Produced by :meth:`~repro.freeride.runtime.FreerideEngine.run_baseline`
    and threaded through every
    :meth:`~repro.freeride.runtime.FreerideEngine.run_delta` call.  The
    session owns the committed reduction object; retracted elements are
    tombstoned in :attr:`live` (positions never shift).
    """

    #: the committed reduction object (mutated in place by deltas)
    ro: ReductionObject
    #: total logical positions, including tombstoned (retracted) ones
    n_elements: int
    #: liveness bitmap over ``[0, n_elements)`` — a view of a
    #: capacity-doubled backing that epochs flip in place
    #: (:meth:`advance_liveness` / :meth:`rewind_liveness`)
    live: np.ndarray
    #: delta epochs applied so far (0 = baseline only)
    epoch: int
    #: checkpoint ring for rollback and windowed queries
    checkpoints: ROCheckpoint
    #: rebuilds ``(spec, data)`` over the current dataset — compiled
    #: sessions re-run ``make_spec`` after the buffer grows, manual
    #: sessions re-bind the stored array
    respec: Callable[["DeltaSession", tuple[int, int] | None], tuple[Any, Any]]
    #: appends rows to the dataset, returning the new ``n_elements``
    extend: Callable[["DeltaSession", Any], int]
    #: rolls the dataset back to ``n_elements`` positions (failed batch)
    shrink: Callable[["DeltaSession", int], None]
    #: manual-spec sessions keep the raw data array here (compiled sessions
    #: keep theirs inside the bound kernel's linearized buffer)
    data: Any = None
    #: finalize hook forwarded to make_spec on every delta (compiled only)
    finalize: Any = None
    #: stable key for shared-memory tail republish (process executor)
    shm_key: str | None = None
    #: True for sessions over a compiled ``BoundReduction`` — the append
    #: pass then rides the full executor pipeline; manual-spec sessions
    #: compute deltas with a parent-side serial pass instead
    compiled: bool = False
    #: per-epoch commit attempt counters (the fault-injection seam mirrors
    #: split retry semantics: a rolled-back epoch re-tried by the caller
    #: counts as attempt 2, so ``fail_attempts`` bounds how long it fails)
    commit_attempts: dict[int, int] = field(default_factory=dict)
    #: delta epochs that failed mid-commit and were rolled back
    rollbacks: int = 0
    #: surviving elements, maintained by the liveness updates
    live_count: int = field(init=False)
    #: groups whose op has no inverse (min/max): a retraction that touches
    #: one replays it.  Fixed by the layout, so read once per session from
    #: the interned opcode table.
    noninvertible: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        self._live = self.live
        self.live_count = int(np.count_nonzero(self.live))
        invertible = [OP_CODES[op] for op in INVERTIBLE_ACCUMULATE_OPS]
        opcodes = self.ro.direct_store().opcodes
        self.noninvertible = frozenset(
            np.flatnonzero(~np.isin(opcodes, invertible)).tolist()
        )

    def live_runs(
        self, blocks: "Sequence[tuple[int, int]] | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Maximal runs of surviving elements, in position order.

        With ``blocks`` — ordered, disjoint ``(start, end)`` position pairs
        — only the runs inside them, cut at block boundaries, in work
        proportional to the blocks' sizes.
        """
        starts = [np.empty(0, dtype=np.int64)]
        ends = [np.empty(0, dtype=np.int64)]
        for start, end in [(0, self.live.size)] if blocks is None else blocks:
            first, last = mask_runs(self.live[start:end])
            starts.append(first + start)
            ends.append(last + start)
        return np.concatenate(starts), np.concatenate(ends)

    def advance_liveness(self, new_n: int, retract_idx: np.ndarray) -> None:
        """Extend :attr:`live` to ``new_n`` positions and tombstone
        ``retract_idx`` (validated by :meth:`normalize_retract`), in place."""
        old_n = self.live.size
        if new_n > self._live.size:
            grown = np.empty(max(new_n, 2 * self._live.size), dtype=bool)
            grown[:old_n] = self.live
            self._live = grown
        self.live = self._live[:new_n]
        self.live[old_n:] = True
        self.live[retract_idx] = False
        self.live_count += new_n - old_n - int(retract_idx.size)

    def rewind_liveness(
        self, old_n: int, old_count: int, retract_idx: np.ndarray
    ) -> None:
        """Undo :meth:`advance_liveness` from the same indices (failed epoch).

        Safe to call when the epoch failed before advancing: the indices
        were live when it began, so re-marking them changes nothing.
        """
        self.live[retract_idx] = True
        self.live = self._live[:old_n]
        self.live_count = old_count

    def normalize_retract(
        self, retract: "Sequence[int] | np.ndarray | None"
    ) -> np.ndarray:
        """Validate retract positions: sorted, unique, in range, currently live.

        Takes a 1-D sequence of integers in any order, duplicates allowed.
        A boolean mask, fractional positions or a nested index array would
        convert to *some* int64 array — and retract the wrong elements — so
        they are refused by dtype and shape.
        """
        if retract is None:
            return np.empty(0, dtype=np.int64)
        idx = np.asarray(retract)
        if idx.ndim != 1 or (
            idx.size and not np.issubdtype(idx.dtype, np.integer)
        ):
            raise FreerideError(
                "retract= takes a 1-D sequence of integer element positions "
                f"(np.flatnonzero(mask) for a boolean mask), got dtype "
                f"{idx.dtype} with shape {idx.shape}"
            )
        idx = idx.astype(np.int64, copy=False)
        if idx.size == 0:
            return idx
        if np.any(idx[1:] <= idx[:-1]):
            idx = np.unique(idx)
        if idx[0] < 0 or idx[-1] >= self.n_elements:
            raise FreerideError(
                f"retract index out of range [0, {self.n_elements})"
            )
        dead = ~self.live[idx]
        if np.any(dead):
            raise FreerideError(
                f"retract of already-retracted element(s) "
                f"{idx[dead][:5].tolist()}"
            )
        return idx

    def ro_at(self, epoch: int) -> ReductionObject:
        """The reduction object as of the end of ``epoch`` (ring-bounded)."""
        return self.checkpoints.restore(self.ro, epoch, self.epoch)
