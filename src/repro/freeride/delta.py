"""Incremental delta execution: O(|Δ|) append/retract over a baseline run.

The batch pipeline (linearize → split → accumulate → combine) recomputes
the whole reduction whenever the dataset changes.  This module holds the
state — and the epoch walk over it — that lets
:meth:`repro.freeride.runtime.FreerideEngine.run_delta` update the
committed reduction object in work proportional to the change:

:class:`DeltaSession`
    the handle ``run_baseline`` returns — the committed
    :class:`~repro.freeride.reduction_object.ReductionObject`, the dataset
    it was reduced from, a liveness bitmap over the (logical) element
    positions, and the checkpoint ring.  :meth:`DeltaSession.apply` walks
    one epoch over that state: append → retract → replay → checkpointed
    commit, with rollback and rewind when any of it fails.
    Retraction is *logical* (tombstones): positions never shift, so
    position-dependent kernels (e.g. windowed's ``elemIdx() / win`` group
    form) stay valid and a delta result is comparable element-for-element
    with a cold run over the surviving elements at their original
    positions.

:class:`ManualDataset`
    a hand-written ``(spec, data)`` pair behind the four dataset members
    of a :class:`~repro.compiler.translate.BoundReduction`
    (``make_spec``, ``append_elements``, ``truncate_elements``,
    ``n_elements``), so a session holds either kind as its ``source``.

:class:`ROCheckpoint`
    a bounded ring of per-epoch copy-on-write group snapshots.  Before a
    delta batch mutates a group, its pre-image is saved once per epoch;
    a batch that fails mid-commit rolls back in O(groups touched), and the
    sealed ring reconstructs the reduction object as of any retained epoch
    (windowed / streaming queries) without ever copying untouched groups.

Where the native runtime exists, an epoch's bookkeeping — the retraction's
checks, tombstones and runs, the replay's live runs and the checkpointed
commit — runs in C (``compiler/native/epoch.c``), through the
:class:`NativeEpoch` a session binds once; elsewhere the same steps run in
NumPy, which is the C's reference, bit for bit.

Invertibility decides the retract strategy per group (see
:data:`~repro.freeride.reduction_object.INVERTIBLE_ACCUMULATE_OPS` and the
RS034/RS035 diagnostics): ``add`` groups subtract the retracted
contributions directly; min/max groups re-reduce from the surviving
elements — only the blocks :func:`blocks_reaching` finds, by asking the
spec's ``group_bounds`` (a compiled spec's effect summary) which groups
each block of positions can touch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.freeride.reduction_object import ReductionObject
from repro.freeride.spec import ReductionSpec
from repro.util.errors import FreerideError
from repro.util.validation import check_positive_int

if TYPE_CHECKING:
    from repro.freeride.faults import FaultInjector
    from repro.obs.tracer import NullTracer, Tracer

__all__ = [
    "CHECKPOINT_RING_DEPTH",
    "DELTA_COMMIT_SPLIT_ID",
    "REPLAY_PROBE_LEAF",
    "DeltaSession",
    "EpochReport",
    "ManualDataset",
    "NativeEpoch",
    "ROCheckpoint",
    "blocks_reaching",
    "contiguous_runs",
    "mask_runs",
    "use_epoch_runtime",
]

#: pseudo split id the delta commit reports to a configured
#: :class:`~repro.freeride.faults.FaultInjector` — real splits are numbered
#: from 0, so ``FaultInjector(fail_split_ids={DELTA_COMMIT_SPLIT_ID},
#: fail_attempts=n)`` makes the first ``n`` commit attempts of a delta
#: epoch fail mid-commit (exercising checkpoint rollback) without touching
#: ordinary split processing.
DELTA_COMMIT_SPLIT_ID = -1

#: epochs a session's checkpoint ring retains (``ro_at`` reaches this far back)
CHECKPOINT_RING_DEPTH = 8

#: smallest block :func:`blocks_reaching` asks about when the bounds carry
#: no alignment hint — below this, asking costs more than just re-reducing
#: the elements
REPLAY_PROBE_LEAF = 16

_NO_GROUPS = np.empty(0, dtype=np.int64)

# A warm epoch makes no call into NumPy's Python layer: ``np.any`` and the
# ``.any()``/``.all()``/``.sum()`` methods all run a Python function in
# ``numpy/_core`` before the ufunc reduction these call directly.
_any = np.logical_or.reduce
_all = np.logical_and.reduce
_sum = np.add.reduce


def _no_runtime() -> None:
    return None


#: ``() -> runtime | None``: where a session finds the native epoch loops
_epoch_runtime: Callable[[], Any] = _no_runtime


def use_epoch_runtime(landed: Callable[[], Any]) -> None:
    """Take the epoch loops from ``landed()``: the process's native runtime
    once it is there (its ``ffi`` and ``epoch.c``'s four entries), else
    None.  The native tier installs its own when imported; until one is
    installed and has landed, every epoch runs the NumPy path."""
    global _epoch_runtime
    _epoch_runtime = landed


class NativeEpoch:
    """One session's ``struct freeride_epoch`` (``freeride.h``) and the C
    loops that take it: the retraction's checks, tombstones and runs, the
    replay's live runs, and the commit's two halves around the seam.

    Built once per session over its committed object, its three scratch
    objects and its liveness backing; a buffer the session replaces (a
    grown liveness backing, outgrown run arrays) is re-pointed by
    :meth:`point_live` and :meth:`room`.  A call passes the struct and, at
    most, one array of the caller's — nothing is marshalled per call.
    """

    def __init__(
        self, rt: Any, ro: ReductionObject, scratch: dict[str, ReductionObject],
        live: np.ndarray,
    ) -> None:
        ffi = rt.ffi
        #: the library stays loaded while its functions are held here
        self._rt = rt
        self.retract, self.live_runs = rt.retract, rt.live_runs
        self.commit_save, self.commit_apply = rt.commit_save, rt.commit_apply
        self.from_buffer, self.ll = ffi.from_buffer, ffi.typeof("long long[]")
        self._double, self._bool = ffi.typeof("double[]"), ffi.typeof("_Bool[]")
        codes = ffi.typeof("enum freeride_retract_rc").relements
        #: what :attr:`retract` returns for positions out of ascending order
        self.unsorted = codes["FREERIDE_UNSORTED"]
        roles = ffi.typeof("enum freeride_role").relements
        #: per scratch role, its bit of the commit's ``held``
        self.held = {role: 1 << roles[f"FREERIDE_{role.upper()}"] for role in scratch}
        tables = ro.freeze_layout()
        groups = len(tables.metas)
        #: per group, written by the commit: merged, hit, saved
        flags = np.zeros((3, groups), dtype=bool)
        #: the groups whose pre-images :attr:`values` / :attr:`bits` hold
        self.saved = flags[2]
        self.values = np.empty(tables.size, dtype=np.float64)
        self.bits = np.empty(groups, dtype=bool)
        self.ep = ep = ffi.new("struct freeride_epoch *")
        ep.off, ep.n, ep.op = (
            self.from_buffer(self.ll, table)
            for table in (tables.offsets, tables.nelems, tables.opcodes)
        )
        ep.identity = self.from_buffer(self._double, tables.identity)
        ep.groups = groups
        for role, obj in (("committed", ro), *scratch.items()):
            store, at = obj.direct_store(), roles[f"FREERIDE_{role.upper()}"]
            ep.acc[at] = self.from_buffer(self._double, store.elements)
            ep.touched[at] = self.from_buffer(self._bool, store.touched)
        ep.merged, ep.hit, ep.saved = (self.from_buffer(self._bool, row) for row in flags)
        ep.values = self.from_buffer(self._double, self.values)
        ep.bits = self.from_buffer(self._bool, self.bits)
        self.point_live(live)
        self.cap = 0
        self.room(64)

    def point_live(self, live: np.ndarray) -> None:
        """The session's liveness is now ``live`` (a grown backing)."""
        self._live = live
        self.ep.live = self.from_buffer(self._bool, live)

    def room(self, runs: int) -> None:
        """Make room for ``runs`` runs in :attr:`starts` / :attr:`ends`."""
        if runs <= self.cap:
            return
        self.cap = max(runs, 2 * self.cap)
        both = np.empty((2, self.cap), dtype=np.int64)
        #: where the loops cut their runs: a retraction's, then a replay's
        self.starts, self.ends = both
        ep = self.ep
        ep.starts, ep.ends = (self.from_buffer(self.ll, side) for side in both)
        ep.cap = self.cap


def contiguous_runs(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a sorted, unique index array into ``[starts[i], ends[i])`` runs.

    Both results are C-contiguous int64 arrays — the form every
    ``reduce_ranges`` hook takes, so a run list is never a Python list.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return indices, indices.copy()
    first = np.empty(indices.size, dtype=bool)  # does a run start here?
    first[0] = True
    np.not_equal(indices[1:], indices[:-1] + 1, out=first[1:])
    last = np.empty(indices.size, dtype=bool)  # ... or end here?
    last[:-1] = first[1:]
    last[-1] = True
    return indices[first], indices[last] + 1


def mask_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal ``[starts[i], ends[i])`` runs of True in a boolean mask."""
    padded = np.zeros(mask.size + 2, dtype=np.int8)
    padded[1:-1] = mask
    edges = padded[1:] - padded[:-1]
    return (edges == 1).nonzero()[0], (edges == -1).nonzero()[0]


def blocks_reaching(
    bounds: Any, targets: frozenset[int], n: int, num_groups: int
) -> list[tuple[int, int]]:
    """The blocks of positions ``[0, n)`` whose elements can touch ``targets``.

    The delta replay planner, over any ``bounds`` with ``groups_for_range``
    and optionally ``alignment`` (a compiled spec's effect summary): walks
    one binary tree over the positions asking each node's footprint — a
    node disjoint from ``targets`` is skipped, one inside them (or a leaf)
    taken whole, a mixed one descends.  Nodes are whole leaves
    (``alignment`` elements, else :data:`REPLAY_PROBE_LEAF`) under a root
    of a power of two of them, asked about unclipped (a sound superset):
    the questions depend on neither ``n`` nor liveness, so every epoch
    repeats them and the summary's memo answers.  Blocks come back in
    position order, adjacent ones merged.
    """
    leaf = getattr(bounds, "alignment", None) or REPLAY_PROBE_LEAF
    span = leaf
    while span < n:
        span *= 2
    blocks: list[tuple[int, int]] = []
    stack = [(0, span)]
    while stack:
        start, size = stack.pop()
        if start >= n:
            continue
        footprint = bounds.groups_for_range(start, start + size, num_groups)
        if footprint is not None and footprint.isdisjoint(targets):
            continue
        if footprint is None or size == leaf or footprint <= targets:
            end = min(start + size, n)
            if blocks and blocks[-1][1] == start:
                blocks[-1] = (blocks[-1][0], end)
            else:
                blocks.append((start, end))
        else:
            half = size // 2
            stack += [(start + half, half), (start, half)]
    return blocks


@dataclass
class _EpochRecord:
    """Pre-images of everything one delta epoch mutated."""

    epoch: int
    #: one bit per group of the layout: does this record hold its pre-image?
    saved: np.ndarray
    #: ``(group ids, their values before this epoch's commit, their touched
    #: bits before)``, one entry per save that found new groups; disjoint
    images: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )
    update_count: int = 0
    n_elements: int = 0
    live_count: int = 0
    #: the checkpoint's ``(saves, hits)`` when the epoch began
    counters: tuple[int, int] = (0, 0)

    def write_back(self, ro: ReductionObject) -> None:
        """Put every saved pre-image back into ``ro``."""
        for groups, values, touched in self.images:
            ro.set_groups(groups, values, touched)
        ro.update_count = self.update_count


class ROCheckpoint:
    """Bounded ring of copy-on-write reduction-object snapshots.

    ``begin(epoch, ro, ...)`` opens a record; :meth:`save_groups` copies a
    group's pre-image the *first* time the epoch names it (later saves of
    the same group are counted as ``hits`` — the COW dedup the delta
    counters report).  :meth:`rollback` restores the open record and drops
    it; :meth:`commit` seals it into the ring, evicting the oldest record
    past ``capacity``.  :meth:`restore` rebuilds the full object as of any
    epoch still covered by the ring.
    """

    def __init__(self, capacity: int = CHECKPOINT_RING_DEPTH) -> None:
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self._ring: deque[_EpochRecord] = deque()
        self._open: _EpochRecord | None = None
        #: pre-image copies taken (one per (epoch, group)) by the epochs
        #: committed so far — a rolled-back epoch's are taken back
        self.saves = 0
        #: groups a save named whose pre-image was already taken (COW dedup)
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
            saved=np.zeros(ro.num_groups, dtype=bool),
            update_count=ro.update_count,
            n_elements=n_elements,
            live_count=live_count,
            counters=(self.saves, self.hits),
        )

    def save_groups(self, ro: ReductionObject, *groups: np.ndarray) -> None:
        """Save the pre-images of the groups named, once per open epoch
        (copy-on-write).

        Each argument is an array of group ids.  One gather takes every
        group not saved yet; a group named again — in another argument, or
        earlier this epoch — counts as a hit.
        """
        rec = self._require_open()
        named = np.zeros(rec.saved.size, dtype=bool)
        count = 0
        for ids in groups:
            ids = np.asarray(ids, dtype=np.int64)
            if not ids.size:
                continue
            try:  # a negative id wraps to a huge unsigned one: refused too
                named[ids.view(np.uint64)] = True
            except IndexError:
                raise FreerideError(f"groups {ids.tolist()} outside the layout") from None
            count += ids.size
        fresh = named & ~rec.saved
        values, touched = ro.gather_groups(fresh.nonzero()[0])
        self.save(fresh, values, touched, count - int(_sum(fresh)))

    def save(
        self, groups: np.ndarray, values: np.ndarray, touched: np.ndarray, hits: int = 0
    ) -> None:
        """Record a pre-image the caller gathered: ``groups`` is a bool mask
        of groups not saved yet this epoch, ``values`` their elements (group
        after group) and ``touched`` their touched bits, as
        :meth:`~repro.freeride.reduction_object.ReductionObject.gather_groups`
        returns them; ``hits`` counts groups named again."""
        rec = self._require_open()
        ids = groups.nonzero()[0]
        self.saves += ids.size
        self.hits += hits
        if ids.size:
            rec.saved |= groups
            rec.images.append((ids, values, touched))

    def rollback(self, ro: ReductionObject) -> tuple[int, int, int]:
        """Undo the open epoch; returns ``(groups_restored, n_elements, live)``.

        O(groups touched): only saved pre-images are written back.  The
        record is discarded — the failed epoch never enters the ring, and
        its saves and hits leave the counters.
        """
        rec = self._require_open()
        rec.write_back(ro)
        self.saves, self.hits = rec.counters
        self._open = None
        return int(rec.saved.sum()), rec.n_elements, rec.live_count

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
            rec.write_back(past)
        return past

    @property
    def retained_groups(self) -> int:
        """Total group pre-images held by the sealed ring (memory gauge)."""
        return sum(int(rec.saved.sum()) for rec in self._ring)


@dataclass
class ManualDataset:
    """A hand-written ``(spec, data)`` pair as a delta session's dataset.

    Gives a sized, sliceable ``data`` the dataset members a
    :class:`~repro.compiler.translate.BoundReduction` has, so the epoch
    walk is written once: an appended tail, a retraction and a replay all
    enter through the spec's ``reduce_ranges``, on either kind of source.
    The first append copies the caller's data once, into an owned backing
    the appends land in: an array with room to grow, doubled when an append
    outgrows it (``data`` is a view of it), or a list extended in place.
    """

    spec: ReductionSpec
    data: Any
    #: the owned storage, made by the first append
    _backing: Any = field(default=None, init=False, repr=False)

    @property
    def n_elements(self) -> int:
        return len(self.data)

    def make_spec(
        self, ro_layout: Any = None, finalize: Any = None
    ) -> tuple[ReductionSpec, Any]:
        """The spec re-bound to the current data (its own setup and finalize
        stand; a range is addressed through ``reduce_ranges``, not sliced)."""
        ranges = self.spec.slice_ranges(self.data)
        return replace(self.spec, reduce_ranges=ranges), self.data

    def append_elements(self, batch: Any) -> int:
        if not isinstance(self.data, np.ndarray):
            if self._backing is None:
                self._backing = self.data = list(self.data)
            self.data.extend(batch)
            return len(self.data)
        n = len(self.data)
        rows = np.asarray(batch, dtype=self.data.dtype)
        if rows.ndim != self.data.ndim or rows.shape[1:] != self.data.shape[1:]:
            raise FreerideError(
                f"appended shape {rows.shape} does not match the dataset's "
                f"elements {self.data.shape[1:]}"
            )
        end = n + len(rows)
        if self._backing is None or len(self._backing) < end:
            grown = np.empty((max(end, 2 * n), *self.data.shape[1:]), self.data.dtype)
            grown[:n] = self.data
            self._backing = grown
        self._backing[n:end] = rows
        self.data = self._backing[:end]
        return end

    def truncate_elements(self, n_elements: int) -> None:
        if self.data is self._backing:  # the owned list
            del self.data[n_elements:]
        else:
            self.data = self.data[:n_elements]


@dataclass(frozen=True)
class EpochReport:
    """What one committed epoch did; the engine stamps it on ``RunStats``."""

    epoch: int
    appended: int
    retracted: int
    groups_replayed: int
    replay_elements: int
    checkpoint_saves: int
    checkpoint_hits: int


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
    #: the dataset the deltas grow and shrink: a
    #: :class:`~repro.compiler.translate.BoundReduction` (the data lives in
    #: two segments: the caller's array as bound, then one owned tail the
    #: appends land in) or a :class:`ManualDataset` — anything with
    #: ``make_spec(layout, finalize)``, ``append_elements``,
    #: ``truncate_elements`` and ``n_elements``
    source: Any
    #: checkpoint ring for rollback and windowed queries
    checkpoints: ROCheckpoint
    #: produces the session's result value from the committed object
    finalize: Any = None
    #: total logical positions, including tombstoned (retracted) ones
    n_elements: int = field(init=False)
    #: liveness bitmap over ``[0, n_elements)`` — a view of a backing
    #: with 2× headroom from the start, doubled when appends outgrow it,
    #: that epochs flip in place
    #: (:meth:`advance_liveness` / :meth:`rewind_liveness`)
    live: np.ndarray = field(init=False)
    #: delta epochs applied so far (0 = baseline only)
    epoch: int = field(init=False, default=0)
    #: per-epoch commit attempt counters (the fault-injection seam mirrors
    #: split retry semantics: a rolled-back epoch re-tried by the caller
    #: counts as attempt 2, so ``fail_attempts`` bounds how long it fails)
    commit_attempts: dict[int, int] = field(init=False, default_factory=dict)
    #: delta epochs that failed — in a kernel or mid-commit — and were
    #: rolled back (a batch refused before the epoch began is not counted)
    rollbacks: int = field(init=False, default=0)
    #: surviving elements, maintained by the liveness updates
    live_count: int = field(init=False)
    #: one bit per group whose op has no inverse (min/max): a retraction
    #: that touches one replays it.  Fixed by the layout: the interned
    #: layout's own table.
    noninvertible_mask: np.ndarray = field(init=False)
    #: the scratch objects an epoch reduces into, one per role — retracted
    #: elements, replayed elements and the appended tail.  Cloned once
    #: here and emptied after every epoch, committed or rolled back, so a
    #: kernel's prepared pointers outlive the epoch.
    scratch: dict[str, ReductionObject] = field(init=False, repr=False)
    #: the spec :meth:`make_spec` holds over a compiled source
    _spec: ReductionSpec | None = field(init=False, default=None, repr=False)
    #: the ``hit`` of an epoch that retracts nothing: no group (never written)
    _no_hits: np.ndarray = field(init=False, repr=False)
    #: does the layout hold a group a retraction replays?
    _replays: bool = field(init=False, repr=False)
    #: the C loops an epoch runs, bound once the native runtime is there
    #: (None: the NumPy path)
    _native: NativeEpoch | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.n_elements = self.live_count = int(self.source.n_elements)
        # headroom for the appends to come, so no early epoch copies the mask
        self._live = np.empty(max(2 * self.n_elements, 64), dtype=bool)
        self.live = self._live[: self.n_elements]
        self.live[:] = True
        self.noninvertible_mask = self.ro.freeze_layout().noninvertible
        self._replays = bool(_any(self.noninvertible_mask))
        self._no_hits = np.zeros(self.ro.num_groups, dtype=bool)
        self.scratch = {
            role: self.ro.clone_empty() for role in ("retract", "replay", "tail")
        }
        self._bind()

    def _bind(self) -> NativeEpoch | None:
        """:attr:`_native`, bound here (when the session opens, else when an
        epoch begins) the first time the runtime is there."""
        rt = _epoch_runtime()
        if rt is not None:
            self._native = NativeEpoch(rt, self.ro, self.scratch, self._live)
        return self._native

    @property
    def noninvertible(self) -> frozenset[int]:
        """The groups :attr:`noninvertible_mask` sets."""
        return frozenset(np.flatnonzero(self.noninvertible_mask).tolist())

    @property
    def compiled(self) -> bool:
        """True over a bound compiled kernel, False over a
        :class:`ManualDataset`.  Both kinds walk an epoch alike: an appended
        tail of any size is folded in one in-order ``reduce_ranges`` call
        into ``scratch["tail"]``, never run by the engine."""
        return not isinstance(self.source, ManualDataset)

    def make_spec(self) -> ReductionSpec:
        """The spec an epoch's ranges go to, with no finalize (the session's
        own runs once, on the committed object).

        Over a compiled source it is built once and held (an epoch reads
        the held one without calling this): its ``reduce_ranges`` reads the
        bound env and the dataset's segments when called, so an
        ``update_extras`` or an append between epochs is seen.  A
        :class:`ManualDataset`'s hook closes over the data an append
        replaces, so it is re-bound each epoch and never held.
        """
        if self._spec is not None:
            return self._spec
        spec, _ = self.source.make_spec(self.ro.layout(), finalize=None)
        if self.compiled:
            self._spec = spec
        return spec

    def apply(
        self,
        append: Any,
        retract_idx: np.ndarray,
        *,
        injector: "FaultInjector | None",
        tracer: "Tracer | NullTracer",
        executor: str,
    ) -> EpochReport:
        """Walk one epoch: append, retract, replay, checkpointed commit.

        ``retract_idx`` comes from :meth:`normalize_retract`; the engine
        lends its fault ``injector`` (consulted mid-commit at
        :data:`DELTA_COMMIT_SPLIT_ID`) and its ``tracer``.  The appended
        tail, the retracted runs and the replayed runs are each one
        in-order ``reduce_ranges`` call into an empty scratch object — no
        engine pass, on any executor.  Nothing is committed until every
        scratch object is computed; a failure anywhere restores the
        reduction object, dataset length and liveness of the previous epoch
        and re-raises.
        """
        source, ro, cp, scratch = self.source, self.ro, self.checkpoints, self.scratch
        epoch = self.epoch + 1
        n_old, old_live = self.n_elements, self.live_count
        saves0, hits0 = cp.saves, cp.hits
        retracted = int(retract_idx.size)
        new_n = n_old
        appended = 0
        refused = True  # until the batch is accepted a failure is no rollback
        advanced = False  # are retract_idx tombstoned?
        native = self._native if self._native is not None else self._bind()
        with tracer.span(
            "delta.apply", cat="delta", epoch=epoch, retracted=retracted,
            executor=executor,
        ) as span:
            try:
                if append is not None:
                    new_n = source.append_elements(append)
                    appended = new_n - n_old
                    if appended <= 0:
                        raise FreerideError(
                            "append batch added no elements (use retract= "
                            "alone for pure retraction)"
                        )
                refused = False
                # tombstoned right after normalize_retract read the same
                # positions of the mask, while they are still in cache
                retract_starts, retract_ends = self.advance_liveness(new_n, retract_idx)
                advanced = True
                # every range below goes to this spec's reduce_ranges hook as
                # two arrays, *global* positions intact, so position-dependent
                # reductions see the coordinates a full run would and a
                # native kernel walks them all in one call
                spec = self._spec if self._spec is not None else self.make_spec()
                tail = retract = replay = None
                hit, replayed = self._no_hits, _NO_GROUPS
                retract_runs = replay_runs = replay_elements = planner_probes = 0
                try:
                    if appended:
                        tail = scratch["tail"]
                        spec.reduce_ranges(
                            np.array([n_old], dtype=np.int64),
                            np.array([new_n], dtype=np.int64),
                            tail,
                        )
                    # -- retract compute (never mutates the committed object)
                    if retracted:
                        retract_runs = len(retract_starts)
                        retract = scratch["retract"]
                        spec.reduce_ranges(retract_starts, retract_ends, retract)
                        # the C commit finds its own hit; only a replay
                        # needs it here
                        if native is None or self._replays:
                            hit = retract.touched_mask()
                            replayed = (hit & self.noninvertible_mask).nonzero()[0]
                    # -- replay compute: re-reduce only the survivors inside
                    # the blocks whose effect-summary footprint can reach a
                    # replayed group
                    if replayed.size:
                        # a hand-written spec's hook answers no range
                        # question: every survivor is replayed
                        bounds = spec.group_bounds
                        probes0 = getattr(bounds, "evaluations", 0)
                        targets = frozenset(replayed.tolist())
                        blocks = (
                            blocks_reaching(bounds, targets, new_n, ro.num_groups)
                            if hasattr(bounds, "groups_for_range")
                            else [(0, new_n)]
                        )
                        planner_probes = getattr(bounds, "evaluations", 0) - probes0
                        starts, ends = self.live_runs(blocks)
                        replay_runs = len(starts)
                        replay_elements = int(_sum(ends - starts))
                        replay = scratch["replay"]
                        spec.reduce_ranges(starts, ends, replay)
                except BaseException:
                    # a kernel that raised may have half-filled its scratch
                    for dirty in scratch.values():
                        dirty.reset_touched()
                    raise

                # -- checkpointed commit: one pass over the epoch's groups,
                # which also empties the scratch objects
                cp.begin(epoch, ro, n_elements=n_old, live_count=old_live)
                attempt = self.commit_attempts.get(epoch, 0) + 1
                self.commit_attempts[epoch] = attempt
                try:
                    ro.commit_delta(
                        tail, retract, hit, replay, cp.save,
                        # mid-commit seam: appended groups are already
                        # merged, retracts are not — a fault here must roll
                        # back
                        partial(injector.inject, DELTA_COMMIT_SPLIT_ID, attempt)
                        if injector is not None
                        else None,
                        native,
                    )
                    cp.commit()
                except BaseException:
                    cp.rollback(ro)
                    raise
            except BaseException:
                if not refused:
                    self.rollbacks += 1
                    span.set(rolled_back=True)
                self.rewind_liveness(n_old, old_live, retract_idx if advanced else _NO_GROUPS)
                if new_n != n_old:
                    source.truncate_elements(n_old)
                raise

            self.n_elements = new_n
            self.epoch = epoch
            self.commit_attempts.pop(epoch, None)
            report = EpochReport(
                epoch, appended, retracted, int(replayed.size), replay_elements,
                cp.saves - saves0, cp.hits - hits0,
            )
            if tracer.enabled:
                span.set(
                    appended=appended,
                    groups_replayed=report.groups_replayed,
                    replay_elements=replay_elements,
                    checkpoint_saves=report.checkpoint_saves,
                    checkpoint_hits=report.checkpoint_hits,
                    epochs_retained=len(cp._ring),
                    retract_runs=retract_runs,
                    replay_runs=replay_runs,
                    kernel_calls=sum(s is not None for s in (tail, retract, replay)),
                    planner_probes=planner_probes,
                )
        return report

    def live_runs(
        self, blocks: "Sequence[tuple[int, int]] | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Maximal runs of surviving elements, in position order.

        With ``blocks`` — ordered, disjoint ``(start, end)`` position pairs
        — only the runs inside them, cut at block boundaries, in work
        proportional to the blocks' sizes.  On the native path the two
        arrays are views of the session's run buffers, which the next
        epoch overwrites.
        """
        native = self._native
        if native is not None:
            n = self.live.size
            bounds = np.array((0, n) if blocks is None else blocks, dtype=np.int64)
            c_bounds, count = native.from_buffer(native.ll, bounds), bounds.size // 2
            runs = native.live_runs(native.ep, c_bounds, count, n)
            if runs > native.cap:
                native.room(runs)
                native.live_runs(native.ep, c_bounds, count, n)
            return native.starts[:runs], native.ends[:runs]
        if blocks is None:
            return mask_runs(self.live)
        # the blocks' liveness end to end, each followed by a dead separator
        # so that no run crosses a block boundary: one mask_runs for all
        width = len(blocks)
        for start, end in blocks:
            width += end - start
        joined = np.zeros(width, dtype=bool)
        at = np.empty(len(blocks), dtype=np.int64)  # where each block begins in it
        shift = np.empty(len(blocks), dtype=np.int64)  # its position minus that
        pos = 0
        for b, (start, end) in enumerate(blocks):
            joined[pos : pos + end - start] = self.live[start:end]
            at[b], shift[b] = pos, start - pos
            pos += end - start + 1
        first, last = mask_runs(joined)
        moved = shift[at.searchsorted(first, side="right") - 1]
        return first + moved, last + moved

    def advance_liveness(
        self, new_n: int, retract_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Extend :attr:`live` to ``new_n`` positions and tombstone
        ``retract_idx`` (validated by :meth:`normalize_retract`), in place.

        Returns the tombstoned positions' runs, as :func:`contiguous_runs`
        does (on the native path, views of the session's run buffers).
        """
        old_n = self.live.size
        native = self._native
        if new_n > self._live.size:
            grown = np.empty(max(new_n, 2 * self._live.size), dtype=bool)
            grown[:old_n] = self.live
            self._live = grown
            if native is not None:
                native.point_live(grown)
        self.live = self._live[:new_n]
        self.live[old_n:] = True
        retracted = int(retract_idx.size)
        if not retracted:
            self.live_count += new_n - old_n
            return _NO_GROUPS, _NO_GROUPS
        if native is None:
            self.live[retract_idx] = False
            runs = contiguous_runs(retract_idx)
        else:
            if retracted > native.cap:
                native.room(retracted)
            count = native.retract(
                native.ep, native.from_buffer(native.ll, retract_idx), retracted, old_n, 1
            )
            if count < 0:  # refused, nothing tombstoned
                self._refuse(retract_idx, old_n)
                raise FreerideError("retract positions must be strictly increasing")
            runs = native.starts[:count], native.ends[:count]
        self.live_count += new_n - old_n - retracted
        return runs

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
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise FreerideError(
                "retract= takes a 1-D sequence of integer element positions "
                f"(np.flatnonzero(mask) for a boolean mask), got dtype "
                f"{idx.dtype} with shape {idx.shape}"
            )
        # contiguous: the native check reads it where it is
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        if idx.size == 0:
            return idx
        native = self._native
        if native is None:
            if _any(idx[1:] <= idx[:-1]):
                idx = np.unique(idx)
            self._refuse(idx, self.n_elements)
            return idx
        if idx.size > native.cap:
            native.room(idx.size)
        checked = native.retract(
            native.ep, native.from_buffer(native.ll, idx), idx.size, self.n_elements, 0
        )
        if checked == native.unsorted:
            idx = np.unique(idx)
            checked = native.retract(
                native.ep, native.from_buffer(native.ll, idx), idx.size, self.n_elements, 0
            )
        if checked < 0:
            self._refuse(idx, self.n_elements)
        return idx

    def _refuse(self, idx: np.ndarray, n: int) -> None:
        """Raise what is wrong with sorted, unique positions ``idx``: one
        outside ``[0, n)``, or one already retracted; nothing if neither."""
        if idx[0] < 0 or idx[-1] >= n:
            raise FreerideError(f"retract index out of range [0, {n})")
        alive = self.live[idx]
        if not _all(alive):
            raise FreerideError(
                f"retract of already-retracted element(s) "
                f"{idx[~alive][:5].tolist()}"
            )

    def ro_at(self, epoch: int) -> ReductionObject:
        """The reduction object as of the end of ``epoch`` (ring-bounded)."""
        return self.checkpoints.restore(self.ro, epoch, self.epoch)
