"""The FREERIDE *reduction object*.

FREERIDE's defining API difference from Map-Reduce (paper §III-A) is that the
programmer **explicitly declares a reduction object and performs updates to
its elements directly**; every data element is processed and reduced in one
step, with no intermediate (key, value) pairs.

The reduction object is a two-level structure maintained in main memory:
*groups* (e.g. one per k-means cluster), each holding a fixed number of
float64 *elements* (e.g. count, sum of coordinates).  Each element is
addressed by ``(group_id, elem_id)`` — the "unique ID for each element"
that ``reduction_object_alloc`` assigns in Table I.

Updates go through :meth:`ReductionObject.accumulate` with an associative,
commutative element operation (add/min/max), which is what makes per-thread
copies mergeable in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.util.errors import ReductionObjectError
from repro.util.validation import check_positive_int

__all__ = [
    "AccumulateOp",
    "ACCUMULATE_OPS",
    "INVERTIBLE_ACCUMULATE_OPS",
    "OP_CODES",
    "CACHE_LINE_BYTES",
    "aligned_empty",
    "DirectStore",
    "ReductionObject",
    "intern_layout",
]

#: Element-update operations. Each must be associative and commutative so the
#: result is independent of processing order (paper §III-A requirement).
AccumulateOp = str

ACCUMULATE_OPS: dict[str, Callable[[np.ndarray, int, float], None]] = {}


def _op_add(buf: np.ndarray, idx: int, value: float) -> None:
    buf[idx] += value


def _op_min(buf: np.ndarray, idx: int, value: float) -> None:
    if value < buf[idx]:
        buf[idx] = value


def _op_max(buf: np.ndarray, idx: int, value: float) -> None:
    if value > buf[idx]:
        buf[idx] = value


ACCUMULATE_OPS["add"] = _op_add
ACCUMULATE_OPS["min"] = _op_min
ACCUMULATE_OPS["max"] = _op_max

_IDENTITY: dict[str, float] = {"add": 0.0, "min": np.inf, "max": -np.inf}

#: what a fold takes from the other object where it is strictly better
_BETTER = {"min": np.less, "max": np.greater}


def _merge_into(
    op: AccumulateOp, mine: np.ndarray, theirs: np.ndarray, where: "np.ndarray | bool" = True
) -> None:
    """``mine = op(mine, theirs)`` in place over ``where``: ``np.add``, or
    ``fmin``/``fmax`` keeping ``mine`` on a tie of two zeros, as an in-order
    kernel's strict compare keeps the earlier value (a NaN in ``mine`` gives
    way to ``theirs``).  NumPy's own ``fmin``/``fmax`` settle a tie of two
    zeros or two NaNs by the SIMD lane a cell falls in, which no other
    implementation (``epoch.c``'s commit) could reproduce.  A caller on a
    counted path folds ``add`` itself, with no call here."""
    if op == "add":
        np.add(mine, theirs, out=mine, where=where)
        return
    take = _BETTER[op](theirs, mine)
    take |= mine != mine
    take &= where
    np.positive(theirs, out=mine, where=take)

#: Ops with an element inverse: contributions can be *retracted* directly
#: (``a + x - x == a``), so delta retractions cost O(|delta|).  min/max
#: discard the information needed to undo an update — the delta executor
#: re-reduces those groups from the surviving elements instead.
INVERTIBLE_ACCUMULATE_OPS: frozenset[str] = frozenset({"add"})

_RETRACT_UFUNC = {"add": np.subtract}

#: Integer op codes of the dense ``opcodes`` layout table — what a native
#: kernel compares a group's declared op against.
OP_CODES: dict[str, int] = {"add": 0, "min": 1, "max": 2}

CACHE_LINE_BYTES = 64


def aligned_empty(count: int, dtype: "np.dtype | type") -> np.ndarray:
    """An uninitialized 1-D array owning every cache line it overlaps.

    The array starts on a :data:`CACHE_LINE_BYTES` boundary and its backing
    allocation extends to the end of its last line, so no other buffer can
    share a line with it.  Buffers one lane stores into per element
    (replica elements, touched flags, kernel counters) come from here:
    NumPy's small-block cache otherwise hands two threads neighbouring
    blocks, and a line shared between one lane's counters and another's
    touched flags doubles a threaded pass.
    """
    nbytes = int(count) * np.dtype(dtype).itemsize
    lines = -(-nbytes // CACHE_LINE_BYTES)
    raw = np.empty((lines + 1) * CACHE_LINE_BYTES, dtype=np.uint8)
    skip = -raw.ctypes.data % CACHE_LINE_BYTES
    return raw[skip : skip + nbytes].view(dtype)


@dataclass
class _GroupMeta:
    """Layout of one allocated group."""

    group_id: int
    num_elems: int
    op: AccumulateOp
    offset: int  # start of this group's elements in the dense buffer

    def vector(self, values: "np.ndarray | Sequence[float]") -> np.ndarray:
        """``values`` as float64, refused unless it is one value per element."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_elems,):
            raise ReductionObjectError(
                f"group {self.group_id} expects {self.num_elems} values, "
                f"got {values.shape}"
            )
        return values


def _check_entry(num_elems: int, op: AccumulateOp) -> None:
    """Validate one ``(num_elems, op)`` layout entry."""
    check_positive_int(num_elems, "num_elems")
    if op not in ACCUMULATE_OPS:
        raise ReductionObjectError(f"unknown accumulate op {op!r}")


class _Layout:
    """Everything that depends on a layout alone, computed once per layout.

    Interned by :func:`intern_layout`, so two reduction objects have the same
    layout exactly when they hold the same instance, and per-call work
    (merging, cloning, a native kernel's tables) never walks the groups.
    """

    def __init__(self, key: "tuple[tuple[int, AccumulateOp], ...]") -> None:
        self.key = key
        self.metas: list[_GroupMeta] = []
        offset = 0
        for num_elems, op in key:
            _check_entry(num_elems, op)
            self.metas.append(_GroupMeta(len(self.metas), num_elems, op, offset))
            offset += num_elems
        self.size = offset
        self.ops = [m.op for m in self.metas]
        self.nelems = np.array([m.num_elems for m in self.metas], dtype=np.int64)
        self.offsets = np.array([m.offset for m in self.metas], dtype=np.int64)
        self.opcodes = np.array([OP_CODES[op] for op in self.ops], dtype=np.int64)
        #: one bit per group whose op has no inverse (min/max)
        self.noninvertible = np.array(
            [op not in INVERTIBLE_ACCUMULATE_OPS for op in self.ops], dtype=bool
        )
        self.identity = np.repeat(
            np.array([_IDENTITY[op] for op in self.ops], dtype=np.float64),
            self.nelems,
        )
        #: the distinct accumulate ops, in op-code order
        self.kinds = sorted(set(self.ops), key=OP_CODES.__getitem__)
        #: the group each element belongs to
        self.cell_group = np.repeat(np.arange(len(self.metas)), self.nelems)
        #: per distinct op, one bit per element: is its group's op this one?
        self.op_cells = {
            op: self.opcodes[self.cell_group] == OP_CODES[op] for op in self.kinds
        }

    def __reduce__(self) -> tuple:
        # copies and unpickled objects re-intern, keeping identity meaningful
        return intern_layout, (self.key,)


_LAYOUTS: dict[tuple, _Layout] = {}


def intern_layout(layout: "Sequence[tuple[int, AccumulateOp]]") -> _Layout:
    """The interned tables of ``layout`` (validated the first time it is seen).

    Building the key walks and hashes the whole layout, so a caller that
    allocates one layout run after run interns it once and hands
    :meth:`ReductionObject.alloc_many` the result.
    """
    key = tuple(map(tuple, layout))
    tables = _LAYOUTS.get(key)
    if tables is None:
        tables = _LAYOUTS.setdefault(key, _Layout(key))
    return tables


def _written(ro: "ReductionObject", tables: _Layout) -> np.ndarray:
    """:meth:`ReductionObject.touched_mask` of ``ro``, whose layout is ``tables``."""
    filled = np.logical_or.reduceat(ro._buffer != tables.identity, tables.offsets)
    return ro._touched | filled


@dataclass(frozen=True, eq=False)
class DirectStore:
    """The buffers one lane's native kernel may store into directly.

    ``elements`` is a reduction object's dense float64 buffer and
    ``touched`` its NumPy ``bool`` flags, one per group (``_Bool`` in C, set
    by every update); the int64 tables describe the layout the kernel
    validates each update against, and ``layout`` is the interned layout
    they belong to.  One instance lives as long as the buffers it names and
    its layout never changes, so per-target call state can be keyed on the
    instance and per-layout facts on ``layout``.
    """

    elements: np.ndarray
    touched: np.ndarray
    offsets: np.ndarray
    nelems: np.ndarray
    opcodes: np.ndarray
    layout: _Layout


class ReductionObject:
    """A dense, mergeable reduction object.

    Groups are allocated up front with :meth:`alloc` (mirroring
    ``reduction_object_alloc``), then updated with :meth:`accumulate` and
    read with :meth:`get` / :meth:`get_group`.

    Storage is one contiguous float64 buffer; groups are slices of it.  This
    matches FREERIDE's in-memory representation and makes merging two copies
    a single vectorized ufunc per op kind.
    """

    def __init__(self) -> None:
        self._groups: list[_GroupMeta] = []
        self._buffer: np.ndarray = np.empty(0, dtype=np.float64)
        self._finalized_layout = False
        #: number of accumulate() calls, for runtime statistics
        self.update_count: int = 0
        # the interned layout tables and the direct-store record over the
        # current buffers; built on first use, dropped by alloc
        self._layout: _Layout | None = None
        self._store: DirectStore | None = None
        #: explicit per-group touched bitmap: set by every update API, so a
        #: group stays visible in touched_groups() even when its accumulated
        #: value happens to equal the op identity
        self._touched: np.ndarray = np.zeros(0, dtype=bool)

    # -- layout -------------------------------------------------------------

    def alloc(self, num_elems: int, op: AccumulateOp = "add") -> int:
        """Allocate a group of ``num_elems`` elements; returns its group id.

        All elements of a group share one accumulate op and start at that
        op's identity (0 for add, +inf for min, -inf for max).
        """
        _check_entry(num_elems, op)
        if self._finalized_layout:
            raise ReductionObjectError(
                "cannot allocate groups after the layout is frozen"
            )
        gid = len(self._groups)
        meta = _GroupMeta(gid, num_elems, op, offset=self._buffer.size)
        self._groups.append(meta)
        self._buffer = np.concatenate(
            [self._buffer, np.full(num_elems, _IDENTITY[op])]
        )
        self._layout = self._store = None
        self._touched = np.concatenate([self._touched, [False]])
        return gid

    def alloc_many(
        self, layout: "Sequence[tuple[int, AccumulateOp]] | _Layout"
    ) -> list[int]:
        """Allocate a whole layout of groups with one buffer reallocation.

        Equivalent to calling :meth:`alloc` per entry, but O(total
        elements) instead of quadratic in the group count — the setup path
        for wide layouts (e.g. one group per window).  ``layout`` may be
        what :func:`intern_layout` returned for it.
        """
        if self._finalized_layout:
            raise ReductionObjectError(
                "cannot allocate groups after the layout is frozen"
            )
        if not self._groups:
            # the whole layout at once: its interned tables already hold
            # the metas and the identity vector
            tables = layout if isinstance(layout, _Layout) else intern_layout(layout)
            self._groups = list(tables.metas)
            self._buffer = tables.identity.copy()
            self._touched = np.zeros(len(self._groups), dtype=bool)
            self._layout, self._store = tables, None
            return list(range(len(self._groups)))
        if isinstance(layout, _Layout):
            layout = layout.key
        gids: list[int] = []
        segments = [self._buffer]
        offset = int(self._buffer.size)
        for num_elems, op in layout:
            _check_entry(num_elems, op)
            gid = len(self._groups)
            self._groups.append(_GroupMeta(gid, num_elems, op, offset))
            segments.append(np.full(num_elems, _IDENTITY[op]))
            offset += num_elems
            gids.append(gid)
        self._buffer = np.concatenate(segments)
        self._layout = self._store = None
        self._touched = np.concatenate(
            [self._touched, np.zeros(len(gids), dtype=bool)]
        )
        return gids

    def alloc_matrix(self, num_groups: int, num_elems: int, op: AccumulateOp = "add") -> list[int]:
        """Allocate ``num_groups`` identical groups (k-means: one per centroid)."""
        check_positive_int(num_groups, "num_groups")
        return self.alloc_many([(num_elems, op)] * num_groups)

    def freeze_layout(self) -> _Layout:
        """Freeze the layout: replicas must share it, so no more allocs.

        Everything that depends on the layout alone — the layout tuple, the
        identity vector, the dense group tables, the per-op element masks — is
        fixed from here on (see :class:`_Layout`); returns those interned
        tables, which identify the layout.
        """
        self._finalized_layout = True
        return self._tables()

    def _tables(self) -> _Layout:
        if self._layout is None:
            self._layout = intern_layout([(m.num_elems, m.op) for m in self._groups])
        return self._layout

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    @property
    def size(self) -> int:
        """Total number of elements across all groups."""
        return int(self._buffer.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the element buffer, in bytes."""
        return int(self._buffer.nbytes)

    def _meta(self, group: int) -> _GroupMeta:
        # checked, not left to the list: group -1 is not the last group
        if 0 <= group < len(self._groups):
            return self._groups[group]
        raise ReductionObjectError(
            f"group {group} not allocated (have {len(self._groups)})"
        )

    def _span(self, group: int) -> tuple[_GroupMeta, slice]:
        """One allocated group and its slice of the element buffer."""
        meta = self._meta(group)
        return meta, slice(meta.offset, meta.offset + meta.num_elems)

    def _cell(
        self, group: int, elem: int, op: "AccumulateOp | None" = None
    ) -> tuple[_GroupMeta, int]:
        """Validate one cell; ``op``, when given, must be the group's own."""
        meta = self._meta(group)
        if not isinstance(elem, int) or isinstance(elem, bool):
            raise ValueError(f"elem must be an integer, got {elem!r}")
        # checked on both sides, like the group: element -1 is not the last
        if not 0 <= elem < meta.num_elems:
            raise ReductionObjectError(
                f"element {elem} out of range for group {group} "
                f"({meta.num_elems} elements)"
            )
        if op is not None and op != meta.op:
            raise ReductionObjectError(
                f"update op does not match the group's op: {op!r} into "
                f"group {group}, declared {meta.op!r}"
            )
        return meta, meta.offset + elem

    # -- updates and reads ----------------------------------------------------

    def accumulate(
        self, group: int, elem: int, value: float, op: "AccumulateOp | None" = None
    ) -> None:
        """Fold ``value`` into element ``(group, elem)`` with the group's op.

        This is Table I's ``void accumulate(int, int, void* value)``.  A
        caller that knows which op it means (a compiled ``roAdd``/``roMin``/
        ``roMax``) passes it, and an update into a group declared with
        another op is refused before anything is stored or counted.
        """
        meta, idx = self._cell(group, elem, op)
        # store_cell's body, inlined: the scalar tier pays one call per update
        ACCUMULATE_OPS[meta.op](self._buffer, idx, value)
        self._touched[meta.group_id] = True
        self.update_count += 1

    def store_cell(self, meta: _GroupMeta, idx: int, value: float) -> None:
        """:meth:`accumulate` of a cell :meth:`_cell` already validated —
        the locking lane's store, made under the cell's lock."""
        ACCUMULATE_OPS[meta.op](self._buffer, idx, value)
        self._touched[meta.group_id] = True
        self.update_count += 1

    def accumulate_group(self, group: int, values: np.ndarray) -> None:
        """Vectorized accumulate of a whole group at once.

        Semantically ``accumulate(group, i, values[i])`` for every i; used by
        vectorized kernels.  Counts as ``len(values)`` updates.
        """
        meta, sl = self._span(group)
        _merge_into(meta.op, self._buffer[sl], meta.vector(values))
        self._touched[meta.group_id] = True
        self.update_count += meta.num_elems

    def batch_cells(
        self,
        groups: "np.ndarray | int",
        elems: "np.ndarray | int",
        values: "np.ndarray | float",
        op: AccumulateOp,
        mask: np.ndarray | None = None,
        lanes: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate and flatten a batch update into ``(flat_indices, values)``.

        ``groups``/``elems``/``values`` broadcast against each other (and to
        ``lanes`` entries when all are scalar); ``mask`` drops inactive lanes
        before validation, so a lane a scalar kernel would never execute can
        hold any garbage.  Every surviving lane must address an allocated
        cell of a group whose accumulate op is ``op``.
        """
        if op not in ACCUMULATE_OPS:
            raise ReductionObjectError(f"unknown accumulate op {op!r}")
        g = np.asarray(groups, dtype=np.int64)
        e = np.asarray(elems, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        shapes = [g.shape, e.shape, v.shape]
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            shapes.append(mask.shape)
        target = np.broadcast_shapes(*shapes)
        if target == ():
            target = (1 if lanes is None else lanes,)
        g = np.broadcast_to(g, target).ravel()
        e = np.broadcast_to(e, target).ravel()
        v = np.broadcast_to(v, target).ravel()
        if mask is not None:
            m = np.broadcast_to(mask, target).ravel()
            g, e, v = g[m], e[m], v[m]
        if g.size == 0:
            return g, v
        tables = self._tables()
        offsets, nelems, ops = tables.offsets, tables.nelems, tables.ops
        if g.min() < 0 or g.max() >= len(offsets):
            raise ReductionObjectError(
                f"batch update addresses group outside [0, {len(offsets)})"
            )
        if np.any(e < 0) or np.any(e >= nelems[g]):
            raise ReductionObjectError(
                "batch update addresses an element outside its group"
            )
        bad = {ops[int(gi)] for gi in np.unique(g)} - {op}
        if bad:
            raise ReductionObjectError(
                f"update op does not match the group's op: batch {op!r} update "
                f"hits groups declared with op {sorted(bad)}"
            )
        return offsets[g] + e, v

    def apply_batch(self, indices: np.ndarray, values: np.ndarray, op: AccumulateOp) -> None:
        """Apply pre-validated flat-cell updates (see :meth:`batch_cells`)
        as the scalar ops would, lane by lane.

        ``np.add.at`` sums duplicate indices in lane order.  A min/max cell
        takes its lanes' strictly best non-NaN value, the earliest lane's on
        a tie, folded into the held value by :func:`_merge_into`: an in-order
        kernel's strict compare keeps a held +0.0 against an incoming -0.0,
        where ``np.fmin.at`` may take either.
        """
        if indices.size == 0:
            return
        if op == "add":
            np.add.at(self._buffer, indices, values)
        else:
            # by cell, best value first (NaN last), then lane: a stable sort
            # puts the lane an in-order kernel keeps first in its cell's run
            order = np.lexsort((values if op == "min" else -values, indices))
            cells = indices[order]
            first = np.flatnonzero(np.diff(cells, prepend=-1))
            cells = cells[first]
            held = self._buffer[cells]
            _merge_into(op, held, values[order[first]])
            self._buffer[cells] = held
        self._touched[self.groups_of(indices)] = True
        self.update_count += int(indices.size)

    def groups_of(self, indices: np.ndarray) -> np.ndarray:
        """The distinct groups that flat cell ``indices`` fall into."""
        hit = np.searchsorted(self._tables().offsets, indices, side="right") - 1
        return np.unique(hit)

    def accumulate_batch(
        self,
        groups: "np.ndarray | int",
        elems: "np.ndarray | int",
        values: "np.ndarray | float",
        op: AccumulateOp = "add",
        mask: np.ndarray | None = None,
        lanes: int | None = None,
    ) -> None:
        """Vectorized accumulate over per-lane ``(group, elem, value)`` triples.

        Semantically ``accumulate(groups[i], elems[i], values[i])`` for every
        active lane ``i`` (in lane order); counts one update per active lane.
        This is the reduction-object half of the batch kernel backend.
        """
        idx, v = self.batch_cells(groups, elems, values, op, mask, lanes)
        self.apply_batch(idx, v, op)

    def get(self, group: int, elem: int) -> float:
        """Read one element — Table I's ``get_intermediate_result``."""
        _, idx = self._cell(group, elem)
        return float(self._buffer[idx])

    def get_group(self, group: int) -> np.ndarray:
        """Read a whole group as a copy."""
        return self._buffer[self._span(group)[1]].copy()

    def group_view(self, group: int) -> np.ndarray:
        """A writable view of a group (for vectorized manual-FR kernels)."""
        return self._buffer[self._span(group)[1]]

    def set(self, group: int, elem: int, value: float) -> None:
        """Overwrite one element (used by finalize steps, not reductions)."""
        meta, idx = self._cell(group, elem)
        self._buffer[idx] = value
        self._touched[meta.group_id] = True

    def groups(self) -> Iterator[tuple[int, np.ndarray]]:
        """Iterate ``(group_id, values_copy)`` pairs."""
        for meta in self._groups:
            yield meta.group_id, self.get_group(meta.group_id)

    def layout(self) -> "tuple[tuple[int, AccumulateOp], ...]":
        """The ``(num_elems, op)`` sequence that rebuilds this layout."""
        return self._tables().key

    @classmethod
    def from_layout(
        cls,
        layout: "Sequence[tuple[int, AccumulateOp]]",
        buffer: np.ndarray | None = None,
        initialize: bool = True,
    ) -> "ReductionObject":
        """Build a frozen-layout reduction object directly from a layout.

        Unlike repeated :meth:`alloc` calls this never reallocates the
        element buffer, so ``buffer`` may be an *external* float64 array —
        e.g. a slice of a ``multiprocessing.shared_memory`` segment — and
        all accumulations land in that storage.  With ``initialize=False``
        the buffer's existing contents are kept (the parent process wraps a
        worker-filled shared segment without clobbering it); a freshly
        allocated object is always initialized to the ops' identities.
        """
        tables = intern_layout(layout)
        if not tables.metas:
            raise ReductionObjectError("layout must allocate at least one group")
        return cls._of(tables, buffer, initialize)

    @classmethod
    def _of(
        cls, tables: _Layout, buffer: np.ndarray | None, initialize: bool
    ) -> "ReductionObject":
        ro = cls()
        if buffer is None:
            ro._buffer = aligned_empty(tables.size, np.float64)
            initialize = True
        else:
            buf = np.asarray(buffer)
            if buf.dtype != np.float64 or buf.ndim != 1 or buf.size != tables.size:
                raise ReductionObjectError(
                    f"external buffer must be a flat float64 array of "
                    f"{tables.size} elements, got dtype={buf.dtype} shape={buf.shape}"
                )
            ro._buffer = buf
        if initialize:
            ro._buffer[:] = tables.identity
        # metas are never mutated and a frozen object never appends to the list
        ro._groups = tables.metas
        ro._touched = aligned_empty(len(tables.metas), bool)
        ro._touched[:] = False
        ro._layout = tables
        ro._finalized_layout = True
        return ro

    # -- replication and merging ----------------------------------------------

    def copy(self) -> "ReductionObject":
        """A deep copy: same layout, same element values, same update count.

        The combination phase merges into a copy so its inputs (per-thread
        or per-node reduction objects) are never mutated.
        """
        clone = self.clone_empty()
        clone._buffer[:] = self._buffer
        clone._touched[:] = self._touched
        clone.update_count = self.update_count
        return clone

    def clone_empty(self) -> "ReductionObject":
        """A fresh copy with identical layout and identity-valued elements.

        This is what the *full replication* shared-memory technique hands to
        each thread: the shared layout tables, one copy of the identity
        vector, and element and touched buffers no other lane's share a
        cache line with (:func:`aligned_empty`).
        """
        return ReductionObject._of(self._tables(), None, True)

    def view(self) -> "ReductionObject":
        """A second handle on the *same* element buffer, with touched flags
        and an update count of its own — what a lane updates through when a
        schedule gives it exclusive cells (the colored technique): the flags
        and the count are the only state such lanes would share.
        """
        return ReductionObject._of(self._tables(), self._buffer, False)

    def same_layout(self, other: "ReductionObject") -> bool:
        return self._tables() is other._tables()

    # -- direct stores (native kernels) ---------------------------------------

    def direct_store(self) -> DirectStore:
        """The buffers this object's single owner may store into directly.

        A native kernel accumulates straight into the element buffer and
        sets the touched flags itself; the caller then reports the number
        of updates made through :meth:`note_updates`.
        """
        if self._store is None:
            if not self._buffer.flags.c_contiguous:
                raise ReductionObjectError(
                    "direct stores need a contiguous element buffer"
                )
            tables = self._tables()
            self._store = DirectStore(
                self._buffer, self._touched,
                tables.offsets, tables.nelems, tables.opcodes, tables,
            )
        return self._store

    def note_updates(self, count: int) -> None:
        """Account for ``count`` updates made through :meth:`direct_store`."""
        self.update_count += count

    def merge_from(
        self, other: "ReductionObject", groups: "int | Sequence[int] | np.ndarray | None" = None
    ) -> None:
        """Fold another same-layout copy into this one: the *combine* of
        Figure 1, and every commit of a lane, a scratch object or a delta
        tail.

        ``groups`` selects what is folded:

        * ``None``: every group (the whole-object combine);
        * one group id, over its slice alone (a locking lane's unit, made
          under the group's locks);
        * ascending, distinct ids (a colored split's proven group set, the
          groups a kernel flagged) or a bool mask with one entry per group
          (the delta tail's groups).

        Every form but one id is one ufunc per accumulate op over the
        buffer, masked to the selected groups' elements of that op.

        Each selected group merges element by element with its op and is
        marked touched by :meth:`touched_mask`'s merge rule.  Whatever the
        selection, ``other.update_count`` is added once.
        """
        self._fold(other, self._check_same_layout(other, "merge"), groups)
        self.update_count += other.update_count

    def _fold(
        self, other: "ReductionObject", tables: _Layout,
        groups: "int | Sequence[int] | np.ndarray | None",
    ) -> None:
        """:meth:`merge_from` without the update count, ``tables`` being the
        layout both objects share: what a locking lane runs under each
        group's locks, and :meth:`commit_delta`'s merge."""
        buf, theirs, touched = self._buffer, other._buffer, self._touched
        if isinstance(groups, (int, np.integer)):
            # one group: its slice, and the touched rule over that slice
            meta, cells = self._span(groups)
            _merge_into(meta.op, buf[cells], theirs[cells])
            if other._touched[groups] or (theirs[cells] != tables.identity[cells]).any():
                touched[groups] = True
            return
        if groups is None:
            cells = True  # a ufunc's ``where``: every element
        else:
            if not (isinstance(groups, np.ndarray) and groups.dtype == bool):
                ids, groups = self._group_ids(groups), np.zeros_like(touched)
                groups[ids] = True
            elif groups.shape != touched.shape:
                raise ReductionObjectError(
                    f"group mask {groups.shape} for {touched.size} groups"
                )
            cells = groups[tables.cell_group]
        for op in tables.kinds:
            sel = cells if len(tables.kinds) == 1 else cells & tables.op_cells[op]
            if op == "add":
                np.add(buf, theirs, out=buf, where=sel)
            else:
                _merge_into(op, buf, theirs, sel)
        # other.touched_mask() over the selection, inline: no call per
        # combine or epoch
        touched |= other._touched if groups is None else other._touched & groups
        touched[tables.cell_group[(theirs != tables.identity) & cells]] = True

    def touched_mask(self) -> np.ndarray:
        """One bool per group: did it receive at least one update?

        Every update API (accumulate, accumulate_group, batch updates, set,
        merges) marks the target group in an explicit bitmap, so a group is
        reported even when its accumulated value equals the op identity —
        the historic value-scan alone missed those (e.g. accumulating an
        exact 0.0 into an add group), which was safe for merge *values* but
        would silently drop the group from delta checkpoints.  The value scan is kept as a union term
        for objects whose buffer was filled out-of-band: writable
        :meth:`group_view` slices and ``from_layout(initialize=False)``
        wraps of worker-filled shared segments bypass the bitmap.

        This is also the one touched rule of a merge: :meth:`merge_from`
        marks the selected groups that ``other.touched_mask()`` reports.
        """
        if not self._groups:
            return np.zeros(0, dtype=bool)
        # a built layout is read without a call: an epoch asks this per commit
        return _written(self, self._layout or self._tables())

    def touched_groups(self) -> frozenset[int]:
        """The groups :meth:`touched_mask` sets."""
        return frozenset(self.touched_mask().nonzero()[0].tolist())

    # -- group arrays: delta commits, checkpoints, scratch resets -------------
    #
    # Each takes ascending, distinct group ids and costs a fixed number of
    # NumPy calls per accumulate op, however many groups it names.  A
    # selection is ``(op, groups, cells)`` per op: the op's groups and their
    # elements, as two slices when the groups are consecutive, else as the
    # ids and a bool mask over the buffer.

    def _group_ids(self, groups: "np.ndarray | Sequence[int]") -> np.ndarray:
        ids = np.asarray(groups, dtype=np.int64).reshape(-1)
        # ascending: the ends bound every id
        if ids.size and not 0 <= ids[0] <= ids[-1] < len(self._groups):
            raise ReductionObjectError(
                f"groups {ids.tolist()} not all allocated (have {len(self._groups)})"
            )
        return ids

    def _where(self, ids: np.ndarray) -> "tuple[slice | np.ndarray, slice | np.ndarray]":
        """``(groups, cells)`` selecting groups ``ids`` and their elements."""
        tables = self._tables()
        if not ids.size:
            return slice(0, 0), slice(0, 0)
        first, last = int(ids[0]), int(ids[-1])
        if last - first + 1 == ids.size:
            end = int(tables.offsets[last] + tables.nelems[last])
            return slice(first, last + 1), slice(int(tables.offsets[first]), end)
        picked = np.zeros(len(tables.metas), dtype=bool)
        picked[ids] = True
        return ids, picked[tables.cell_group]

    def _selection(self, groups: "np.ndarray | Sequence[int]") -> list:
        tables = self._tables()
        ids = self._group_ids(groups)
        if not ids.size:
            return []
        if len(tables.kinds) == 1:
            return [(tables.kinds[0], *self._where(ids))]
        codes = tables.opcodes[ids]
        parts = [(op, ids[codes == OP_CODES[op]]) for op in tables.kinds]
        return [(op, *self._where(mine)) for op, mine in parts if mine.size]

    def _check_same_layout(self, other: "ReductionObject", verb: str) -> _Layout:
        """The layout ``self`` and ``other`` share; refused if they do not."""
        tables = self._tables()
        # a built layout is compared without a call: a combine merges per run
        if (other._layout or other._tables()) is not tables:
            raise ReductionObjectError(
                f"cannot {verb} reduction objects with different layouts"
            )
        return tables

    def retract_groups(
        self, groups: "np.ndarray | Sequence[int]", other: "ReductionObject"
    ) -> None:
        """Undo the contributions ``other`` holds in ``groups`` (the inverse
        of :meth:`merge_from` over ``groups``).

        Unlike it, this does *not* take ``other.update_count`` back — the
        delta commit accounts for updates once per epoch.  Refused, before
        anything is written, when a group's op has no inverse; the delta
        executor replays those groups instead.
        """
        selection = self._selection(groups)
        self._check_same_layout(other, "retract")
        for op, groups, _ in selection:
            if op not in INVERTIBLE_ACCUMULATE_OPS:
                # ``groups`` is an id, a slice of ids or the ids themselves
                first = np.arange(len(self._groups))[groups].min()
                raise ReductionObjectError(
                    f"group {first} uses non-invertible op {op!r}: "
                    "cannot retract, re-reduce the group instead"
                )
        for op, _, cells in selection:
            self._buffer[cells] = _RETRACT_UFUNC[op](
                self._buffer[cells], other._buffer[cells]
            )

    def reset_groups(self, groups: "np.ndarray | Sequence[int]") -> None:
        """Return ``groups`` to the op identity, untouched (the replay
        prologue)."""
        where, cells = self._where(self._group_ids(groups))
        self._buffer[cells] = self._tables().identity[cells]
        self._touched[where] = False

    def reset_touched(self) -> None:
        """Empty the object, writing only what was written: every element
        whose bits differ from its op's identity (a ``-0.0`` too) back to it,
        the touched flags and the update count to zero — the state of a
        fresh :meth:`clone_empty`."""
        identity = self._tables().identity
        written = self._buffer.view(np.uint64) != identity.view(np.uint64)
        self._buffer[written] = identity[written]
        self._touched.fill(False)
        self.update_count = 0

    def commit_delta(
        self,
        tail: "ReductionObject | None",
        retract: "ReductionObject | None",
        hit: np.ndarray,
        replay: "ReductionObject | None",
        save: Callable[[np.ndarray, np.ndarray, np.ndarray, int], None],
        seam: Callable[[], None] | None = None,
        native: Any = None,
    ) -> None:
        """One delta epoch's checkpointed commit, in one pass.

        ``tail`` holds the appended elements' contributions and ``retract``
        the retracted elements' (``hit`` is its :meth:`touched_mask`, all
        False without one); ``replay`` holds the surviving elements
        re-reduced for ``hit``'s non-invertible groups.  Each is a
        same-layout scratch object, or None.  In order:

        1. ``save(groups, values, touched, hits)`` gets the pre-image of
           every group the commit writes — the union of the tail's groups
           and ``hit`` as a bool mask, their elements (group after group)
           and touched bits — and ``hits``, the groups both name;
        2. the tail's groups merge in (:meth:`merge_from`'s fold over
           that mask, without the count);
        3. ``seam()`` runs (a fault raised there must be rolled back);
        4. ``hit``'s invertible groups subtract ``retract``'s, one ufunc
           per op, and its non-invertible ones become ``replay``'s (the op
           applied to the identity, as a reset then a merge would);
        5. the update count gains the tail's and loses ``retract``'s.

        Whatever happens, each scratch object is then emptied over the
        groups it holds (flagged, or holding a value other than the
        identity): the state of a fresh :meth:`clone_empty`.

        ``native``, a session's bound C loops
        (:class:`~repro.freeride.delta.NativeEpoch` over this object and
        these scratch objects), runs steps 1–2 and 4 in C, the same bits;
        ``hit`` is then its own, from ``retract``.
        """
        if native is not None:
            return self._commit_native(native, tail, retract, replay, save, seam)
        tables = self._tables()
        cell_group, identity, kinds = tables.cell_group, tables.identity, tables.kinds
        one_op = len(kinds) == 1
        buf, touched = self._buffer, self._touched
        merged = rebuilt = None
        held = []  # (scratch object, the cells it holds)
        if tail is not None:
            merged = _written(tail, tables)
            held.append((tail, merged[cell_group]))
        if retract is not None:
            retracted = hit[cell_group]
            held.append((retract, retracted))
        if replay is not None:
            rebuilt = _written(replay, tables)
            held.append((replay, rebuilt[cell_group]))
        try:
            union = hit if merged is None else merged | hit
            save(
                union, buf[union[cell_group]], touched[union],
                0 if merged is None else len((merged & hit).nonzero()[0]),
            )
            if tail is not None:
                self._fold(tail, tables, merged)
            if seam is not None:
                seam()
            if retract is not None:
                for op in kinds:
                    if op in INVERTIBLE_ACCUMULATE_OPS:
                        sel = retracted if one_op else retracted & tables.op_cells[op]
                        _RETRACT_UFUNC[op](buf, retract._buffer, out=buf, where=sel)
            if replay is not None:
                # a replayed group is its replay alone: the identity folded
                # with a scratch that never holds NaN is the scratch's value
                replayed = hit & tables.noninvertible
                np.positive(replay._buffer, out=buf, where=replayed[cell_group])
                touched[replayed] = rebuilt[replayed]
            self.update_count += (tail.update_count if tail is not None else 0) - (
                retract.update_count if retract is not None else 0
            )
        finally:
            for scratch, cells in held:
                scratch._buffer[cells] = identity[cells]
                scratch._touched.fill(False)
                scratch.update_count = 0

    def _commit_native(
        self, native: Any, tail: "ReductionObject | None",
        retract: "ReductionObject | None", replay: "ReductionObject | None",
        save: Callable[[np.ndarray, np.ndarray, np.ndarray, int], None],
        seam: Callable[[], None] | None,
    ) -> None:
        """:meth:`commit_delta` through ``native``'s two C halves, the seam
        between them; the second half empties the scratch objects also
        when the first step or the seam raised."""
        bit = native.held
        held = (
            (bit["tail"] if tail is not None else 0)
            | (bit["retract"] if retract is not None else 0)
            | (bit["replay"] if replay is not None else 0)
        )
        gained = (tail.update_count if tail is not None else 0) - (
            retract.update_count if retract is not None else 0
        )
        ep = native.ep
        native.commit_save(ep, held)
        values, bits = native.values[: ep.saved_cells], native.bits[: ep.saved_groups]
        try:
            try:
                save(native.saved, values.copy(), bits.copy(), ep.hits)
            except BaseException:
                # no checkpoint holds this commit's pre-images: put them back
                self.set_groups(native.saved.nonzero()[0], values, bits)
                raise
            if seam is not None:
                seam()
        except BaseException:
            native.commit_apply(ep, held, 0)
            raise
        finally:
            for scratch in (tail, retract, replay):
                if scratch is not None:
                    scratch.update_count = 0
        native.commit_apply(ep, held, 1)
        self.update_count += gained

    def gather_groups(
        self, groups: "np.ndarray | Sequence[int]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Copies of ``groups``' elements (group after group) and touched
        bits — what :meth:`set_groups` writes back."""
        where, cells = self._where(self._group_ids(groups))
        return self._buffer[cells].copy(), self._touched[where].copy()

    def set_groups(
        self, groups: "np.ndarray | Sequence[int]", values: np.ndarray,
        touched: np.ndarray,
    ) -> None:
        """Overwrite ``groups`` with what :meth:`gather_groups` read
        (checkpoint rollback and restore)."""
        where, cells = self._where(self._group_ids(groups))
        self._buffer[cells] = values
        self._touched[where] = touched

    def is_touched(self, group: int) -> bool:
        """Read one bit of the explicit touched bitmap."""
        return bool(self._touched[self._meta(group).group_id])

    def snapshot(self) -> np.ndarray:
        """Copy of the whole dense buffer (for tests and checkpoints)."""
        return self._buffer.copy()

    def __repr__(self) -> str:
        return (
            f"ReductionObject(groups={self.num_groups}, elements={self.size}, "
            f"updates={self.update_count})"
        )
