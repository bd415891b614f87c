"""Linearization — the paper's Algorithms 1 and 2.

FREERIDE exposes a dense-buffer view of data; Chapel allows arbitrarily
nested structures.  Linearization bridges them:

* :func:`compute_linearize_size` (Algorithm 1) recursively computes the
  packed byte size of a nested value — dispatching on primitive / iterative
  (array) / structure (record, tuple) types exactly as the paper's
  pseudo-code does;
* :func:`linearize_it` (Algorithm 2) allocates ``typ.sizeof`` bytes and
  copies every scalar to its depth-first offset in them, producing a
  :class:`LinearizedBuffer`;
* :func:`delinearize` is the inverse (rebuild the nested value), used by
  round-trip tests and by applications that need results back in Chapel
  form.

Algorithm 2 runs first as one C call: the linearizer walker
(:func:`repro.compiler.native.linearizer`) walks the value depth first
against a plan of its type (:func:`_walk_plan`, built once per type
object), checks each nested value as :func:`_pack` would and writes each
scalar at its offset in the same pass.  It packs only what ``_pack`` packs
to the same bytes, read in place: instances of exactly the node's value
class, element and member lists that are an exact ``list`` of the node's
length (a record's members by position, as a tuple's), ``real`` and ``int``
leaves held as an exact ``float`` / ``int``, and primitive backings that
are exact 1-D, C-contiguous, aligned ``numpy.ndarray`` objects of the right
length holding the element type's own dtype object.  Whatever it refuses,
a type with another leaf, and a process without a walker go to ``_pack``
from scratch — the oracle the walker is tested against, and the path that
raises the errors.

``_pack`` visits Algorithm 2 level by level, not value by value: the type is
known before the data, and in the packed layout all instances of one type
node lie a fixed stride apart, so they are the rows of one byte view.  A
member is a column slice of it, an array's elements split its last axis, and
a leaf column is one typed numpy assignment.  Every scalar lands at the
offset the depth-first walk gives it; only the order of the writes differs.

Copy work is charged to an :class:`~repro.machine.counters.OpCounters`
ledger (``bytes_linearized``), because sequential linearization is the
scalability limit the paper observes for the opt-2 version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chapel.domains import Domain
from repro.chapel.types import (
    ArrayType,
    ChapelType,
    EnumType,
    PrimitiveType,
    RecordType,
    StringType,
    TupleType,
)
from repro.chapel.values import ChapelArray, ChapelRecord, ChapelTuple
from repro.machine.counters import OpCounters
from repro.util.errors import LinearizationError

__all__ = [
    "compute_linearize_size",
    "linearize_it",
    "linearize_append",
    "delinearize",
    "LinearizedBuffer",
]

#: per composite type class: the value class and the attribute holding its
#: parts (a structure's is a list of its members, in declaration order)
_HOLDS = {
    ArrayType: (ChapelArray, "_storage"),
    RecordType: (ChapelRecord, "_values"),
    TupleType: (ChapelTuple, "_elts"),
}
#: where a node sits in the type: a str is a member suffix, an int an array level's extent
_Path = tuple[str | int, ...]


def compute_linearize_size(value: Any, typ: ChapelType) -> int:
    """Algorithm 1: the packed byte size of ``value`` under type ``typ``.

    Recursive over the value so that (in a Chapel with runtime domains) the
    size reflects the data actually present; for the fixed-shape types of
    this substrate it equals ``typ.sizeof`` (tests assert it), which is what
    :func:`linearize_it` allocates.
    """
    if typ.is_primitive:
        return typ.sizeof
    (parts,) = _contents([value], typ, ())
    if isinstance(typ, ArrayType):
        return sum(compute_linearize_size(x, typ.elt) for x in parts)
    return sum(compute_linearize_size(parts[key], t) for key, _, t, _ in _members(typ))


@dataclass
class LinearizedBuffer:
    """The dense memory buffer Algorithm 2 produces.

    ``raw`` is a byte array; scalars live at packed offsets.  Typed numpy
    views over contiguous runs (``typed_view``) are what the opt-1
    strength-reduction exploits: "the inner-most level of the data is
    continuous".
    """

    typ: ChapelType
    raw: np.ndarray  # uint8
    #: how :func:`linearize_it` packed it: ``"c"``, or why ``_pack`` did
    #: (see there); None for a buffer it did not make
    walk: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.raw.dtype != np.uint8:
            raise LinearizationError("LinearizedBuffer requires a uint8 backing array")
        # capacity-doubled backing storage, allocated by the first grow();
        # when present, ``raw`` is always a prefix view of it
        self._backing: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return int(self.raw.size)

    @property
    def capacity(self) -> int:
        """Bytes available without reallocating (== nbytes before any grow)."""
        return int(self._backing.size) if self._backing is not None else self.nbytes

    def grow(self, new_nbytes: int) -> None:
        """Extend ``raw`` to ``new_nbytes``, preserving the existing prefix.

        Within capacity this is O(1) — ``raw`` just becomes a longer view
        of the backing array, so the unchanged prefix is never copied or
        re-walked.  Past capacity the backing doubles (amortized O(1) per
        appended byte), and the bytes so far are copied into it.

        The grown bytes are *not* initialised: the backing is allocated
        uninitialised, and after a :meth:`shrink` they hold whatever the
        dropped suffix held.  The caller writes every byte it grows before
        anything reads it (``linearize_append`` and
        ``BoundReduction.append_elements`` do), and the bytes between
        ``raw.size`` and :attr:`capacity` are never read — every accessor
        is bounded by ``raw.size``.
        """
        if new_nbytes < self.raw.size:
            raise LinearizationError(
                f"grow({new_nbytes}) would shrink a {self.raw.size}-byte buffer"
            )
        if self._backing is None or self._backing.size < new_nbytes:
            cap = max(new_nbytes, 2 * self.raw.size, 64)
            backing = np.empty(cap, dtype=np.uint8)
            backing[: self.raw.size] = self.raw
            self._backing = backing
        self.raw = self._backing[: new_nbytes]

    def shrink(self, new_nbytes: int) -> None:
        """Roll ``raw`` back to a shorter prefix (failed append batch)."""
        if not 0 <= new_nbytes <= self.raw.size:
            raise LinearizationError(
                f"shrink({new_nbytes}) outside [0, {self.raw.size}]"
            )
        self.raw = self.raw[:new_nbytes]

    def read_scalar(self, offset: int, prim: PrimitiveType | StringType | EnumType) -> Any:
        """Read one typed scalar at a byte offset."""
        return _unpack(prim, self.slice_bytes(offset, prim.sizeof).reshape(1, -1))[0]

    def write_scalar(
        self, offset: int, prim: PrimitiveType | StringType | EnumType, value: Any
    ) -> None:
        """Write one typed scalar at a byte offset."""
        _pack([value], prim, self.slice_bytes(offset, prim.sizeof).reshape(1, -1), ())

    def typed_view(self, offset: int, dtype: np.dtype, count: int) -> np.ndarray:
        """A zero-copy typed view of ``count`` contiguous scalars."""
        dtype = np.dtype(dtype)
        return self.slice_bytes(offset, dtype.itemsize * count).view(dtype)

    def slice_bytes(self, offset: int, size: int) -> np.ndarray:
        """A zero-copy byte view (e.g. one chunk of elements)."""
        if offset < 0 or offset + size > self.raw.size:
            raise LinearizationError(
                f"access [{offset}, {offset + size}) outside buffer of {self.raw.size} bytes"
            )
        return self.raw[offset : offset + size]


def linearize_it(
    value: Any,
    typ: ChapelType,
    counters: OpCounters | None = None,
) -> LinearizedBuffer:
    """Algorithm 2: copy a nested value into a fresh dense buffer.

    The C walker packs it in one call where it can; otherwise :func:`_pack`
    does, and ``buf.walk`` says why: ``"unsupported_type"`` (a leaf only
    ``_pack`` converts), ``"building"`` or ``"unavailable"`` (no walker in
    this process, :func:`repro.compiler.native.linearizer`) or
    ``"refused"`` (a nested value the walker does not take as it is).
    Charges ``bytes_linearized`` to ``counters`` when given.  Raises
    :class:`LinearizationError`, naming the path, for the first nested
    value that is not an instance of its declared type.
    """
    buf = LinearizedBuffer(typ=typ, raw=np.zeros(typ.sizeof, dtype=np.uint8))
    buf.walk = _walk(value, typ, buf.raw)
    if buf.walk != "c":
        _pack([value], typ, buf.raw.reshape(1, typ.sizeof), ())
    if counters is not None:
        counters.bytes_linearized += typ.sizeof
    return buf


#: The walker's plan node kinds, in the order of its C ``enum``.
_W_REAL, _W_INT, _W_PRIMS, _W_ARRAY, _W_STRUCT = range(5)
#: the scalar leaves it packs itself: an exact float, an exact non-bool int
_W_LEAVES = {np.dtype(np.float64): _W_REAL, np.dtype(np.int64): _W_INT}


def _walk(value: Any, typ: ChapelType, raw: np.ndarray) -> str:
    """Pack ``value`` into ``raw`` with the C walker: ``"c"``, or why
    :func:`_pack` must (after a refusal ``raw`` is zeroed again)."""
    from repro.compiler import native  # on first use, as translate.py imports it

    plan = _walk_plan(typ)
    if plan is None:
        return "unsupported_type"
    walk, why = native.linearizer()
    if walk is None:
        return why
    if walk(plan, value, raw):
        return "c"
    raw.fill(0)
    return "refused"


def _walk_plan(typ: ChapelType) -> tuple | None:
    """The walker's plan of ``typ``: nested tuples laid out as
    ``native/walk.c`` reads them.  None when a leaf is one only
    :func:`_pack` converts — an enum, a string, or a scalar other than
    ``real`` and ``int`` outside an array's backing.

    Kept on ``typ`` itself, as ``cached_property`` keeps a value: the plan's
    type slots are the very objects the caller declared, so a value built
    against them passes the walker's ``is`` check, never a type ``__eq__``.
    A primitive backing must hold the element type's dtype object itself,
    which is NumPy's own for a builtin dtype; a type pickles without its
    plan (``ChapelType.__getstate__``), so an unpickled one plans afresh.
    """
    try:
        return typ.__dict__["_walk_plan"]
    except KeyError:
        plan = _plan_of(typ)
        object.__setattr__(typ, "_walk_plan", plan)  # the types are frozen
        return plan


def _plan_of(typ: ChapelType) -> tuple | None:
    if typ.is_primitive:
        kind = _W_LEAVES.get(typ.dtype) if isinstance(typ, PrimitiveType) else None
        return None if kind is None else (kind, typ.sizeof)
    if type(typ) not in _HOLDS:
        return None
    cls, attr = _HOLDS[type(typ)]
    head = (typ.sizeof, typ, cls, attr)
    if isinstance(typ, ArrayType):
        if isinstance(typ.elt, PrimitiveType):  # a backing holds this very dtype object
            return (_W_PRIMS, *head, typ.domain.size, typ.elt.dtype)
        elt = _walk_plan(typ.elt)
        return None if elt is None else (_W_ARRAY, *head, typ.domain.size, elt)
    members = tuple((off, _walk_plan(t)) for _, _, t, off in _members(typ))
    if any(node is None for _, node in members):
        return None
    return (_W_STRUCT, *head, members)


def _where(path: _Path, k: int | None) -> str:
    """Name instance ``k`` (None: all) of the node at ``path``: ``data[2].coord``, 0-based."""
    parts = []
    for step in reversed(path):
        if isinstance(step, int):
            k, pos = (None, "*") if k is None else divmod(k, step)
            step = f"[{pos}]"
        parts.append(step)
    return "data" + "".join(reversed(parts))


def _contents(values: list[Any], typ: ChapelType, path: _Path) -> list[Any]:
    """Each instance's element storage or member list, once all are values of
    ``typ`` and every member list is the type's length."""
    if type(typ) not in _HOLDS:
        raise LinearizationError(f"cannot linearize type {typ!r}")
    cls, attr = _HOLDS[type(typ)]
    for k, v in enumerate(values):
        if not isinstance(v, cls) or (v.type is not typ and v.type != typ):
            got = v.type if isinstance(v, cls) else type(v).__name__
            raise LinearizationError(f"{_where(path, k)}: expected {typ}, got {got}")
    parts = [getattr(v, attr) for v in values]
    if not isinstance(typ, ArrayType):  # a structure
        n = len(_members(typ))
        for k, members in enumerate(parts):
            if len(members) != n:
                raise LinearizationError(
                    f"{_where(path, k)}: {typ} holds {len(members)} of {n} members"
                )
    return parts


def _members(typ: RecordType | TupleType) -> list[tuple[int, str, ChapelType, int]]:
    """``(position, path suffix, type, byte offset)`` of each member of a structure type."""
    if isinstance(typ, RecordType):
        return [(i, f".{n}", t, typ.field_offset(n)) for i, (n, t) in enumerate(typ.fields)]
    return [(i, f"({i})", t, typ.component_offset(i)) for i, t in enumerate(typ.elts)]


def _column(values: Any, dtype: np.dtype, shape: tuple[int, ...], path: _Path) -> np.ndarray:
    """``values`` as one ``dtype`` array of ``shape``; numpy's refusal, named by path."""
    try:
        return np.asarray(values, dtype=dtype).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise LinearizationError(f"{_where(path, None)}: not {shape} {dtype}: {exc}") from exc


def _pack(values: list[Any], typ: ChapelType, out: np.ndarray, path: _Path) -> None:
    """Copy every instance of one type node into the buffer, in one step.

    ``values`` lists all instances of ``typ``; ``out`` is the
    ``(..., typ.sizeof)`` byte view they land in, one row each, in row-major
    order of its leading axes.
    """
    lead = out.shape[:-1]
    if typ.is_primitive:
        if not isinstance(typ, PrimitiveType):  # enum, string: validated per value
            values = [typ.coerce(v) for v in values]
        out.view(typ.dtype)[...] = _column(values, typ.dtype, lead + (1,), path)
        return
    parts = _contents(values, typ, path)
    if not isinstance(typ, ArrayType):  # a structure: one column per member
        for key, suffix, mtype, off in _members(typ):
            column = out[..., off : off + mtype.sizeof]
            _pack([p[key] for p in parts], mtype, column, path + (suffix,))
    elif typ.elt.is_primitive:  # the numpy backings are already row-major
        n, dtype = typ.domain.size, typ.elt.dtype
        out.view(dtype)[...] = _column(parts, dtype, lead + (n,), path)
    else:  # every element of every instance is an instance of the element node
        n, elt = typ.domain.size, typ.elt
        for k, store in enumerate(parts):
            if len(store) != n:
                raise LinearizationError(f"{_where(path, k)}: {typ} stores {len(store)} elements")
        kids = [x for store in parts for x in store]
        _pack(kids, elt, out.reshape(lead + (n, elt.sizeof)), path + (n,))


def _unpack(typ: ChapelType, out: np.ndarray) -> list[Any]:
    """The inverse of :func:`_pack`: the instances of ``typ`` held in ``out``, rebuilt."""
    lead = out.shape[:-1]
    if isinstance(typ, StringType):
        return [bytes(row) for row in np.array(out).reshape(-1, typ.width)]
    if typ.is_primitive:
        return out.view(typ.dtype).reshape(-1).tolist()
    if isinstance(typ, ArrayType):
        count, n, elt = math.prod(lead), typ.domain.size, typ.elt
        if elt.is_primitive:  # each array owns one row of a fresh copy
            rows = np.array(out.view(elt.dtype)).reshape(count, n)
            return [ChapelArray(typ, row) for row in rows]
        kids = _unpack(elt, out.reshape(lead + (n, elt.sizeof)))
        return [ChapelArray(typ, kids[i * n : (i + 1) * n]) for i in range(count)]
    columns = [_unpack(t, out[..., off : off + t.sizeof]) for _, _, t, off in _members(typ)]
    if isinstance(typ, TupleType):
        return [ChapelTuple(typ, comps) for comps in zip(*columns)]
    return [ChapelRecord.from_values(typ, list(row)) for row in zip(*columns)]


def linearize_append(
    buf: LinearizedBuffer,
    value: Any,
    counters: OpCounters | None = None,
) -> int:
    """Extend an array-typed buffer with more elements, in place.

    The complement of :func:`linearize_it` for the delta path: only the
    appended elements are walked and copied — the already-linearized
    prefix is left untouched (see :meth:`LinearizedBuffer.grow`).
    ``value`` must be a :class:`~repro.chapel.values.ChapelArray` with the
    same element type as the buffer.  Updates ``buf.typ`` to the extended
    domain and returns the new element count; a refused value leaves the
    buffer as it was.
    """
    typ = buf.typ
    if not isinstance(typ, ArrayType):
        raise LinearizationError(
            f"linearize_append requires an array-typed buffer, got {typ!r}"
        )
    if not isinstance(value, ChapelArray) or value.type.elt != typ.elt:
        raise LinearizationError(
            f"expected a ChapelArray of {typ.elt} elements to append, "
            f"got {getattr(value, 'type', type(value))}"
        )
    packed = linearize_it(value, value.type, counters).raw  # refused before buf is touched
    offset = buf.raw.size
    buf.grow(offset + packed.size)
    buf.raw[offset:] = packed
    new_count = typ.domain.size + value.type.domain.size
    buf.typ = ArrayType(Domain(new_count), typ.elt)
    return new_count


def delinearize(buf: LinearizedBuffer) -> Any:
    """Rebuild the nested Chapel value from a linearized buffer."""
    if buf.nbytes != buf.typ.sizeof:
        raise LinearizationError(f"{buf.typ} takes {buf.typ.sizeof} bytes, not {buf.nbytes}")
    return _unpack(buf.typ, buf.raw.reshape(1, buf.nbytes))[0]
