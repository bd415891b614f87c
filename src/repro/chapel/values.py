"""Runtime values for the mini-Chapel substrate.

These model the *nested, pointer-rich* data structures the paper's
linearization exists to eliminate: a ``ChapelArray`` of ``ChapelRecord``s of
``ChapelArray``s is a genuinely indirected object graph (Python lists of
objects holding lists of members), so accessing ``data[i].b1[j].a1[k]``
really does chase pointers — exactly the cost the opt-2 transformation
removes.

Arrays over primitive element types are backed by numpy for speed; arrays of
composite elements are backed by Python object lists, preserving the
indirection structure.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

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
from repro.util.errors import ChapelTypeError, DomainError

__all__ = [
    "ChapelArray",
    "ChapelRecord",
    "ChapelTuple",
    "default_value",
    "from_python",
    "to_python",
    "get_path",
    "set_path",
]


class ChapelArray:
    """A Chapel array value: a domain plus element storage.

    Indexing uses Chapel indices (whatever the domain declares, typically
    1-based): ``a[1]``, ``m[2, 3]``.
    """

    __slots__ = ("type", "_storage", "_numpy_backed")

    def __init__(self, typ: ArrayType, storage: object | None = None) -> None:
        self.type = typ
        self._numpy_backed = typ.elt.is_primitive
        if storage is not None:
            self._storage = storage
            return
        if self._numpy_backed:
            dtype = typ.elt.dtype  # type: ignore[union-attr]
            self._storage = np.zeros(typ.domain.size, dtype=dtype)
        else:
            self._storage = [default_value(typ.elt) for _ in range(typ.domain.size)]

    @property
    def domain(self) -> Domain:
        return self.type.domain

    def _flat(self, index: object) -> int:
        """Row-major position of a Chapel index — an ``int`` or a tuple of
        ``int``s, one per dimension — checked and converted in one pass."""
        idx = index if isinstance(index, tuple) else (index,)
        ranges = self.domain.ranges
        if len(idx) == len(ranges):
            pos = 0
            for i, r in zip(idx, ranges):
                if (not isinstance(i, int) or isinstance(i, bool)
                        or not r.low <= i <= r.high or (i - r.low) % r.stride):
                    break
                pos = pos * len(r) + (i - r.low) // r.stride
            else:
                return pos
        raise DomainError(f"index {index!r} not in domain {self.domain}")

    def __getitem__(self, index: object) -> Any:
        flat = self._flat(index)
        if self._numpy_backed:
            raw = self._storage[flat]
            return raw.item() if hasattr(raw, "item") else raw
        return self._storage[flat]

    def __setitem__(self, index: object, value: Any) -> None:
        flat = self._flat(index)
        if self._numpy_backed:
            elt = self.type.elt
            if isinstance(elt, (PrimitiveType, StringType, EnumType)):
                value = elt.coerce(value)
            self._storage[flat] = value
        else:
            self._storage[flat] = value

    def __len__(self) -> int:
        return self.domain.size

    def elements(self) -> Iterator[Any]:
        """Yield elements in row-major (linearization) order."""
        if self._numpy_backed:
            for raw in self._storage:
                yield raw.item() if hasattr(raw, "item") else raw
        else:
            yield from self._storage

    def __iter__(self) -> Iterator[Any]:
        return self.elements()

    def as_numpy(self) -> np.ndarray:
        """Return the backing numpy array (primitive element types only)."""
        if not self._numpy_backed:
            raise ChapelTypeError(
                f"array of {self.type.elt} has no dense numpy backing"
            )
        return self._storage.reshape(self.domain.shape)

    def fill_from(self, values: Sequence[Any] | np.ndarray) -> "ChapelArray":
        """Fill in row-major order from a flat sequence; returns self."""
        vals = list(values) if not isinstance(values, np.ndarray) else values
        if len(vals) != self.domain.size:
            raise ChapelTypeError(
                f"expected {self.domain.size} values, got {len(vals)}"
            )
        if self._numpy_backed:
            self._storage[:] = np.asarray(vals).reshape(-1)
        else:
            self._storage = list(vals)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChapelArray):
            return NotImplemented
        if self.type != other.type:
            return False
        if self._numpy_backed:
            return bool(np.array_equal(self._storage, other._storage))
        return list(self.elements()) == list(other.elements())

    def __repr__(self) -> str:
        return f"ChapelArray({self.type}, n={len(self)})"

    def __reduce__(self) -> tuple:
        return _unpickle_array, (self.type, self._storage)


def _unpickle_array(typ: ArrayType, storage: Any) -> ChapelArray:
    """A pickled array: its backing comes back with a fresh dtype object equal
    to its element type's, and is viewed as that type's own again (the
    linearizer walker accepts a backing only by dtype identity)."""
    elt = typ.elt
    if isinstance(elt, PrimitiveType) and isinstance(storage, np.ndarray):
        if storage.dtype == elt.dtype:
            storage = storage.view(elt.dtype)
    return ChapelArray(typ, storage)


class ChapelRecord:
    """A Chapel record value: typed named members, attribute access.

    The members are a list in field-declaration order, as a tuple's
    components are; a name is read through ``RecordType.field_index``.
    """

    __slots__ = ("type", "_values")

    def __init__(self, typ: RecordType, **values: Any) -> None:
        object.__setattr__(self, "type", typ)
        object.__setattr__(self, "_values", [default_value(t) for _, t in typ.fields])
        for name, value in values.items():
            setattr(self, name, value)

    @classmethod
    def from_values(cls, typ: RecordType, values: list[Any]) -> "ChapelRecord":
        """A record over already-converted member values in field order: no
        defaults, no coercion."""
        rec = cls.__new__(cls)
        rec.__setstate__((typ, values))
        return rec

    def __getattr__(self, name: str) -> Any:
        if name in _RECORD_SLOTS:  # an unset slot: never look it up again
            raise AttributeError(f"record slot {name!r} is not set")
        try:
            return self._values[self.type.field_index[name]]
        except KeyError:
            raise AttributeError(f"record {self.type.name} has no field {name!r}") from None

    def __setattr__(self, name: str, value: Any) -> None:
        try:
            index = self.type.field_index[name]
        except KeyError:
            raise AttributeError(f"record {self.type.name} has no field {name!r}") from None
        ftype = self.type.fields[index][1]
        if isinstance(ftype, (PrimitiveType, StringType, EnumType)):
            value = ftype.coerce(value)
        self._values[index] = value

    def field(self, name: str) -> Any:
        return getattr(self, name)

    # ``__slots__`` plus the guarded ``__setattr__`` breaks pickle's default
    # slot-state restore (it setattrs before ``_values`` exists); records
    # must pickle cleanly because process-mode kernel extras carry them.
    def __getstate__(self) -> tuple[Any, list[Any]]:
        return (self.type, self._values)

    def __setstate__(self, state: tuple[Any, list[Any]]) -> None:
        typ, values = state
        object.__setattr__(self, "type", typ)
        object.__setattr__(self, "_values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChapelRecord):
            return NotImplemented
        return self.type == other.type and self._values == other._values

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self.type.field_names, self._values))
        return f"{self.type.name}({inner})"


_RECORD_SLOTS = frozenset(ChapelRecord.__slots__)


class ChapelTuple:
    """A Chapel tuple value with 0-based component access."""

    __slots__ = ("type", "_elts")

    def __init__(self, typ: TupleType, values: Sequence[Any] | None = None) -> None:
        self.type = typ
        if values is None:
            self._elts = [default_value(t) for t in typ.elts]
        else:
            if len(values) != len(typ.elts):
                raise ChapelTypeError(
                    f"tuple of arity {len(typ.elts)} given {len(values)} values"
                )
            self._elts = []
            for t, v in zip(typ.elts, values):
                if isinstance(t, (PrimitiveType, StringType, EnumType)):
                    v = t.coerce(v)
                self._elts.append(v)

    def __getitem__(self, index: int) -> Any:
        return self._elts[index]

    def __setitem__(self, index: int, value: Any) -> None:
        t = self.type.elts[index]
        if isinstance(t, (PrimitiveType, StringType, EnumType)):
            value = t.coerce(value)
        self._elts[index] = value

    def __len__(self) -> int:
        return len(self._elts)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._elts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChapelTuple):
            return NotImplemented
        return self.type == other.type and self._elts == other._elts

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(e) for e in self._elts) + ")"


def default_value(typ: ChapelType) -> Any:
    """Chapel's default-initialized value for a type (zeros everywhere)."""
    if isinstance(typ, StringType):
        return b"\x00" * typ.width
    if isinstance(typ, EnumType):
        return 0
    if isinstance(typ, PrimitiveType):
        return typ.coerce(0)
    if isinstance(typ, ArrayType):
        return ChapelArray(typ)
    if isinstance(typ, RecordType):
        return ChapelRecord(typ)
    if isinstance(typ, TupleType):
        return ChapelTuple(typ)
    raise ChapelTypeError(f"no default value for {typ!r}")


def from_python(typ: ChapelType, obj: Any) -> Any:
    """Build a Chapel value of ``typ`` from plain Python data.

    Lists/arrays fill Chapel arrays in row-major order, dicts fill records,
    tuples/lists fill tuples, scalars coerce to primitives.
    """
    if isinstance(typ, (PrimitiveType, StringType, EnumType)):
        return typ.coerce(obj)
    if isinstance(typ, ArrayType):
        flat = _flatten_for_array(typ, obj)
        elt = typ.elt
        if not elt.is_primitive:
            return ChapelArray(typ, [from_python(elt, v) for v in flat])
        if not isinstance(elt, PrimitiveType):  # enum, string: validated per value
            flat = [elt.coerce(v) for v in flat]  # type: ignore[union-attr]
        storage = np.asarray(flat, dtype=elt.dtype)  # type: ignore[union-attr]
        if storage.shape != (len(flat),):
            raise ChapelTypeError(f"array {typ}: elements must be {elt} scalars")
        return ChapelArray(typ, storage)
    if isinstance(typ, RecordType):
        if not isinstance(obj, dict):
            raise ChapelTypeError(f"record {typ.name} needs a dict, got {type(obj)}")
        values = []
        for name, ftype in typ.fields:
            if name not in obj:
                raise ChapelTypeError(f"missing field {name!r} for record {typ.name}")
            values.append(from_python(ftype, obj[name]))
        return ChapelRecord.from_values(typ, values)
    if isinstance(typ, TupleType):
        seq = list(obj)
        return ChapelTuple(typ, [from_python(t, v) for t, v in zip(typ.elts, seq)])
    raise ChapelTypeError(f"cannot build value of type {typ!r}")


def _flatten_for_array(typ: ArrayType, obj: Any) -> list[Any]:
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if not isinstance(obj, (list, tuple)):
        raise ChapelTypeError(f"array {typ} needs a sequence, got {type(obj)}")
    shape = typ.domain.shape
    if len(shape) == 1:
        flat = list(obj)
    else:
        flat = []
        stack: list[tuple[Any, int]] = [(obj, 0)]
        # Depth-first, preserving row-major order.
        def walk(node: Any, dim: int) -> None:
            if dim == len(shape):
                flat.append(node)
                return
            if not isinstance(node, (list, tuple)) or len(node) != shape[dim]:
                raise ChapelTypeError(
                    f"array {typ}: expected length-{shape[dim]} sequence at dim {dim}"
                )
            for child in node:
                walk(child, dim + 1)

        del stack
        walk(obj, 0)
    if len(flat) != typ.domain.size:
        raise ChapelTypeError(
            f"array {typ}: expected {typ.domain.size} values, got {len(flat)}"
        )
    return flat


def to_python(value: Any) -> Any:
    """Convert a Chapel value back to plain Python data (row-major lists)."""
    if isinstance(value, ChapelArray):
        flat = [to_python(v) for v in value.elements()]
        return _reshape(flat, value.domain.shape)
    if isinstance(value, ChapelRecord):
        return {n: to_python(v) for n, v in zip(value.type.field_names, value._values)}
    if isinstance(value, ChapelTuple):
        return tuple(to_python(v) for v in value)
    return value


def _reshape(flat: list[Any], shape: tuple[int, ...]) -> list[Any]:
    if len(shape) == 1:
        return flat
    inner = 1
    for s in shape[1:]:
        inner *= s
    return [
        _reshape(flat[i * inner : (i + 1) * inner], shape[1:]) for i in range(shape[0])
    ]


def get_path(value: Any, path: tuple[tuple[str, object], ...]) -> Any:
    """Follow a :class:`~repro.chapel.types.ScalarSlot` path into a value."""
    cur = value
    for kind, key in path:
        if kind == "field":
            cur = getattr(cur, key)  # type: ignore[arg-type]
        elif kind == "index":
            cur = cur[key]
        elif kind == "component":
            cur = cur[key]  # type: ignore[index]
        else:
            raise ChapelTypeError(f"unknown path step {kind!r}")
    return cur


def set_path(value: Any, path: tuple[tuple[str, object], ...], new: Any) -> None:
    """Set the scalar at a path (inverse of :func:`get_path`)."""
    if not path:
        raise ChapelTypeError("cannot set an empty path")
    parent = get_path(value, path[:-1])
    kind, key = path[-1]
    if kind == "field":
        setattr(parent, key, new)  # type: ignore[arg-type]
    elif kind in ("index", "component"):
        parent[key] = new
    else:
        raise ChapelTypeError(f"unknown path step {kind!r}")
