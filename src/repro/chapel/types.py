"""The mini-Chapel type system.

Only the parts of Chapel's type system that the paper's translation needs are
modeled: primitive types (numeric, bool, string, enumerated), rectangular
arrays over domains, records (Chapel ``record``, compiled to a C ``struct``),
and tuples.  Every type knows its **packed byte size**, because FREERIDE views
data as a dense memory buffer and the linearization algorithms (Algorithms 1
and 2 in the paper) are defined in terms of byte sizes and byte offsets.

The layout is packed (no alignment padding): the paper's ``linearizeIt``
copies values one after another into a contiguous allocation, which is
exactly a packed layout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Iterator

import numpy as np

from repro.chapel.domains import Domain
from repro.util.errors import ChapelTypeError

__all__ = [
    "ChapelType",
    "PrimitiveType",
    "StringType",
    "EnumType",
    "ArrayType",
    "RecordType",
    "TupleType",
    "INT",
    "INT32",
    "UINT",
    "REAL",
    "REAL32",
    "BOOL",
    "array_of",
    "record",
    "scalar_layout",
    "ScalarSlot",
]


class ChapelType:
    """Base class for all mini-Chapel types."""

    @property
    def sizeof(self) -> int:
        """Packed size of one value of this type, in bytes."""
        raise NotImplementedError

    @property
    def is_primitive(self) -> bool:
        return False

    @property
    def is_iterative(self) -> bool:
        """True for collection types iterated by ``linearizeIt`` (arrays)."""
        return False

    @property
    def is_structure(self) -> bool:
        """True for member-carrying types (records, tuples)."""
        return False

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return self.__class__.__name__

    def __getstate__(self) -> dict[str, Any]:
        # a type pickles as its fields: what is cached on it (sizes, offsets,
        # the linearizer's plan) is rebuilt where it is unpickled
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class PrimitiveType(ChapelType):
    """A fixed-width scalar type mapped directly to a numpy dtype.

    The paper: "The linearization of primitive types in Chapel, such as
    numeric (int, real), bool, string, and enumerated is straightforward, as
    these are single elements that are mapped directly to the intermediate C
    code."
    """

    name: str
    dtype: np.dtype

    def __init__(self, name: str, dtype: str | np.dtype) -> None:
        object.__setattr__(self, "name", name)
        dtype = np.dtype(dtype)
        own = np.dtype(dtype.str)  # NumPy's own object for a builtin dtype
        object.__setattr__(self, "dtype", own if own == dtype else dtype)

    def __reduce__(self) -> tuple:
        # through __init__: a pickled dtype comes back as a fresh, equal
        # object, and the type holds NumPy's own again
        return PrimitiveType, (self.name, self.dtype)

    @property
    def sizeof(self) -> int:
        return self.dtype.itemsize

    @property
    def is_primitive(self) -> bool:
        return True

    def coerce(self, value: object) -> object:
        """Coerce a Python value to this type's scalar domain."""
        return self.dtype.type(value).item()

    def __str__(self) -> str:
        return self.name


#: Chapel ``int`` (default 64-bit).
INT = PrimitiveType("int", np.int64)
#: Chapel ``int(32)``.
INT32 = PrimitiveType("int(32)", np.int32)
#: Chapel ``uint``.
UINT = PrimitiveType("uint", np.uint64)
#: Chapel ``real`` (default 64-bit).
REAL = PrimitiveType("real", np.float64)
#: Chapel ``real(32)``.
REAL32 = PrimitiveType("real(32)", np.float32)
#: Chapel ``bool`` (one byte, like C99 ``_Bool``).
BOOL = PrimitiveType("bool", np.uint8)


@dataclass(frozen=True)
class StringType(ChapelType):
    """A fixed-width string.

    Chapel strings are variable length; FREERIDE's dense-buffer view needs a
    fixed width, so the translator pads/truncates to ``width`` bytes.  This is
    the standard substitution for fixed-record middleware and is documented in
    DESIGN.md.  Note: numpy ``S``-dtype backed arrays strip trailing NULs on
    read, so the logical value of an array element is the unpadded content;
    the linearized buffer always holds the full fixed-width slot.
    """

    width: int = 32

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ChapelTypeError("string width must be positive")

    @property
    def sizeof(self) -> int:
        return self.width

    @property
    def is_primitive(self) -> bool:
        return True

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(f"S{self.width}")

    def coerce(self, value: object) -> bytes:
        raw = value.encode() if isinstance(value, str) else bytes(value)  # type: ignore[arg-type]
        return raw[: self.width].ljust(self.width, b"\x00")

    def __str__(self) -> str:
        return f"string({self.width})"


@dataclass(frozen=True)
class EnumType(ChapelType):
    """A Chapel enumerated type, stored as a 64-bit ordinal."""

    name: str
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ChapelTypeError(f"enum {self.name} needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ChapelTypeError(f"enum {self.name} has duplicate members")

    @property
    def sizeof(self) -> int:
        return INT.sizeof

    @property
    def is_primitive(self) -> bool:
        return True

    @property
    def dtype(self) -> np.dtype:
        return INT.dtype

    def ordinal(self, member: str) -> int:
        try:
            return self.members.index(member)
        except ValueError:
            raise ChapelTypeError(f"{member!r} is not a member of enum {self.name}")

    def member(self, ordinal: int) -> str:
        if not 0 <= ordinal < len(self.members):
            raise ChapelTypeError(f"ordinal {ordinal} out of range for {self.name}")
        return self.members[ordinal]

    def coerce(self, value: object) -> int:
        if isinstance(value, str):
            return self.ordinal(value)
        if isinstance(value, int) and not isinstance(value, bool):
            self.member(value)
            return value
        raise ChapelTypeError(f"cannot coerce {value!r} to enum {self.name}")

    def __str__(self) -> str:
        return f"enum {self.name}"


@dataclass(frozen=True)
class ArrayType(ChapelType):
    """A rectangular Chapel array ``[domain] eltType``."""

    domain: Domain
    elt: ChapelType

    @cached_property
    def sizeof(self) -> int:
        return self.domain.size * self.elt.sizeof

    @property
    def is_iterative(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"[{self.domain}] {self.elt}"


@dataclass(frozen=True)
class RecordType(ChapelType):
    """A Chapel ``record``: named, typed members with packed layout.

    ``field_offset`` is what the paper calls ``unitOffset`` for a level: the
    byte offset of each member inside one packed record instance.
    """

    name: str
    fields: tuple[tuple[str, ChapelType], ...]

    def __init__(self, name: str, fields: object) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", tuple((str(n), t) for n, t in fields))
        seen: set[str] = set()
        for fname, ftype in self.fields:
            if fname in seen:
                raise ChapelTypeError(f"record {name}: duplicate field {fname!r}")
            seen.add(fname)
            if not isinstance(ftype, ChapelType):
                raise ChapelTypeError(
                    f"record {name}: field {fname!r} has non-Chapel type {ftype!r}"
                )
        if not self.fields:
            raise ChapelTypeError(f"record {name} needs at least one field")

    @cached_property
    def sizeof(self) -> int:
        return sum(t.sizeof for _, t in self.fields)

    @property
    def is_structure(self) -> bool:
        return True

    @cached_property
    def field_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.fields)

    @cached_property
    def field_index(self) -> dict[str, int]:
        """Each field's position in a record value's member list."""
        return {n: i for i, (n, _) in enumerate(self.fields)}

    @cached_property
    def field_offsets(self) -> dict[str, int]:
        """Byte offset of every field in the packed layout."""
        offsets: dict[str, int] = {}
        off = 0
        for fname, ftype in self.fields:
            offsets[fname] = off
            off += ftype.sizeof
        return offsets

    def field_type(self, name: str) -> ChapelType:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise ChapelTypeError(f"record {self.name} has no field {name!r}")

    def field_offset(self, name: str) -> int:
        try:
            return self.field_offsets[name]
        except KeyError:
            raise ChapelTypeError(f"record {self.name} has no field {name!r}")

    def field_position(self, name: str) -> int:
        """0-based member position — the paper's ``position[][]`` entries."""
        try:
            return self.field_index[name]
        except KeyError:
            raise ChapelTypeError(f"record {self.name} has no field {name!r}")

    def __str__(self) -> str:
        return f"record {self.name}"


@dataclass(frozen=True)
class TupleType(ChapelType):
    """A Chapel tuple — structurally a record with positional members."""

    elts: tuple[ChapelType, ...]

    def __init__(self, elts: object) -> None:
        object.__setattr__(self, "elts", tuple(elts))
        if not self.elts:
            raise ChapelTypeError("tuple needs at least one component")
        for t in self.elts:
            if not isinstance(t, ChapelType):
                raise ChapelTypeError(f"non-Chapel tuple component {t!r}")

    @cached_property
    def sizeof(self) -> int:
        return sum(t.sizeof for t in self.elts)

    @property
    def is_structure(self) -> bool:
        return True

    def component_offset(self, index: int) -> int:
        if not 0 <= index < len(self.elts):
            raise ChapelTypeError(f"tuple has no component {index}")
        return sum(t.sizeof for t in self.elts[:index])

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.elts) + ")"


def array_of(elt: ChapelType, *ranges: object) -> ArrayType:
    """Convenience constructor: ``array_of(REAL, 10)`` is ``[1..10] real``."""
    return ArrayType(Domain(*ranges), elt)  # type: ignore[arg-type]


def record(name: str, /, **fields: ChapelType) -> RecordType:
    """Convenience constructor using keyword order as declaration order."""
    return RecordType(name, tuple(fields.items()))


@dataclass(frozen=True)
class ScalarSlot:
    """One primitive scalar inside a nested type's packed layout.

    ``path`` is a tuple of access steps: ``("field", name)`` for record
    members, ``("component", i)`` for tuple components and
    ``("index", chapel_index)`` for array elements.
    """

    path: tuple[tuple[str, object], ...]
    prim: PrimitiveType | StringType | EnumType
    offset: int


def scalar_layout(typ: ChapelType, base: int = 0) -> Iterator[ScalarSlot]:
    """Yield every primitive slot of ``typ`` in packed layout order.

    This is the declarative specification of what Algorithms 1 and 2 compute
    operationally; tests use it as the oracle for the linearizer.  Each
    type's slots are computed once, at offset 0, and shifted by ``base``.
    """
    slots = _slots_of(typ)
    if not base:
        return iter(slots)
    return (ScalarSlot(s.path, s.prim, s.offset + base) for s in slots)


def _slots_of(typ: ChapelType) -> "tuple[ScalarSlot, ...]":
    """``typ``'s slots at offset 0, kept on the type (which pickles as its
    fields alone, so the copy is rebuilt wherever it is needed)."""
    slots = typ.__dict__.get("_scalar_slots")
    if slots is not None:
        return slots
    if typ.is_primitive:
        slots = (ScalarSlot((), typ, 0),)  # type: ignore[arg-type]
    elif isinstance(typ, ArrayType):
        inner, size = _slots_of(typ.elt), typ.elt.sizeof
        slots = tuple(
            ScalarSlot((("index", idx),) + s.path, s.prim, s.offset + k * size)
            for k, idx in enumerate(typ.domain)
            for s in inner
        )
    elif isinstance(typ, RecordType):
        slots = tuple(
            ScalarSlot(
                (("field", fname),) + s.path, s.prim, s.offset + typ.field_offset(fname)
            )
            for fname, ftype in typ.fields
            for s in _slots_of(ftype)
        )
    elif isinstance(typ, TupleType):
        slots = tuple(
            ScalarSlot(
                (("component", i),) + s.path, s.prim, s.offset + typ.component_offset(i)
            )
            for i, ctype in enumerate(typ.elts)
            for s in _slots_of(ctype)
        )
    else:  # pragma: no cover - unreachable for well-formed types
        raise ChapelTypeError(f"cannot lay out type {typ!r}")
    typ.__dict__["_scalar_slots"] = slots
    return slots
