"""Unit tests for the mini-Chapel type system and packed layout."""

import pickle

import numpy as np
import pytest

from repro.chapel.domains import Domain
from repro.chapel.types import (
    BOOL,
    INT,
    INT32,
    REAL,
    REAL32,
    UINT,
    ArrayType,
    EnumType,
    PrimitiveType,
    RecordType,
    StringType,
    TupleType,
    array_of,
    record,
    scalar_layout,
)
from repro.util.errors import ChapelTypeError


class TestPrimitives:
    def test_sizes(self):
        assert INT.sizeof == 8
        assert INT32.sizeof == 4
        assert UINT.sizeof == 8
        assert REAL.sizeof == 8
        assert REAL32.sizeof == 4
        assert BOOL.sizeof == 1

    def test_flags(self):
        assert INT.is_primitive and not INT.is_iterative and not INT.is_structure

    def test_coerce(self):
        assert INT.coerce(3.7) == 3
        assert isinstance(REAL.coerce(2), float)
        assert BOOL.coerce(True) == 1

    def test_str(self):
        assert str(REAL) == "real"
        assert str(INT32) == "int(32)"


class TestStringType:
    def test_fixed_width(self):
        s = StringType(8)
        assert s.sizeof == 8
        assert s.is_primitive

    def test_coerce_pads_and_truncates(self):
        s = StringType(4)
        assert s.coerce("ab") == b"ab\x00\x00"
        assert s.coerce("abcdef") == b"abcd"

    def test_invalid_width(self):
        with pytest.raises(ChapelTypeError):
            StringType(0)


class TestEnumType:
    def test_ordinals(self):
        e = EnumType("color", ("red", "green", "blue"))
        assert e.ordinal("green") == 1
        assert e.member(2) == "blue"
        assert e.sizeof == 8

    def test_coerce(self):
        e = EnumType("color", ("red", "green"))
        assert e.coerce("red") == 0
        assert e.coerce(1) == 1
        with pytest.raises(ChapelTypeError):
            e.coerce(2)
        with pytest.raises(ChapelTypeError):
            e.coerce(2.5)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ChapelTypeError):
            EnumType("bad", ("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ChapelTypeError):
            EnumType("bad", ())


class TestArrayType:
    def test_sizeof(self):
        assert array_of(REAL, 10).sizeof == 80
        assert array_of(INT32, 3, 4).sizeof == 48

    def test_flags(self):
        a = array_of(REAL, 5)
        assert a.is_iterative and not a.is_primitive and not a.is_structure

    def test_nested_sizeof(self):
        inner = array_of(REAL, 4)
        outer = ArrayType(Domain(3), inner)
        assert outer.sizeof == 3 * 4 * 8

    def test_str(self):
        assert str(array_of(REAL, 10)) == "[{1..10}] real"


class TestRecordType:
    def test_paper_figure6_layout(self):
        # record A { a1: [1..m] real; a2: int; } with m=4
        A = record("A", a1=array_of(REAL, 4), a2=INT)
        assert A.sizeof == 4 * 8 + 8
        assert A.field_offset("a1") == 0
        assert A.field_offset("a2") == 32
        assert A.field_position("a1") == 0
        assert A.field_position("a2") == 1

        # record B { b1: [1..n] A; b2: int; } with n=2
        B = record("B", b1=ArrayType(Domain(2), A), b2=INT)
        assert B.sizeof == 2 * A.sizeof + 8
        assert B.field_offset("b2") == 2 * A.sizeof

    def test_field_type(self):
        r = record("P", x=REAL, y=REAL, tag=INT)
        assert r.field_type("tag") is INT
        with pytest.raises(ChapelTypeError):
            r.field_type("z")

    def test_duplicate_field_rejected(self):
        with pytest.raises(ChapelTypeError):
            RecordType("bad", (("x", REAL), ("x", INT)))

    def test_empty_record_rejected(self):
        with pytest.raises(ChapelTypeError):
            RecordType("bad", ())

    def test_non_chapel_field_rejected(self):
        with pytest.raises(ChapelTypeError):
            RecordType("bad", (("x", float),))

    def test_flags(self):
        r = record("P", x=REAL)
        assert r.is_structure and not r.is_primitive and not r.is_iterative


class TestTupleType:
    def test_sizeof_and_offsets(self):
        t = TupleType((INT, REAL32, BOOL))
        assert t.sizeof == 8 + 4 + 1
        assert t.component_offset(0) == 0
        assert t.component_offset(1) == 8
        assert t.component_offset(2) == 12

    def test_invalid_component(self):
        t = TupleType((INT,))
        with pytest.raises(ChapelTypeError):
            t.component_offset(1)

    def test_empty_rejected(self):
        with pytest.raises(ChapelTypeError):
            TupleType(())


class TestScalarLayout:
    def test_primitive_single_slot(self):
        slots = list(scalar_layout(REAL))
        assert len(slots) == 1
        assert slots[0].offset == 0 and slots[0].prim is REAL

    def test_flat_array_offsets(self):
        slots = list(scalar_layout(array_of(REAL, 3)))
        assert [s.offset for s in slots] == [0, 8, 16]
        assert [s.path for s in slots] == [
            (("index", 1),),
            (("index", 2),),
            (("index", 3),),
        ]

    def test_record_offsets(self):
        r = record("P", x=REAL, tag=INT32)
        slots = list(scalar_layout(r))
        assert [(s.path[0][1], s.offset) for s in slots] == [("x", 0), ("tag", 8)]

    def test_nested_paper_structure_covers_all_bytes(self):
        A = record("A", a1=array_of(REAL, 3), a2=INT)
        B = record("B", b1=ArrayType(Domain(2), A), b2=INT)
        data_t = ArrayType(Domain(2), B)
        slots = list(scalar_layout(data_t))
        # total scalars: 2 * (2 * (3 + 1) + 1) = 18
        assert len(slots) == 18
        # slots are disjoint and contiguous (packed layout)
        covered = sorted((s.offset, s.offset + s.prim.sizeof) for s in slots)
        assert covered[0][0] == 0
        for (a0, a1), (b0, _b1) in zip(covered, covered[1:]):
            assert a1 == b0, "layout has a gap or overlap"
        assert covered[-1][1] == data_t.sizeof

    def test_layout_offsets_strictly_increasing(self):
        A = record("A", a1=array_of(REAL32, 2), flag=BOOL)
        t = ArrayType(Domain(3), A)
        offs = [s.offset for s in scalar_layout(t)]
        assert offs == sorted(offs)
        assert len(set(offs)) == len(offs)


def _figure6_type():
    a = record("A", a1=array_of(REAL, 5), a2=INT)
    return array_of(record("B", b1=array_of(a, 4), b2=INT), 3)


class TestCachedSizes:
    """``sizeof`` and ``Domain.size`` are computed once per (frozen) object."""

    @pytest.mark.parametrize(
        "make",
        [
            _figure6_type,
            lambda: TupleType((REAL, array_of(INT32, 2, 3), StringType(5))),
            lambda: array_of(EnumType("E", ("a", "b")), (0, 9)),
        ],
        ids=["figure6", "tuple", "enum_array"],
    )
    def test_equality_hashing_and_pickle_are_unchanged(self, make):
        cached, fresh = make(), make()
        size = cached.sizeof
        assert "sizeof" in cached.__dict__ and "sizeof" not in fresh.__dict__
        assert cached == fresh and hash(cached) == hash(fresh)
        back = pickle.loads(pickle.dumps(cached))
        assert back == cached and hash(back) == hash(cached)
        assert "sizeof" not in back.__dict__  # a type pickles as its fields
        assert back.sizeof == size == fresh.sizeof

    def test_a_cached_size_is_the_recomputed_one(self):
        typ = _figure6_type()
        assert typ.sizeof is typ.sizeof
        assert typ.sizeof == 3 * (4 * (5 * 8 + 8) + 8)
        assert typ.domain.size == 3 and "size" in typ.domain.__dict__
        assert Domain(4, 5).size == 20 and Domain(4, 5) == Domain(4, 5)

    def test_a_pickled_primitive_holds_numpys_own_dtype(self):
        for prim in (REAL, INT, INT32, REAL32, UINT, BOOL):
            back = pickle.loads(pickle.dumps(prim))
            assert back == prim and back.dtype is prim.dtype
        swapped = pickle.loads(pickle.dumps(PrimitiveType("be", ">f8")))
        assert swapped.dtype == np.dtype(">f8")
