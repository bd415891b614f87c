"""Unit tests for Chapel runtime values (arrays, records, tuples)."""

import numpy as np
import pytest

from repro.chapel.domains import Domain, Range
from repro.chapel.types import (
    BOOL,
    INT,
    REAL,
    ArrayType,
    EnumType,
    StringType,
    TupleType,
    array_of,
    record,
    scalar_layout,
)
from repro.chapel.values import (
    ChapelArray,
    ChapelRecord,
    ChapelTuple,
    default_value,
    from_python,
    get_path,
    set_path,
    to_python,
)
from repro.util.errors import ChapelTypeError, DomainError


class TestChapelArray:
    def test_one_based_indexing(self):
        a = ChapelArray(array_of(REAL, 5))
        a[1] = 1.5
        a[5] = 9.0
        assert a[1] == 1.5
        assert a[5] == 9.0
        assert a[2] == 0.0

    def test_out_of_bounds(self):
        a = ChapelArray(array_of(REAL, 5))
        with pytest.raises(DomainError):
            a[0]
        with pytest.raises(DomainError):
            a[6] = 1.0

    def test_2d_indexing(self):
        m = ChapelArray(array_of(INT, 2, 3))
        m[1, 1] = 11
        m[2, 3] = 23
        assert m[1, 1] == 11
        assert m[2, 3] == 23

    def test_custom_range(self):
        a = ChapelArray(ArrayType(Domain(Range(0, 4)), INT))
        a[0] = 7
        assert a[0] == 7
        with pytest.raises(DomainError):
            a[5]

    def test_elements_row_major(self):
        m = ChapelArray(array_of(INT, 2, 2))
        m[1, 1], m[1, 2], m[2, 1], m[2, 2] = 1, 2, 3, 4
        assert list(m.elements()) == [1, 2, 3, 4]

    def test_as_numpy_primitive(self):
        a = ChapelArray(array_of(REAL, 2, 3))
        a[2, 3] = 5.0
        arr = a.as_numpy()
        assert arr.shape == (2, 3)
        assert arr[1, 2] == 5.0

    def test_as_numpy_composite_fails(self):
        P = record("P", x=REAL)
        a = ChapelArray(ArrayType(Domain(2), P))
        with pytest.raises(ChapelTypeError):
            a.as_numpy()

    def test_composite_elements_are_independent(self):
        P = record("P", x=REAL)
        a = ChapelArray(ArrayType(Domain(3), P))
        a[1].x = 1.0
        assert a[2].x == 0.0, "default records must not be shared"

    def test_fill_from_length_check(self):
        a = ChapelArray(array_of(INT, 3))
        with pytest.raises(ChapelTypeError):
            a.fill_from([1, 2])

    def test_coercion_on_store(self):
        a = ChapelArray(array_of(INT, 2))
        a[1] = 3.9
        assert a[1] == 3

    def test_equality(self):
        a = ChapelArray(array_of(INT, 3)).fill_from([1, 2, 3])
        b = ChapelArray(array_of(INT, 3)).fill_from([1, 2, 3])
        c = ChapelArray(array_of(INT, 3)).fill_from([1, 2, 4])
        assert a == b
        assert a != c


class TestChapelRecord:
    def test_field_access_and_defaults(self):
        P = record("P", x=REAL, y=REAL, tag=INT)
        p = ChapelRecord(P)
        assert p.x == 0.0 and p.tag == 0
        p.x = 2.5
        assert p.x == 2.5

    def test_kwargs_init(self):
        P = record("P", x=REAL, tag=INT)
        p = ChapelRecord(P, x=1.5, tag=7)
        assert p.x == 1.5 and p.tag == 7

    def test_unknown_field(self):
        P = record("P", x=REAL)
        p = ChapelRecord(P)
        with pytest.raises(AttributeError):
            p.z
        with pytest.raises(AttributeError):
            p.z = 1

    def test_nested_record_with_array_field(self):
        A = record("A", a1=array_of(REAL, 3), a2=INT)
        a = ChapelRecord(A)
        a.a1[2] = 4.5
        a.a2 = 9
        assert a.a1[2] == 4.5
        assert a.a2 == 9

    def test_equality(self):
        P = record("P", x=REAL)
        assert ChapelRecord(P, x=1.0) == ChapelRecord(P, x=1.0)
        assert ChapelRecord(P, x=1.0) != ChapelRecord(P, x=2.0)


class TestChapelTuple:
    def test_components(self):
        T = TupleType((INT, REAL))
        t = ChapelTuple(T, [3, 4.5])
        assert t[0] == 3 and t[1] == 4.5
        t[0] = 7
        assert t[0] == 7

    def test_arity_check(self):
        T = TupleType((INT, REAL))
        with pytest.raises(ChapelTypeError):
            ChapelTuple(T, [1])

    def test_default(self):
        T = TupleType((INT, REAL))
        t = ChapelTuple(T)
        assert list(t) == [0, 0.0]


class TestConversion:
    def test_from_python_roundtrip_nested(self):
        A = record("A", a1=array_of(REAL, 2), a2=INT)
        data_t = ArrayType(Domain(2), A)
        src = [
            {"a1": [1.0, 2.0], "a2": 3},
            {"a1": [4.0, 5.0], "a2": 6},
        ]
        v = from_python(data_t, src)
        assert v[1].a1[2] == 2.0
        assert v[2].a2 == 6
        assert to_python(v) == src

    def test_from_python_2d(self):
        t = array_of(INT, 2, 2)
        v = from_python(t, [[1, 2], [3, 4]])
        assert v[2, 1] == 3
        assert to_python(v) == [[1, 2], [3, 4]]

    def test_from_python_numpy(self):
        t = array_of(REAL, 3)
        v = from_python(t, np.array([1.0, 2.0, 3.0]))
        assert v[3] == 3.0

    def test_from_python_missing_record_field(self):
        P = record("P", x=REAL, y=REAL)
        with pytest.raises(ChapelTypeError):
            from_python(P, {"x": 1.0})

    def test_from_python_wrong_shape(self):
        with pytest.raises(ChapelTypeError):
            from_python(array_of(INT, 2, 2), [[1, 2, 3], [4, 5, 6]])

    def test_from_python_string_and_enum(self):
        color = EnumType("color", ("red", "green"))
        R = record("R", name=StringType(4), c=color)
        v = from_python(R, {"name": "abc", "c": "green"})
        assert v.name == b"abc\x00"
        assert v.c == 1

    def test_from_python_equals_assigning_into_defaults(self):
        """Values are built once from converted children; the result is the
        one element-by-element assignment into ``default_value`` gives."""
        color = EnumType("color", ("red", "green"))
        R = record(
            "R",
            name=StringType(4),
            flags=array_of(BOOL, 3),
            m=array_of(INT, 2, 2),
            cs=array_of(color, 2),
            tags=array_of(StringType(2), 2),
            pair=TupleType((INT, REAL)),
        )
        t = array_of(R, 2)
        rows = [
            {"name": "ab", "flags": [True, False, 1], "m": [[1, 2], [3, 4]],
             "cs": ["green", 0], "tags": ["x", "yz"], "pair": (7, 0.5)},
            {"name": "abcdef", "flags": [0, 0, 1], "m": [[5, 6], [7, 8]],
             "cs": [1, "red"], "tags": ["", "q"], "pair": (-1, 2)},
        ]
        expected = default_value(t)
        for i, row in enumerate(rows, start=1):
            expected[i].name = row["name"]
            expected[i].pair = ChapelTuple(R.field_type("pair"), row["pair"])
            for j in range(3):
                expected[i].flags[j + 1] = row["flags"][j]
            for j in range(2):
                expected[i].cs[j + 1] = row["cs"][j]
                expected[i].tags[j + 1] = row["tags"][j]
                for k in range(2):
                    expected[i].m[j + 1, k + 1] = row["m"][j][k]
        built = from_python(t, rows)
        assert built == expected
        assert built[2].m.as_numpy().dtype == np.int64
        assert built[1].flags.as_numpy().dtype == np.uint8

    def test_from_python_rejects_sequences_as_scalars(self):
        with pytest.raises(ChapelTypeError):
            from_python(array_of(REAL, 2), [[1.0], [2.0]])

    def test_default_value_types(self):
        assert default_value(INT) == 0
        assert default_value(BOOL) == 0
        assert isinstance(default_value(array_of(REAL, 2)), ChapelArray)


class TestPaths:
    def test_get_set_path_matches_scalar_layout(self):
        A = record("A", a1=array_of(REAL, 2), a2=INT)
        B = record("B", b1=ArrayType(Domain(2), A), b2=INT)
        data_t = ArrayType(Domain(2), B)
        v = default_value(data_t)

        slots = list(scalar_layout(data_t))
        # Write a distinct value through every path, read it back.
        for i, slot in enumerate(slots):
            set_path(v, slot.path, float(i) if slot.prim is REAL else i)
        for i, slot in enumerate(slots):
            got = get_path(v, slot.path)
            assert got == (float(i) if slot.prim is REAL else i)

    def test_set_empty_path_rejected(self):
        with pytest.raises(ChapelTypeError):
            set_path(3, (), 4)
