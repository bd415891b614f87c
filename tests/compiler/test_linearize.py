"""Tests for Algorithms 1 and 2 (computeLinearizeSize / linearizeIt).

Includes the paper's Figure 6/7 structure as a golden case and
hypothesis-driven round-trip properties over random nested types.
"""

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chapel.domains import Domain
from repro.chapel.types import (
    BOOL,
    INT,
    INT32,
    REAL,
    REAL32,
    ArrayType,
    EnumType,
    RecordType,
    StringType,
    TupleType,
    array_of,
    record,
    scalar_layout,
)
from repro.chapel.values import (
    ChapelArray,
    ChapelTuple,
    default_value,
    from_python,
    get_path,
    set_path,
    to_python,
)
from repro.compiler import native
from repro.compiler.linearize import (
    LinearizedBuffer,
    compute_linearize_size,
    delinearize,
    linearize_append,
    linearize_it,
)
from repro.machine.counters import OpCounters
from repro.util.errors import LinearizationError


def figure6_value(t=2, n=3, m=4, fill=True):
    A = record("A", a1=array_of(REAL, m), a2=INT)
    B = record("B", b1=ArrayType(Domain(n), A), b2=INT)
    data_t = ArrayType(Domain(t), B)
    v = default_value(data_t)
    if fill:
        x = 0.0
        for i in range(1, t + 1):
            for j in range(1, n + 1):
                for k in range(1, m + 1):
                    v[i].b1[j].a1[k] = x
                    x += 1.0
                v[i].b1[j].a2 = int(x)
            v[i].b2 = 100 + i
    return data_t, v


class TestComputeLinearizeSize:
    def test_primitive(self):
        assert compute_linearize_size(1.5, REAL) == 8
        assert compute_linearize_size(1, INT32) == 4

    def test_figure6_matches_type_sizeof(self):
        data_t, v = figure6_value()
        assert compute_linearize_size(v, data_t) == data_t.sizeof

    def test_array_of_primitives(self):
        t = array_of(REAL32, 10)
        assert compute_linearize_size(default_value(t), t) == 40

    def test_wrong_value_kind(self):
        with pytest.raises(LinearizationError):
            compute_linearize_size([1, 2], array_of(REAL, 2))
        with pytest.raises(LinearizationError):
            compute_linearize_size({}, record("P", x=REAL))


class TestLinearizeIt:
    def test_figure7_layout(self):
        """The DFS layout of Figure 7: a1 scalars, a2, ..., b2, next B."""
        data_t, v = figure6_value(t=1, n=1, m=2)
        buf = linearize_it(v, data_t)
        # layout: a1[1], a1[2] (real), a2 (int), b2 (int)
        assert buf.read_scalar(0, REAL) == 0.0
        assert buf.read_scalar(8, REAL) == 1.0
        assert buf.read_scalar(16, INT) == 2
        assert buf.read_scalar(24, INT) == 101

    def test_every_slot_matches_scalar_layout(self):
        data_t, v = figure6_value()
        buf = linearize_it(v, data_t)
        for slot in scalar_layout(data_t):
            expected = get_path(v, slot.path)
            assert buf.read_scalar(slot.offset, slot.prim) == expected

    def test_counters_charged(self):
        data_t, v = figure6_value()
        counters = OpCounters()
        linearize_it(v, data_t, counters)
        assert counters.bytes_linearized == data_t.sizeof

    def test_roundtrip_figure6(self):
        data_t, v = figure6_value()
        rebuilt = delinearize(linearize_it(v, data_t))
        assert to_python(rebuilt) == to_python(v)

    def test_write_scalar(self):
        t = array_of(REAL, 3)
        buf = linearize_it(default_value(t), t)
        buf.write_scalar(8, REAL, 42.0)
        assert buf.read_scalar(8, REAL) == 42.0

    def test_typed_view_shares_memory(self):
        t = array_of(REAL, 4)
        v = from_python(t, [1.0, 2.0, 3.0, 4.0])
        buf = linearize_it(v, t)
        view = buf.typed_view(0, np.float64, 4)
        assert list(view) == [1.0, 2.0, 3.0, 4.0]
        view[0] = 9.0
        assert buf.read_scalar(0, REAL) == 9.0

    def test_out_of_bounds_access(self):
        t = array_of(REAL, 2)
        buf = linearize_it(default_value(t), t)
        with pytest.raises(LinearizationError):
            buf.read_scalar(16, REAL)
        with pytest.raises(LinearizationError):
            buf.typed_view(8, np.float64, 2)

    def test_string_fields(self):
        R = record("R", tag=StringType(4), x=REAL)
        v = from_python(R, {"tag": "ab", "x": 1.5})
        t = ArrayType(Domain(1), R)
        arr = default_value(t)
        arr[1] = v
        buf = linearize_it(arr, t)
        assert buf.read_scalar(0, StringType(4)) == b"ab\x00\x00"
        assert buf.read_scalar(4, REAL) == 1.5

    def test_requires_uint8(self):
        with pytest.raises(LinearizationError):
            LinearizedBuffer(typ=REAL, raw=np.zeros(8, dtype=np.float64))

    def test_figure7_golden_bytes(self):
        """Bytes the value-by-value walk of the parent commit produced."""
        data_t, v = figure6_value(t=2, n=2, m=2)
        assert linearize_it(v, data_t).raw.tobytes().hex() == (
            "0000000000000000000000000000f03f0200000000000000"
            "000000000000004000000000000008400400000000000000"
            "6500000000000000"
            "000000000000104000000000000014400600000000000000"
            "00000000000018400000000000001c400800000000000000"
            "6600000000000000"
        )
        data_t, v = figure6_value()
        digest = hashlib.sha256(linearize_it(v, data_t).raw.tobytes()).hexdigest()
        assert digest == "ca737052f99f6cdd2e78a364d9b826b61eb3fb7bc3e787c76a804665f579e494"

    def test_short_strings_in_arrays_are_padded(self):
        t = array_of(record("R", tags=array_of(StringType(3), 2), tag=StringType(2)), 2)
        rows = [{"tags": ["a", "bcd"], "tag": ""}, {"tags": ["", "ef"], "tag": "g"}]
        buf = linearize_it(from_python(t, rows), t)
        assert buf.raw.tobytes() == b"a\0\0bcd\0\0" + b"\0\0\0ef\0g\0"
        assert to_python(delinearize(buf)) == to_python(from_python(t, rows))

    def test_empty_record_array_packs_to_nothing(self):
        t = ArrayType(Domain((1, 0)), record("R", x=REAL, ys=array_of(INT, 2)))
        counters = OpCounters()
        buf = linearize_it(default_value(t), t, counters)
        assert buf.nbytes == 0 and counters.bytes_linearized == 0
        assert delinearize(buf) == default_value(t)

    def test_append_equals_linearizing_the_concatenation(self):
        P = record("P", coord=array_of(REAL, 2), tag=StringType(2), w=REAL)
        rows = [{"coord": [i, i + 0.5], "tag": "ab"[: i % 3], "w": -i} for i in range(7)]
        counters = OpCounters()
        buf = linearize_it(from_python(array_of(P, 3), rows[:3]), array_of(P, 3), counters)
        assert counters.bytes_linearized == 3 * P.sizeof
        assert linearize_append(buf, from_python(array_of(P, 4), rows[3:]), counters) == 7
        assert counters.bytes_linearized == 7 * P.sizeof
        whole = linearize_it(from_python(array_of(P, 7), rows), array_of(P, 7))
        assert buf.typ == whole.typ
        assert buf.raw.tobytes() == whole.raw.tobytes()


def _reals(*values):
    return from_python(array_of(REAL, len(values)), list(values))


class TestGrowContract:
    """``grow`` writes nothing; every grower writes every byte it grows, and
    nothing reads past ``raw.size`` into the spare capacity."""

    def _grown(self):
        """Four reals, then three appended: past the first growth."""
        buf = linearize_it(_reals(1.0, 2.0, 3.0, 4.0), array_of(REAL, 4))
        linearize_append(buf, _reals(5.0, 6.0, 7.0))
        assert buf.capacity > buf.nbytes
        return buf

    def test_append_after_a_rollback_writes_what_it_shows(self):
        buf = self._grown()
        prefix, capacity = buf.raw[:32].tobytes(), buf.capacity
        # roll the append back (BoundReduction.truncate_elements), append again
        buf.shrink(32)
        buf.typ = array_of(REAL, 4)
        assert linearize_append(buf, _reals(8.0, 9.0)) == 6
        assert buf.capacity == capacity  # within capacity: the same backing
        assert buf.raw[:32].tobytes() == prefix
        assert buf.typed_view(0, np.float64, 6).tolist() == [1, 2, 3, 4, 8, 9]

    def test_grow_itself_writes_nothing(self):
        buf = self._grown()
        buf.shrink(32)
        buf.grow(56)
        # the bytes grow exposes are the dropped suffix's: a grower must write
        assert buf.typed_view(32, np.float64, 3).tolist() == [5.0, 6.0, 7.0]

    def test_a_refused_append_changes_nothing(self):
        buf = self._grown()
        before = (buf.raw.tobytes(), buf.nbytes, buf.capacity, buf.typ)
        with pytest.raises(LinearizationError, match="expected a ChapelArray of real"):
            linearize_append(buf, from_python(array_of(INT, 2), [1, 2]))
        with pytest.raises(LinearizationError, match="expected a ChapelArray"):
            linearize_append(buf, np.zeros(2))
        assert (buf.raw.tobytes(), buf.nbytes, buf.capacity, buf.typ) == before

    def test_a_refused_numpy_append_changes_nothing(self):
        from repro.compiler.translate import compile_reduction
        from repro.util.errors import CompilerError

        source = """
class pointSum : ReduceScanOp {
  def accumulate(p: [1..2] real) {
    roAdd(0, 0, p[1] + p[2]);
  }
}
"""
        bound = compile_reduction(source, {}, 2).bind(np.ones((4, 2)), {})
        bound.append_elements(np.full((3, 2), 2.0))
        buf = bound.tail_buf
        before = (bound.dataset_raw().tobytes(), buf.nbytes, buf.capacity, bound.n_elements)
        for bad in (np.zeros((2, 3)), np.zeros(4)):
            with pytest.raises(CompilerError, match="does not match element"):
                bound.append_elements(bad)
        assert (bound.dataset_raw().tobytes(), buf.nbytes, buf.capacity, bound.n_elements) == before

    def test_views_stop_at_raw_size(self):
        buf = self._grown()
        end = buf.nbytes
        for access in (
            lambda: buf.slice_bytes(end - 8, 16),
            lambda: buf.slice_bytes(end, 1),
            lambda: buf.typed_view(end - 8, np.float64, 2),
            lambda: buf.typed_view(end, np.float64, 1),
            lambda: buf.read_scalar(end, REAL),
        ):
            with pytest.raises(LinearizationError, match="outside buffer"):
                access()
        assert buf.slice_bytes(0, end).size == end  # the whole of raw is fine


def _points(n=3):
    """``[1..n] Point``; tests below swap one nested value for a mis-shaped one."""
    point_t = record("Point", w=REAL, coord=array_of(REAL, 4))
    rows = [{"w": float(i), "coord": [i, i + 1, i + 2, i + 3]} for i in range(n)]
    return point_t, from_python(array_of(point_t, n), rows)


def _via_linearize_it(bad):
    linearize_it(bad, bad.type)


def _via_linearize_append(bad):
    """The refused append must leave the buffer exactly as it was."""
    _, good = _points(2)
    buf = linearize_it(good, good.type)
    before = (buf.nbytes, buf.typ, buf.raw.tobytes())
    try:
        linearize_append(buf, bad)
    finally:
        assert (buf.nbytes, buf.typ, buf.raw.tobytes()) == before


@contextlib.contextmanager
def _walker_refuses(monkeypatch):
    """Route every linearization through the C walker, settled first, and
    check on teardown that it refused a value itself; where no walker can
    exist, ``_pack`` alone runs."""
    walk, _ = native.linearizer(wait=True)
    if walk is None:
        yield
        return
    verdicts = []

    def spy(plan, value, out):
        verdicts.append(walk(plan, value, out))
        return verdicts[-1]

    monkeypatch.setattr(native, "linearizer", lambda wait=False: (spy, "c"))
    yield
    assert False in verdicts, "the walker took every value"


def _pack_alone(monkeypatch):
    monkeypatch.setattr(native, "linearizer", lambda wait=False: (None, "unavailable"))


@pytest.mark.parametrize("entry", [_via_linearize_it, _via_linearize_append])
class TestRefusesMisshapedValues:
    """``ChapelRecord.__setattr__`` and composite ``ChapelArray.__setitem__`` do
    not check composites, so a value can disagree with its declared type; the
    native kernels index the buffer by the declared layout.  The C walker
    refuses each value first; ``_pack`` then raises the error."""

    @pytest.fixture(autouse=True)
    def walk_path(self, monkeypatch):
        with _walker_refuses(monkeypatch):
            yield

    def test_short_extent(self, entry):
        _, data = _points()
        data[3].coord = default_value(array_of(REAL, 3))
        with pytest.raises(
            LinearizationError,
            match=r"data\[2\]\.coord: expected \[\{1\.\.4\}\] real, got \[\{1\.\.3\}\] real",
        ):
            entry(data)

    def test_long_extent_mid_array(self, entry):
        _, data = _points()
        data[2].coord = default_value(array_of(REAL, 5))
        with pytest.raises(LinearizationError, match=r"data\[1\]\.coord: expected .* got "):
            entry(data)

    def test_wrong_element_type(self, entry):
        _, data = _points()
        data[1].coord = default_value(array_of(INT, 4))
        with pytest.raises(LinearizationError, match=r"data\[0\]\.coord: expected .* real, got .* int"):
            entry(data)

    def test_wrong_record_type(self, entry):
        _, data = _points()
        other = record("Pixel", w=REAL, coord=array_of(REAL, 4), alpha=REAL)
        data[2] = default_value(other)
        with pytest.raises(
            LinearizationError, match=r"data\[1\]: expected record Point, got record Pixel"
        ):
            entry(data)

    def test_wrong_value_class(self, entry):
        point_t, data = _points()
        data[3] = ChapelTuple(TupleType((REAL, REAL)), (1.0, 2.0))
        with pytest.raises(LinearizationError, match=r"data\[2\]: expected record Point, got ChapelTuple"):
            entry(data)
        _, data = _points()
        data[1].coord = [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(LinearizationError, match=r"data\[0\]\.coord: expected .* got list"):
            entry(data)

    def test_storage_shorter_than_its_type(self, entry):
        _, data = _points()
        data[2].coord = ChapelArray(array_of(REAL, 4), np.zeros(3))
        with pytest.raises(
            LinearizationError, match=r"data\[\*\]\.coord: not \(1, 3, 4\) float64"
        ):
            entry(data)


class TestRefusesMisshapedValuesOnPack(TestRefusesMisshapedValues):
    """The same refusals, error for error, with no walker: ``_pack`` alone."""

    @pytest.fixture(autouse=True)
    def walk_path(self, monkeypatch):
        _pack_alone(monkeypatch)


def _refuse_element_list_shorter_than_its_type():
    point_t, _ = _points()
    bad = default_value(array_of(array_of(point_t, 2), 2))
    bad[2] = ChapelArray(array_of(point_t, 2), [default_value(point_t)])
    with pytest.raises(LinearizationError, match=r"data\[1\]: .* stores 1 elements"):
        linearize_it(bad, bad.type)


def test_refuses_element_list_shorter_than_its_type(monkeypatch):
    with _walker_refuses(monkeypatch):
        _refuse_element_list_shorter_than_its_type()


def test_refuses_element_list_shorter_than_its_type_on_pack(monkeypatch):
    _pack_alone(monkeypatch)
    _refuse_element_list_shorter_than_its_type()


# ---- property-based round trips ---------------------------------------------

_COLOR = EnumType("color", ("red", "green", "blue"))
_PRIMS = st.sampled_from([INT, INT32, REAL, REAL32, BOOL, StringType(3), _COLOR])


def _record_of(fields):
    return RecordType("R", tuple((f"f{i}", t) for i, t in enumerate(fields)))


def _types(max_depth=3):
    extent = st.integers(min_value=1, max_value=4)
    return st.recursive(
        _PRIMS,
        lambda children: st.one_of(
            st.builds(lambda elt, n: ArrayType(Domain(n), elt), children, extent),
            st.builds(lambda elt, n, m: ArrayType(Domain(n, m), elt), children, extent, extent),
            st.builds(_record_of, st.lists(children, min_size=1, max_size=3)),
            st.builds(TupleType, st.lists(children, min_size=1, max_size=3)),
            st.builds(  # many instances of one record node: the packer's columns
                lambda fields, n: ArrayType(Domain(n), _record_of(fields)),
                st.lists(children, min_size=1, max_size=3),
                st.integers(min_value=0, max_value=50),
            ),
        ),
        max_leaves=8,
    )


def _fill_value(typ, rng):
    """Distinct-ish values through every scalar slot."""
    if typ.is_primitive:
        return typ.coerce(1)
    v = default_value(typ)
    for i, slot in enumerate(scalar_layout(typ)):
        if slot.prim in (REAL, REAL32):
            set_path(v, slot.path, float(i) + 0.5)
        elif slot.prim is BOOL:
            set_path(v, slot.path, i % 2)
        elif isinstance(slot.prim, StringType):  # full width: numpy strips trailing NULs
            set_path(v, slot.path, bytes(97 + (i + k) % 26 for k in range(slot.prim.width)))
        elif isinstance(slot.prim, EnumType):
            set_path(v, slot.path, slot.prim.members[i % len(slot.prim.members)])
        else:
            set_path(v, slot.path, i)
    return v


def _oracle_bytes(v, typ):
    """The buffer by definition: every scalar, encoded alone, at its ``scalar_layout`` offset."""
    expected = bytearray(typ.sizeof)
    for slot in scalar_layout(typ):
        scalar = np.array(get_path(v, slot.path), dtype=slot.prim.dtype)
        expected[slot.offset : slot.offset + slot.prim.sizeof] = scalar.tobytes()
    return bytes(expected)


class TestLinearizeProperties:
    @settings(max_examples=60, deadline=None)
    @given(typ=_types())
    def test_size_matches_type_sizeof(self, typ):
        v = default_value(typ)
        assert compute_linearize_size(v, typ) == typ.sizeof

    @settings(max_examples=60, deadline=None)
    @given(typ=_types())
    def test_linearize_then_read_every_slot(self, typ):
        v = _fill_value(typ, None)
        if typ.is_primitive:
            return  # scalar roots have no buffer walk worth testing
        buf = linearize_it(v, typ)
        for slot in scalar_layout(typ):
            assert buf.read_scalar(slot.offset, slot.prim) == get_path(v, slot.path)

    @settings(max_examples=150, deadline=None)
    @given(typ=_types())
    def test_buffer_equals_the_layout_oracle(self, typ):
        v = _fill_value(typ, None)
        if typ.is_primitive:
            return
        counters = OpCounters()
        buf = linearize_it(v, typ, counters)
        assert buf.raw.tobytes() == _oracle_bytes(v, typ)
        assert counters.bytes_linearized == typ.sizeof
        assert delinearize(buf) == v

    @settings(max_examples=60, deadline=None)
    @given(typ=_types())
    def test_delinearize_roundtrip(self, typ):
        v = _fill_value(typ, None)
        if typ.is_primitive:
            return
        rebuilt = delinearize(linearize_it(v, typ))
        assert to_python(rebuilt) == to_python(v)
