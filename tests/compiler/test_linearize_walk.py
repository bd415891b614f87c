"""The C linearizer walker (``native.linearizer``) against ``_pack``, its oracle.

The walker packs a whole nested value in one call; wherever it declines —
a type with a leaf only ``_pack`` converts, a value it does not take as it
is, a process with no walker — ``_pack`` packs the value from scratch.
Every case here compares the bytes with ``_pack``'s own.
"""

import array
import logging
import os
import pickle
import select
import shlex
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings

from repro.chapel.types import INT, REAL, ArrayType, RecordType, array_of, record
from repro.chapel.values import ChapelArray, ChapelRecord, from_python
from repro.compiler import compile_reduction, linearize, native
from repro.compiler.linearize import _pack, _walk_plan, linearize_append, linearize_it
from repro.compiler.native import (
    CACHE_ENV,
    CC_ENV,
    probe_toolchain,
    reset_toolchain_probe,
)
from repro.obs.tracer import Tracer, tracing
from tests.compiler.test_linearize import _fill_value, _points, _types, figure6_value

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

POINT_SUM = """
record Point {
  var coord: [1..4] real;
  var w: real;
}

class weightedSum : ReduceScanOp {
  def accumulate(p: Point) {
    for d in 1..4 {
      roAdd(0, d - 1, p.coord[d] * p.w);
    }
    roAdd(1, 0, p.w);
  }
}
"""


@pytest.fixture(scope="module")
def walker():
    walk, why = native.linearizer(wait=True)
    assert walk is not None, why
    return walk


def _suite_points(n):
    """``[1..n] Point`` as ``POINT_SUM`` and the suite declare it."""
    point_t = record("Point", coord=array_of(REAL, 4), w=REAL)
    return from_python(array_of(point_t, n), [{"coord": [i] * 4, "w": 0.5 * i} for i in range(n)])


def _packed(value, typ):
    """``_pack``'s bytes for ``value``: the oracle."""
    raw = np.zeros(typ.sizeof, dtype=np.uint8)
    _pack([value], typ, raw.reshape(1, typ.sizeof), ())
    return raw.tobytes()


def _walked(walk, value, typ):
    """The walker's verdict and bytes, called directly."""
    raw = np.zeros(typ.sizeof, dtype=np.uint8)
    return walk(_walk_plan(typ), value, raw), raw.tobytes()


# ---- the walker writes _pack's bytes -----------------------------------------


@settings(max_examples=150, deadline=None)
@given(typ=_types())
def test_every_generated_type_packs_to_pack_bytes(walker, typ):
    value = _fill_value(typ, None)
    buf = linearize_it(value, typ)
    assert buf.raw.tobytes() == _packed(value, typ)
    # real and int leaves are walked; enum, string and narrower scalar
    # leaves send the whole type to _pack
    assert buf.walk == ("c" if _walk_plan(typ) is not None else "unsupported_type")


@pytest.mark.parametrize(
    "shape",
    [lambda: _suite_points(50), lambda: figure6_value()[1], lambda: figure6_value(5, 4, 5)[1]],
    ids=["point", "figure6", "figure6_suite"],
)
def test_the_suite_shapes_walk(walker, shape):
    value = shape()
    assert _walked(walker, value, value.type) == (True, _packed(value, value.type))
    assert linearize_it(value, value.type).walk == "c"


def test_an_equal_but_distinct_record_type_is_walked(walker):
    declared = array_of(record("Point", coord=array_of(REAL, 4), w=REAL), 7)
    value = _suite_points(7)  # its own, equal Point record
    assert value.type == declared and value.type.elt is not declared.elt
    assert _walked(walker, value, declared) == (True, _packed(value, declared))
    assert linearize_it(value, declared).walk == "c"


def test_equal_types_declared_one_after_the_other_compare_by_identity(walker, monkeypatch):
    # each declaration's values pass the walker's `is` check against the
    # plan of that declaration: no type __eq__, per value or per plan
    values = [_suite_points(50) for _ in range(2)]  # two equal, distinct Points
    assert values[0].type == values[1].type and values[0].type is not values[1].type
    calls = []
    for cls in (ArrayType, RecordType):
        eq = cls.__eq__
        monkeypatch.setattr(cls, "__eq__", lambda a, b, eq=eq: calls.append(a) or eq(a, b))
    for value in values:
        assert linearize_it(value, value.type).walk == "c"
    assert calls == []


def test_extras_of_an_equal_but_distinct_type_stay_on_the_walk(walker, kmeans_setup):
    s = kmeans_setup
    compiled = compile_reduction(s["source"], s["constants"], opt_level=2)
    centroids = s["centroids"]  # built against the test's own Centroid record
    assert centroids.type == compiled.lowered.extra_types["centroids"]
    tracer = Tracer()
    with tracing(tracer):
        compiled.bind(s["data"], {"centroids": centroids})
    (span,) = [sp for sp in tracer.spans() if sp.name == "linearize_extras"]
    assert span.args["walk"] == "c"
    (data,) = [sp for sp in tracer.spans() if sp.name == "linearize_data"]
    assert "walk" not in data.args  # a NumPy dataset is a view: no Algorithm 2


# ---- leaves _pack converts: refused, then _pack's bytes -------------------------


class _Real(float):
    pass


def _plant(rec, name, value):
    """Set member ``name`` of record ``rec`` to ``value``, past the coercion."""
    rec._values[rec.type.field_index[name]] = value


def _point_w(leaf):
    """``[1..3] Point`` whose second ``w`` is ``leaf``, set past the coercion."""
    _, value = _points(3)
    _plant(value[2], "w", leaf)
    return value


def _figure6_a2(leaf):
    _, value = figure6_value(t=2, n=2, m=3)
    _plant(value[2].b1[1], "a2", leaf)
    return value


def _int32_backing():
    typ = array_of(record("R", xs=array_of(INT, 4), y=INT), 2)
    value = from_python(typ, [{"xs": [1, 2, 3, 4], "y": 5}, {"xs": [-1, -2, -3, -4], "y": 6}])
    _plant(value[2], "xs", ChapelArray(array_of(INT, 4), np.array([7, 8, 9, 10], np.int32)))
    return value


@pytest.mark.parametrize(
    "make",
    [
        lambda: _point_w(np.float64(2.5)),
        lambda: _point_w(_Real(2.5)),
        lambda: _point_w(3),
        lambda: _figure6_a2(True),
        lambda: _figure6_a2(np.int64(7)),
        _int32_backing,
    ],
    ids=["np_float64", "float_subclass", "int_in_real", "bool_in_int", "np_int64", "int32_backing"],
)
def test_a_leaf_pack_converts_is_refused_then_packed_by_pack(walker, make):
    value = make()
    assert _walked(walker, value, value.type)[0] is False
    buf = linearize_it(value, value.type)
    assert buf.walk == "refused"
    assert buf.raw.tobytes() == _packed(value, value.type)


def test_an_int_leaf_past_int64_is_refused_and_pack_raises_as_before(walker, monkeypatch):
    _, value = figure6_value(t=2, n=2, m=3)
    _plant(value[1], "b2", 2**70)
    assert _walked(walker, value, value.type)[0] is False
    with pytest.raises(OverflowError) as walked:
        linearize_it(value, value.type)
    monkeypatch.setattr(native, "linearizer", lambda wait=False: (None, "unavailable"))
    with pytest.raises(OverflowError) as packed:
        linearize_it(value, value.type)
    assert str(walked.value) == str(packed.value)


# ---- the acceptance boundary: what the walker reads in place, and what it refuses --


class _Backing(np.ndarray):
    pass


class _Record(ChapelRecord):
    __slots__ = ()


class _Array(ChapelArray):
    __slots__ = ()


def _unaligned(values):
    raw = bytearray(8 * len(values) + 1)
    backing = np.frombuffer(raw, np.float64, count=len(values), offset=1)
    backing[...] = values
    assert not backing.flags.aligned
    return backing


def _coord(storage):
    """``[1..3] Point`` whose second ``coord`` is backed by ``storage``."""
    _, value = _points(3)
    value[2].coord._storage = storage
    return value


def _second(make):
    """``[1..3] Point`` whose second element is ``make(that element)``."""
    _, value = _points(3)
    value._storage[1] = make(value._storage[1])
    return value


def _record_subclass(rec):
    return _Record.from_values(rec.type, rec._values)


def _array_subclass(rec):
    _plant(rec, "coord", _Array(rec.coord.type, rec.coord._storage))
    return rec


def _unset(cls, **slots):
    bare = cls.__new__(cls)
    for name, slot in slots.items():
        object.__setattr__(bare, name, slot)
    return bare


class _Members(list):
    pass


def _values_as(convert):
    """A record whose member list is ``convert(its members)``."""
    def make(rec):
        object.__setattr__(rec, "_values", convert(rec._values))
        return rec
    return lambda: _second(make)


def _unset_coord(rec):
    _plant(rec, "coord", _unset(ChapelArray, type=rec.coord.type))
    return rec


BOUNDARY = {
    "ndarray_subclass": lambda: _coord(np.array([1.0, 2.0, 3.0, 4.0]).view(_Backing)),
    "two_d": lambda: _coord(np.array([[1.0, 2.0], [3.0, 4.0]])),
    "strided": lambda: _coord(np.arange(8.0)[::2]),
    "byte_swapped": lambda: _coord(np.array([1.0, 2.0, 3.0, 4.0], ">f8")),
    "unaligned": lambda: _coord(_unaligned([1.0, 2.0, 3.0, 4.0])),
    "bytearray": lambda: _coord(bytearray(np.arange(4.0).tobytes())),
    "array_array": lambda: _coord(array.array("d", [1.0, 2.0, 3.0, 4.0])),
    "wrong_length": lambda: _coord(np.arange(5.0)),
    "record_subclass": lambda: _second(_record_subclass),
    "array_subclass": lambda: _second(_array_subclass),
    "unset_parts": lambda: _second(lambda rec: _unset(ChapelRecord, type=rec.type)),
    "unset_type": lambda: _second(lambda rec: _unset(ChapelRecord, _values=rec._values)),
    "unset_backing": lambda: _second(_unset_coord),
    "parts_tuple": _values_as(tuple),
    "parts_list_subclass": _values_as(_Members),
    "parts_short": _values_as(lambda members: members[:-1]),
}


def _walks(monkeypatch):
    """The ``walk`` verdict of every ``linearize_it`` from here on."""
    walks, walk = [], linearize._walk
    monkeypatch.setattr(linearize, "_walk", lambda *a: walks.append(walk(*a)) or walks[-1])
    return walks


def _outcome(value, typ):
    """``linearize_it``'s bytes, or the type and text of what it raised."""
    try:
        return linearize_it(value, typ).raw.tobytes()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("make", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_a_value_outside_the_boundary_is_refused_then_packed_by_pack(
    walker, monkeypatch, make
):
    value = make()
    assert _walked(walker, value, value.type)[0] is False
    walks = _walks(monkeypatch)
    walked = _outcome(value, value.type)
    assert walks == ["refused"]
    monkeypatch.setattr(native, "linearizer", lambda wait=False: (None, "unavailable"))
    assert walked == _outcome(value, value.type)  # _pack's bytes, or its error


@pytest.mark.parametrize(
    "unset, slot", [("unset_parts", "_values"), ("unset_type", "type")], ids=["parts", "type"]
)
def test_an_unset_record_slot_is_an_attribute_error(walker, unset, slot):
    # never a RecursionError: __getattr__ does not look an unset slot up again
    value = BOUNDARY[unset]()
    rec = value._storage[1]
    reads = (
        lambda: getattr(rec, slot),
        lambda: rec.coord,
        lambda: setattr(rec, "coord", None),
        lambda: linearize_it(value, value.type),
    )
    for read in reads:
        with pytest.raises(AttributeError):
            read()


def test_a_record_pickles_as_its_type_and_member_list(walker, kmeans_setup):
    centroids = kmeans_setup["centroids"]
    rec = centroids[1]
    typ, members = rec.__getstate__()
    assert typ is rec.type and type(members) is list and members is rec._values
    assert members == [getattr(rec, name) for name in rec.type.field_names]
    again = pickle.loads(pickle.dumps(rec))
    assert again == rec and type(again._values) is list
    shipped = pickle.loads(pickle.dumps(centroids))
    assert shipped == centroids
    assert linearize_it(shipped, shipped.type).walk == "c"
    assert linearize_it(shipped, centroids.type).walk == "c"


def test_the_backings_in_bounds_are_read_in_place(walker):
    # a C-contiguous slice of a longer array, and a read-only backing
    _, value = _points(3)
    value[1].coord._storage = np.arange(10.0)[3:7]
    frozen = np.array([9.0, 8.0, 7.0, 6.0])
    frozen.flags.writeable = False
    value[3].coord._storage = frozen
    assert _walked(walker, value, value.type) == (True, _packed(value, value.type))


def test_a_walked_type_pickles_and_its_extras_stay_on_the_walk(walker, kmeans_setup):
    # a type and its values travel pickled with process-executor extras
    s = kmeans_setup
    centroids = s["centroids"]
    assert linearize_it(centroids, centroids.type).walk == "c"
    typ = pickle.loads(pickle.dumps(centroids.type))
    assert typ == centroids.type and hash(typ) == hash(centroids.type)
    assert typ is not centroids.type
    compiled = compile_reduction(s["source"], s["constants"], opt_level=2)
    tracer = Tracer()
    with tracing(tracer):
        bound = compiled.bind(s["data"], {"centroids": pickle.loads(pickle.dumps(centroids))})
        bound.update_extras({"centroids": from_python(typ, [{"coord": [1.0, 2.0]}] * s["k"])})
    spans = [sp for sp in tracer.spans() if sp.name == "linearize_extras"]
    assert [sp.args["walk"] for sp in spans] == ["c", "c"]
    assert linearize_it(centroids, typ).walk == "c"


def test_a_thousand_append_batches_all_walk(walker, monkeypatch):
    point_t = record("Point", coord=array_of(REAL, 4), w=REAL)

    def batch(k):
        rows = [{"coord": [k, k + 0.5, -k, 2.0], "w": 0.25 * k}, {"coord": [1.0] * 4, "w": k}]
        return from_python(array_of(point_t, 2), rows)

    buf = linearize_it(batch(-1), array_of(point_t, 2))
    walks = _walks(monkeypatch)
    batches = [batch(k) for k in range(1000)]
    for value in batches:
        linearize_append(buf, value)
    assert walks == ["c"] * 1000
    whole = from_python(
        array_of(point_t, 2002), [{"coord": list(p.coord), "w": p.w}
                                  for v in [batch(-1), *batches] for p in v]
    )
    assert buf.typ == whole.type
    assert buf.raw.tobytes() == _packed(whole, whole.type)


def test_a_buffer_of_another_size_is_an_error(walker):
    _, value = _points(2)
    with pytest.raises(ValueError, match="not the plan's size"):
        walker(_walk_plan(value.type), value, np.zeros(value.type.sizeof + 1, np.uint8))


# ---- where no walker exists ------------------------------------------------------


@pytest.fixture
def fresh_walker(monkeypatch, tmp_path):
    """This process as if it had never submitted the walker's build, with
    the kernel cache in ``tmp_path / "kernels"``."""
    runtime = native.walker.RUNTIME
    for name in ("loaded", "build", "_pid", "_warned"):
        monkeypatch.setattr(runtime, name, None)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "kernels"))
    yield tmp_path / "kernels"
    if runtime.build is not None:
        runtime.build.exception()  # nothing lands after the state is restored
    reset_toolchain_probe()


def _no_cc(monkeypatch, tmp_path):
    monkeypatch.setenv(CC_ENV, str(tmp_path / "no-such-cc"))
    reset_toolchain_probe()


def _no_python_h(monkeypatch, tmp_path):
    paths = {"include": str(tmp_path), "platinclude": str(tmp_path)}
    monkeypatch.setattr(native.walker.sysconfig, "get_paths", lambda: paths)


@pytest.mark.parametrize("cause", [_no_cc, _no_python_h], ids=["no_cc", "no_python_h"])
def test_no_walker_packs_with_one_warning_and_an_event_per_bind(
    fresh_walker, monkeypatch, tmp_path, caplog, cause
):
    cause(monkeypatch, tmp_path)
    compiled = compile_reduction(POINT_SUM, {}, opt_level=2)
    value = _suite_points(20)
    tracer = Tracer()
    with caplog.at_level(logging.WARNING):
        assert native.linearizer(wait=True) == (None, "unavailable")
        with tracing(tracer):
            bound = [compiled.bind(value) for _ in range(2)]
    assert len([r for r in caplog.records if r.levelno >= logging.WARNING]) == 1
    events = [e for e in tracer.events() if e.name == "linearize_walk"]
    assert [e.args["walk"] for e in events] == ["unavailable", "unavailable"]
    assert events[0].args["reason"] == str(native.walker.RUNTIME.build.exception())
    spans = [sp for sp in tracer.spans() if sp.name == "linearize_data"]
    assert [sp.args["walk"] for sp in spans] == ["unavailable", "unavailable"]
    for b in bound:
        assert b.data_buf.raw.tobytes() == _packed(value, value.type)
    assert not list(fresh_walker.glob("repro_walk_*.so"))


def _forked(child):
    """Fork; the child runs ``child()`` and reports it.  The report, or a
    failure once a child has not answered in a minute."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, never return into pytest
        try:
            report = child()
        except BaseException as exc:  # noqa: BLE001 - handed to the parent
            report = repr(exc)
        os.write(write, pickle.dumps(report))
        os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        if not select.select([pipe], [], [], 60)[0]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        report = pickle.loads(pipe.read())
    os.waitpid(pid, 0)
    assert not isinstance(report, str), report
    return report


def test_a_fork_during_the_build_falls_back_then_builds_its_own(
    fresh_walker, monkeypatch, tmp_path
):
    # cc holds each walker build for a while, so the fork lands mid-build
    script = tmp_path / "cc-wrapper"
    script.write_text(
        "#!/bin/sh\n"
        'case "$*" in *repro_walk_*) sleep 0.5 ;; esac\n'
        f'exec {shlex.quote(probe_toolchain()["cc"])} "$@"\n'
    )
    script.chmod(0o755)
    monkeypatch.setenv(CC_ENV, str(script))
    reset_toolchain_probe()
    assert probe_toolchain()["ok"]
    _, value = _points(10)
    assert linearize_it(value, value.type).walk == "building"

    def child():
        tracer, warnings = Tracer(), []
        logged = logging.Handler(logging.WARNING)
        logged.emit = warnings.append
        logging.getLogger("repro").addHandler(logged)
        with tracing(tracer):
            first = linearize_it(value, value.type).walk
        own = native.walker.RUNTIME._pid == os.getpid()
        settled = native.linearizer(wait=True)[1]
        later = linearize_it(value, value.type)
        events = [e.args["walk"] for e in tracer.events() if e.name == "linearize_walk"]
        return first, own, settled, later.walk, later.raw.tobytes(), events, len(warnings)

    first, own, settled, later, raw, events, warnings = _forked(child)
    assert (first, own, settled, later) == ("building", True, "c", "c")
    # one event and one warning, as the child submitted its own build
    assert events == ["building"] and warnings == 1
    assert raw == _packed(value, value.type)
    assert native.linearizer(wait=True)[1] == "c"  # the parent's build landed too
    assert linearize_it(value, value.type).walk == "c"


def test_a_fork_while_the_walker_build_probes_does_not_hang_the_child(
    fresh_walker, monkeypatch, tmp_path
):
    # cc holds its --version answer, and nothing probed before the first
    # linearization: the fork lands while the build thread holds the probe lock
    script = tmp_path / "cc-wrapper"
    script.write_text(
        "#!/bin/sh\n"
        'case "$1" in --version) sleep 1 ;; esac\n'
        f'exec {shlex.quote(probe_toolchain()["cc"])} "$@"\n'
    )
    script.chmod(0o755)
    monkeypatch.setenv(CC_ENV, str(script))
    reset_toolchain_probe()
    _, value = _points(10)
    assert linearize_it(value, value.type).walk == "building"
    deadline = time.monotonic() + 30
    while not native.toolchain._probe_lock.locked():
        assert time.monotonic() < deadline, "the walker build never probed"
        time.sleep(0.005)

    def child():
        mid_probe = native.toolchain._probe_state is None
        first = linearize_it(value, value.type).walk
        settled = native.linearizer(wait=True)[1]
        later = linearize_it(value, value.type)
        return mid_probe, first, settled, later.walk, later.raw.tobytes(), probe_toolchain()["ok"]

    mid_probe, first, settled, later, raw, ok = _forked(child)
    assert (mid_probe, first, settled, later, ok) == (True, "building", "c", "c", True)
    assert raw == _packed(value, value.type)
    assert native.linearizer(wait=True)[1] == "c"
