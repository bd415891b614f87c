"""Group runs in the native kernel: one group, one row, one touched flag.

Updates to one group expression in a row are printed as a run: the group
and its row are settled once at the run's head, a proof site on the fast
path compares its element only, and the group's touched flag is stored once
(right after the run's first store; for a loop, before it).  What a call
leaves behind must stay the scalar kernel's — ledger, snapshot, touched
groups and update count — on every path: a failure mid-run, a loop whose
first iteration fails before it stores, a head test a NaN defeats, and a
checked twin whose layout clears one site's bit.  A property test runs
random run-shaped programs, native against scalar, on layouts they fit and
on layouts that defeat a proof.  The shape asserts pin where the flag
stores land in two app kernels' fast paths.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compiler.native as native_mod
from repro.apps.kmeans import KMEANS_CHAPEL_SOURCE
from repro.apps.pca import PCA_COV_SOURCE
from repro.compiler.cache import clear_kernel_cache, compile_cached
from repro.compiler.native import NativeCodegen
from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import MappingError, ReductionObjectError

from tests.compiler.test_native import (
    APP_KERNELS,
    TestFailingCallLeavesWhatTheScalarKernelLeaves as FailingCalls,
    _real_vector,
    needs_cc,
    rc_name,
)
from tests.integration.test_compiler_fuzz import run_direct


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


def _both(source, data, layout, extras=None, constants=None):
    """The native kernel's text and ``run_direct``'s ``(failure, snapshot,
    touched groups, update count, ledger)`` per tier, native and scalar."""
    left = {}
    for backend in ("native", "scalar"):
        compiled = compile_cached(source, dict(constants or {}), opt_level=2,
                                  backend=backend)
        assert compiled.effective_backend == backend, compiled.native_fallback_reason
        bound = compiled.bind(data, extras or {})
        left[backend] = run_direct(compiled, bound, layout, len(data))
        if backend == "native":
            native = compiled
    return native, left


def _same(left):
    native, scalar = left["native"], left["scalar"]
    assert np.array_equal(native[1], scalar[1])
    assert native[2:] == scalar[2:]


def _fast_path(source):
    """The lines of the first run's fast path: from its head test to its
    ``} else {`` (or, with no test, to the end of the run's block)."""
    lines = source.splitlines()
    head = next(i for i, line in enumerate(lines) if "long long _rg" in line)
    pad = len(lines[head]) - len(lines[head].lstrip())
    end = next(
        i for i in range(head + 1, len(lines))
        if lines[i].startswith(" " * pad + "}")
        or lines[i].strip() == "} else {"
    )
    return lines[head:end]


#: ``y`` clamped to [0, 3] in Python's semantics: a NaN passes both clamps
#: in C and converts to a huge negative group
_NAN_RUN = """
class clampRun : ReduceScanOp {
  def accumulate(x: real) {
    var y: real = x;
    if (y < 0.0) { y = 0.0; }
    if (y > 3.0) { y = 3.0; }
    roAdd(toInt(y), 0, 1.0);
    roAdd(toInt(y), 1, x);
  }
}
"""


@needs_cc
class TestRunsLeaveWhatTheScalarKernelLeaves:
    def test_a_failure_mid_run_in_straight_line_code(self):
        # group 1's run: the first update stores and marks, the second
        # fails its element check; the flag stays set, as in the scalar kernel
        statement = "roAdd(1, 0, x); roAdd(1, toInt(x), 1.0);"
        calls = FailingCalls()
        compiled, native_exc, native_ro, native_ledger = calls._run(statement, 7.0, "native")
        _, scalar_exc, scalar_ro, scalar_ledger = calls._run(statement, 7.0, "scalar")
        src = compiled.native_source
        assert src.count("_touched[_rg") == 1, "one flag store for the run"
        assert f"_FAIL(FREERIDE_UNSTORED + {rc_name(21)})" in src
        assert type(native_exc) is type(scalar_exc) is ReductionObjectError
        assert calls._left_behind(native_ro, native_ledger) == calls._left_behind(
            scalar_ro, scalar_ledger
        )
        assert 1 in scalar_ro.touched_groups()

    def test_a_loop_run_whose_gather_fails_first_marks_nothing(self):
        # The run's group 2 is first reached by the planted element, whose
        # gather fails on the loop's first iteration, before any store: a
        # flag stored ahead of the loop would be left set.
        source = """
        class gatherRun : ReduceScanOp {
          var nb: int;
          var scale: [1..nb] real;
          def accumulate(x: real) {
            var y: real = x;
            if (y < 0.0) { y = 0.0; }
            if (y > 2.0) { y = 2.0; }
            for d in 1..2 {
              roAdd(toInt(y), d - 1, scale[toInt(x) + d]);
            }
          }
        }
        """
        data = np.tile([0.0, 1.0], 8)
        data[9] = 5.0
        native, left = _both(source, data, [(2, "add")] * 3,
                             extras={"scale": _real_vector([1, 2, 3, 4])},
                             constants={"nb": 4})
        assert "_rt" not in "\n".join(_fast_path(native.native_source)), (
            "a gather ahead of the update keeps the flag in the loop"
        )
        assert left["native"][0][0] is left["scalar"][0][0] is MappingError
        _same(left)
        assert 2 not in left["scalar"][2]

    @pytest.mark.parametrize("data", [[np.nan, 0.5, 0.0], [0.5, np.nan, 0.0]],
                             ids=["untouched", "touched"])
    def test_a_loop_run_whose_element_fails_first_puts_the_flag_back(self, data):
        # The flag is stored ahead of the loop; the element check of the
        # first iteration fails (a NaN through the clamp), so the flag goes
        # back to what the run found: unset, or set by an earlier element.
        source = """
        class elemRun : ReduceScanOp {
          def accumulate(x: real) {
            var y: real = x;
            if (y < 0.0) { y = 0.0; }
            if (y > 1.0) { y = 1.0; }
            for d in 1..2 {
              roAdd(1, toInt(y) + d - 1, 1.0);
            }
          }
        }
        """
        native, left = _both(source, np.array(data), [(3, "add")] * 2)
        assert re.search(r"_Bool _rt\d+ = _touched\[_rg\d+\]", native.native_source), (
            "the flag is stored ahead of the loop"
        )
        assert left["native"][0][0] is ReductionObjectError
        assert left["scalar"][0][0] is ValueError  # Python refuses the NaN in toInt
        _same(left)
        assert (1 in left["scalar"][2]) == (data[0] == 0.5)

    def test_a_nan_through_the_clamp_takes_the_slow_path(self):
        # the head test refuses the huge group, so the run executes as the
        # walker prints it, and its first update's checks refuse the store
        layout = [(2, "add")] * 4
        native, left = _both(_NAN_RUN, np.array([1.0, 2.0, np.nan, 3.0]), layout)
        proofs = native.native_kernel.native.proofs
        assert proofs == ((0, 3, 0, 0), (0, 3, 1, 0))
        ro = ReductionObject()
        ro.alloc_many(layout)
        assert native_mod.proof_mask(proofs, ro.direct_store()) == 0b11
        assert "} else {" in native.native_source
        assert left["native"][0][0] is ReductionObjectError
        _same(left)

    def test_a_checked_twin_run_with_one_bit_cleared(self):
        # group 2 holds one element: the second site's bit is clear, so the
        # checked twin runs, its head test fails on the bits, and the slow
        # path refuses element 1 of group 2 as the scalar kernel does
        layout = [(2, "add"), (2, "add"), (1, "add"), (2, "add")]
        data = np.array([0.0, 1.0, 3.0, 2.0, 1.0, 0.0])
        native, left = _both(_NAN_RUN, data, layout)
        ro = ReductionObject()
        ro.alloc_many(layout)
        kernel = native.native_kernel.native
        assert native_mod.proof_mask(kernel.proofs, ro.direct_store()) == 0b01
        assert "(_proven & 3LL) == 3LL" in kernel.twin().source
        assert left["native"][0] == left["scalar"][0] == (
            ReductionObjectError, ["out of range"]
        )
        _same(left)


@st.composite
def run_programs(draw):
    """A kernel whose body is one group run: straight-line updates, update
    loops and other locals' assignments, all into one group — a literal or
    ``g``, a clamped ``toInt`` of the data — plus its layouts: one holding
    every index, and ones with a group short, an op swapped or a group one
    element short (the checked twin's cases)."""
    groups = draw(st.integers(1, 3))
    elems = draw(st.integers(1, 3))
    group = draw(st.sampled_from(["g", *map(str, range(groups))]))
    members = []
    for i in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["update", "loop"] + (["local"] if i else [])))
        if kind == "update":
            members.append(f"roAdd({group}, {draw(st.integers(0, elems - 1))}, x[2]);")
        elif kind == "loop":
            members.append(f"for d in 1..{draw(st.integers(0, elems))} "
                           f"{{ t = t + x[2]; roAdd({group}, d - 1, t * d); }}")
        else:
            members.append("t = x[2] * 2.0;")
    source = f"""
    class runFuzz : ReduceScanOp {{
      def accumulate(x: [1..2] real) {{
        var y: real = x[1];
        if (y < 0.0) {{ y = 0.0; }}
        if (y > {groups - 1}.0) {{ y = {groups - 1}.0; }}
        var g: int = toInt(y);
        var t: real = 0.0;
        {' '.join(members)}
      }}
    }}
    """
    layout = [(elems, "add")] * groups
    defeated = draw(st.sampled_from(["none", "short", "op", "few_elems"]))
    victim = draw(st.integers(0, groups - 1))
    if defeated == "short":
        layout = layout[:-1]
    elif defeated == "op":
        layout[victim] = (elems, "max")
    elif defeated == "few_elems" and elems > 1:
        layout[victim] = (elems - 1, "add")
    return source, layout, draw(st.integers(0, 10_000))


@needs_cc
@settings(max_examples=25, deadline=None)
@given(case=run_programs())
def test_random_runs_leave_what_the_scalar_kernel_leaves(case):
    source, layout, seed = case
    rng = np.random.default_rng(seed)
    data = rng.integers(-1, 4, (12, 2)).astype(np.float64)
    _, left = _both(source, data, layout)
    assert left["native"][0] == left["scalar"][0], source
    _same(left)


def _native_text(app, checked=False):
    source, constants = APP_KERNELS[app]
    compiled = compile_cached(source, dict(constants), opt_level=2)
    return NativeCodegen(
        compiled.lowered, compiled.plan, summary=compiled.group_bounds,
        checked=checked,
    ).generate()


class TestRunShape:
    def test_kmeans_fast_path_marks_its_group_once(self):
        assert APP_KERNELS["kmeans"][0] == KMEANS_CHAPEL_SOURCE
        fast = _fast_path(_native_text("kmeans"))
        assert re.match(r"\s*if \(\(unsigned long long\)_rg\d+ <= 3ULL\) \{", fast[1])
        assert sum("_touched[" in line for line in fast) == 1
        # the group half of the proof compare is the head's alone
        assert not any("_ro_groups" in line for line in fast)

    def test_kmeans_checked_twin_tests_the_run_s_bits_at_its_head(self):
        fast = _fast_path(_native_text("kmeans", checked=True))
        assert "(_proven & 7LL) == 7LL" in fast[1]
        assert not any("_proven >>" in line for line in fast)

    def test_pca_cov_inner_loop_stores_no_flag(self):
        assert APP_KERNELS["pca_cov"][0] == PCA_COV_SOURCE
        fast = _fast_path(_native_text("pca_cov"))
        loop = next(i for i, line in enumerate(fast) if "for (long long _it" in line)
        assert "_touched[_rg" in fast[loop - 1] and "_lo" in fast[loop - 1]
        assert not any("_touched[" in line and "_rt" not in line for line in fast[loop:])
