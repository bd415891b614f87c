"""Native backend unit tests: codegen output, fallbacks, the disk cache.

Covers the pieces the app-level equivalence matrix can't see directly:
the generated C source, what a call that fails part-way leaves behind
(ledger, target, touched flags, update count — the scalar kernel's, code
by code), the recorded downgrade when a kernel (or the whole toolchain)
can't go native, warm-start attach from the on-disk cache with zero
compiler invocations, stale-cache invalidation on a format-version or
build-flags change, cold builds running beside their caller (through a
``REPRO_CC`` wrapper that logs and delays each kernel build), and the
in-memory kernel cache's LRU eviction accounting.
"""

import logging
import re
import shlex
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro.compiler.native as native_mod
from repro.apps.apriori import APRIORI_CHAPEL_SOURCE
from repro.apps.em import EM_CHAPEL_SOURCE, EmRunner
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE, HistogramRunner
from repro.apps.kmeans import (
    KMEANS_CHAPEL_SOURCE,
    centroids_to_chapel,
    kmeans_ro_layout,
)
from repro.apps.pca import (
    PCA_COV_SOURCE,
    PCA_MEAN_SOURCE,
    cov_ro_layout,
    mean_ro_layout,
)
from repro.apps.windowed import WINDOWED_CHAPEL_SOURCE, WindowedRunner
from repro.chapel.domains import Domain
from repro.chapel.types import REAL, ArrayType
from repro.chapel.values import from_python
from repro.compiler import cache as kernel_cache
from repro.compiler.cache import (
    clear_kernel_cache,
    compile_cached,
    kernel_cache_stats,
)
from repro.compiler.interp import interpret_over
from repro.compiler.native import (
    CACHE_ENV,
    CC_ENV,
    NativeCodegen,
    probe_toolchain,
    reset_toolchain_probe,
)
from repro.freeride.reduction_object import ReductionObject
from repro.machine.counters import OpCounters
from repro.obs.tracer import Tracer, tracing
from repro.util.errors import MappingError, ReductionObjectError

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

HIST_CONSTS = {"bins": 8, "lo": 0.0, "width": 2.0}

#: The six applications' kernels (PCA has two) with small constants.
APP_KERNELS = {
    "kmeans": (KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3}),
    "histogram": (HISTOGRAM_CHAPEL_SOURCE, HIST_CONSTS),
    "pca_mean": (PCA_MEAN_SOURCE, {"m": 5}),
    "pca_cov": (PCA_COV_SOURCE, {"m": 5}),
    "em": (EM_CHAPEL_SOURCE, {"k": 2, "dim": 2}),
    "apriori": (APRIORI_CHAPEL_SOURCE, {"numItems": 10, "numCand": 6, "setSize": 2}),
    "windowed": (WINDOWED_CHAPEL_SOURCE,
                 {"win": 64, "nw": 8, "nb": 8, "lo": 0.0, "width": 0.125}),
}

#: Nothing in it can fail: no reduction-object update, no unproven index.
NO_UPDATE_SOURCE = """
class noUpdate : ReduceScanOp {
  def accumulate(x: real) {
    var y: real = x + 1.0;
  }
}
"""


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    """Each test compiles from scratch and leaves global state clean."""
    clear_kernel_cache()
    yield
    clear_kernel_cache()


def _compile_hist(backend="native", opt_level=2):
    return compile_cached(
        HISTOGRAM_CHAPEL_SOURCE, dict(HIST_CONSTS), opt_level=opt_level,
        backend=backend,
    )


@needs_cc
class TestNativeCodegen:
    def test_source_shape(self):
        compiled = _compile_hist()
        assert compiled.native_kernel is not None, compiled.native_fallback_reason
        nk = compiled.native_kernel.native
        src = compiled.native_source
        # self-contained C translation unit with the hashed entry point
        assert f"long long {nk.symbol}(" in src
        assert nk.symbol.startswith("repro_native_")
        # no system headers: the unit opens with the contract, then the
        # helpers this kernel calls — for the histogram one loader — and the
        # failing-check macro
        assert src.startswith('#include "freeride.h"\n') and src.count("#include") == 1
        head = src[: src.index("/*")]
        assert head.count("static ") == 1 and "_ld_f64" in head
        assert "__builtin_memcpy" in head
        assert "#define _FAIL(rc) { _rc = rc; goto _out; }" in head
        # counter bumps mirror the scalar kernel's static cost model, into
        # integer locals declared for exactly the slots the kernel uses ...
        slots = [native_mod.printer._CIDX[n] for n in (
            "flops", "linear_reads", "index_calls", "index_levels",
            "ro_updates", "elements_processed",
        )]
        declared = "long long " + ", ".join(f"_c{i} = 0" for i in slots) + ";"
        assert declared in src
        # ... and stored once, at the split body's single exit
        body, exit_ = src.split("\n_out:\n")
        assert "_C[" not in body
        flush = " ".join(f"_C[{i}] += _c{i};" for i in slots)
        assert exit_.startswith(f"    {flush}\n    return _rc;\n}}")
        # the element loop and its processed-elements accounting
        loop = "for (long long _e = _start; _e < _end; _e++) {"
        bump = f"_c{native_mod.printer._CIDX['elements_processed']} += 1;"
        assert re.search(re.escape(loop) + r"\s+" + re.escape(bump), src)

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    @pytest.mark.parametrize("app", sorted(APP_KERNELS))
    def test_counts_are_stored_only_at_the_exit(self, app, opt_level):
        source, constants = APP_KERNELS[app]
        compiled = compile_cached(
            source, dict(constants), opt_level=opt_level, backend="native"
        )
        if compiled.native_kernel is None:
            # nothing was emitted: nested extras below opt-2 go to another tier
            assert opt_level < 2 and "nested" in compiled.native_fallback_reason
            return
        body, exit_ = compiled.native_source.split("\n_out:\n")
        assert "_C[" not in body
        assert re.match(r"    (_C\[\d+\] \+= _c\d+; ?)+\n    return _rc;\n}", exit_)
        # every failing check leaves through that exit, none returns early
        split_body = body[body.index("_split("):]
        assert "return" not in split_body and split_body.count("_FAIL(") > 1

    def test_kernel_that_cannot_fail_has_no_exit_label(self):
        # no reduction-object update, every index proven: nothing can fail,
        # so no _out label, no _rc and no macro for cc to call unused
        compiled = compile_cached(
            NO_UPDATE_SOURCE, {}, opt_level=2, backend="native"
        )
        assert compiled.native_kernel is not None, compiled.native_fallback_reason
        src = compiled.native_source
        for absent in ("_out:", "goto", "long long _rc = 0;", "_FAIL"):
            assert absent not in src, absent
        assert "    return 0;\n}" in src

    @pytest.mark.parametrize("which", [*sorted(APP_KERNELS), "no_update"])
    def test_no_unused_noise_for_cc(self, which, tmp_path):
        # only what a kernel uses is declared, defined, labelled or flushed
        source, constants = APP_KERNELS.get(which, (NO_UPDATE_SOURCE, {}))
        compiled = compile_cached(
            source, dict(constants), opt_level=2, backend="native"
        )
        native = compiled.native_kernel.native
        texts = {"kernel": compiled.native_source}
        if native.twin is not None:  # its checked twin too, emitted not built
            texts["twin"] = NativeCodegen(
                compiled.lowered, compiled.plan,
                summary=compiled.group_bounds, checked=True,
            ).generate()
        for stem, text in texts.items():
            c_file = tmp_path / f"{stem}.c"
            c_file.write_text(text)
            run = subprocess.run(
                [probe_toolchain()["cc"], str(c_file), *native_mod.CC_FLAGS,
                 f"-I{Path(native_mod.__file__).parent}", "-Wunused-label", "-Wunused-variable", "-Wunused-function",
                 "-Werror", "-o", str(tmp_path / f"{stem}.so")],
                capture_output=True, text=True,
            )
            assert run.returncode == 0, (stem, run.stderr)

    def test_effective_backend_and_event(self):
        tracer = Tracer()
        with tracing(tracer):
            compiled = _compile_hist()
        assert compiled.effective_backend == "native"
        (decision,) = [e for e in tracer.events() if e.name == "kernel_backend"]
        assert decision.args["requested"] == "native"
        assert decision.args["effective"] == "native"
        assert not decision.args.get("reason")

    def test_nested_extras_fall_back_with_reason(self):
        # kmeans at opt 0 keeps nested extras (centroids[c].coord[d]) that
        # the C emitter refuses; the batch tier must be compiled instead
        tracer = Tracer()
        with tracing(tracer):
            compiled = compile_cached(
                KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3},
                opt_level=0, backend="native",
            )
        assert compiled.native_kernel is None
        assert "nested" in compiled.native_fallback_reason
        assert compiled.effective_backend in ("batch", "scalar")
        (decision,) = [e for e in tracer.events() if e.name == "kernel_backend"]
        assert decision.args["requested"] == "native"
        assert decision.args["effective"] != "native"
        assert decision.args["reason"]


# -- a call that fails part-way ------------------------------------------------

def _real_vector(values):
    return from_python(ArrayType(Domain(len(values)), REAL), [float(v) for v in values])


def rc_name(rc):
    """A return code's ``enum freeride_rc`` name, as the printed text spells it."""
    return native_mod.artifact.contract_ffi().typeof("enum freeride_rc").elements[rc]


#: Every update statement follows one that succeeds on the same element, so a
#: failing element has already stored and counted something when it fails.
_UPDATE_TEMPLATE = """
class failing : ReduceScanOp {
  var nb: int;
  var scale: [1..nb] real;

  def accumulate(x: real) {
    roAdd(0, 0, x);
    %s
  }
}
"""

#: return code -> (second statement, the planted value, exception, message).
#: Values 0 and 1 are harmless under every statement.
FAILING_CALLS = {
    10: ("roAdd(1, 0, scale[toInt(x) + 1]);", 9.0, MappingError, r"out of range"),
    11: ("var n: int = toInt(x) + 1; for d in 1..n { roAdd(1, 0, scale[d]); }",
         5.0, IndexError, r"out of bounds"),
    20: ("roAdd(toInt(x), 1, 1.0);", 7.0, ReductionObjectError,
         r"group.* not allocated"),
    21: ("roAdd(1, toInt(x), 1.0);", 7.0, ReductionObjectError,
         r"element.* out of range for .*group"),
    22: ("roAdd(toInt(x), 0, 1.0);", 2.0, ReductionObjectError,
         r"op does not match the group's op"),
}
#: (rc, plant) pairs of the parity case: every call's own plant, and under
#: rc 20 / rc 21 a negative group / element id, which must not wrap around to
#: the last one
PARITY_PLANTS = [
    *(pytest.param(rc, call[1], id=str(rc)) for rc, call in sorted(FAILING_CALLS.items())),
    pytest.param(20, -1.0, id="20-negative"),
    pytest.param(21, -1.0, id="21-negative"),
]
FAILING_LAYOUT = [(2, "add"), (2, "add"), (1, "min")]
#: three ranges in one call; the planted value is the third element of the second
FAILING_RANGES = [(0, 6), (6, 12), (12, 16)]
FAILING_AT = 8


@needs_cc
class TestFailingCallLeavesWhatTheScalarKernelLeaves:
    """The single exit (``goto _out``) flushes the counts of a failing call."""

    def _run(self, statement, bad, backend):
        data = np.tile([0.0, 1.0], 8)
        data[FAILING_AT] = bad
        compiled = compile_cached(
            _UPDATE_TEMPLATE % statement, {"nb": 4}, opt_level=2, backend=backend
        )
        assert compiled.effective_backend == backend, compiled.native_fallback_reason
        bound = compiled.bind(data, {"scale": _real_vector([1, 2, 3, 4])})
        ro = ReductionObject()
        ro.alloc_many(FAILING_LAYOUT)
        ledger = OpCounters()
        with pytest.raises(Exception) as raised:
            if backend == "native":
                starts, ends = np.array(FAILING_RANGES, dtype=np.int64).T
                compiled.native_kernel.ranges(starts, ends, ro, bound.env, ledger)
            else:
                for start, end in FAILING_RANGES:
                    compiled.effective_kernel(start, end, ro, bound.env, ledger)
        return compiled, raised.value, ro, ledger

    @staticmethod
    def _left_behind(ro, ledger):
        return (
            ledger.as_dict(), ro.snapshot().tolist(), ro.touched_groups(),
            ro.update_count,
        )

    @pytest.mark.parametrize("rc, bad", PARITY_PLANTS)
    def test_parity_with_the_scalar_kernel(self, rc, bad):
        statement, _, exc_type, message = FAILING_CALLS[rc]
        compiled, native_exc, native_ro, native_ledger = self._run(
            statement, bad, "native"
        )
        # the kernel really has this check, inside an update statement
        assert f"_FAIL(FREERIDE_UNSTORED + {rc_name(rc)})" in compiled.native_source
        _, scalar_exc, scalar_ro, scalar_ledger = self._run(statement, bad, "scalar")

        assert type(native_exc) is type(scalar_exc) is exc_type
        assert re.search(message, str(native_exc)), native_exc
        assert re.search(message, str(scalar_exc)), scalar_exc
        assert self._left_behind(native_ro, native_ledger) == self._left_behind(
            scalar_ro, scalar_ledger
        )
        # which is: the first range whole, two elements of the second, the
        # failing element up to the statement that failed (counted, as every
        # statement is, before it ran), and nothing of the third range
        assert scalar_ledger.elements_processed == FAILING_AT + 1
        assert scalar_ledger.ro_updates > scalar_ro.update_count > FAILING_AT

    def test_the_batch_tier_and_the_oracle_refuse_a_negative_group_too(self):
        compiled, exc, _, _ = self._run(FAILING_CALLS[20][0], -1.0, "batch")
        assert type(exc) is ReductionObjectError, exc
        data = np.tile([0.0, 1.0], 8)
        data[FAILING_AT] = -1.0
        with pytest.raises(ReductionObjectError):
            interpret_over(
                compiled.lowered, data, {"scale": _real_vector([1, 2, 3, 4])},
                FAILING_LAYOUT,
            )

    def test_every_tier_and_the_oracle_refuse_another_groups_op(self):
        # roAdd into the min group: what the three compiled tiers refuse, the
        # AST interpreter refuses too, in the same words
        statement, bad, exc_type, message = FAILING_CALLS[22]
        for backend in ("scalar", "batch", "native"):
            compiled, exc, _, _ = self._run(statement, bad, backend)
            assert type(exc) is exc_type and re.search(message, str(exc)), backend
        data = np.tile([0.0, 1.0], 8)
        data[FAILING_AT] = bad
        with pytest.raises(exc_type, match=message):
            interpret_over(
                compiled.lowered, data, {"scale": _real_vector([1, 2, 3, 4])},
                FAILING_LAYOUT,
            )

    def test_a_check_outside_an_update_statement(self):
        # the same computeIndex check in a declaration: no update is pending
        # when it fails, so every counted update was stored
        statement = "var s: real = scale[toInt(x) + 1]; roAdd(1, 0, s);"
        compiled, native_exc, native_ro, native_ledger = self._run(
            statement, 9.0, "native"
        )
        assert f"_FAIL({rc_name(10)})" in compiled.native_source
        _, scalar_exc, scalar_ro, scalar_ledger = self._run(statement, 9.0, "scalar")
        assert type(native_exc) is type(scalar_exc) is MappingError
        assert self._left_behind(native_ro, native_ledger) == self._left_behind(
            scalar_ro, scalar_ledger
        )
        assert scalar_ro.update_count == scalar_ledger.ro_updates == 2 * FAILING_AT + 1

    @pytest.mark.parametrize("rc", [20, 21, 22])
    def test_an_unbounded_site_carries_no_proof_bit(self, rc):
        # only the bounded ``roAdd(0, 0, x)`` ahead of it is a proof site
        compiled = compile_cached(
            _UPDATE_TEMPLATE % FAILING_CALLS[rc][0], {"nb": 4}, opt_level=2,
            backend="native",
        )
        native = compiled.native_kernel.native
        assert native.proofs == ((0, 0, 0, 0),)
        assert native.twin().source.count("_proven >>") == 1


# -- proof sites: one verdict per kernel x layout -------------------------------

def _runner_layouts():
    """app -> the layout its runner hands the engine, at APP_KERNELS' constants."""
    km, pca = APP_KERNELS["kmeans"][1], APP_KERNELS["pca_cov"][1]
    runners = [
        HistogramRunner(8, 0.0, 16.0, version="manual"),
        EmRunner(2, 2),
        WindowedRunner(64, 8, np.ones(8), 0.0, 1.0),
    ]
    try:
        hist, em, windowed = (r.ro_layout() for r in runners)
    finally:
        for runner in runners:
            runner.close()
    return {
        "kmeans": kmeans_ro_layout(km["k"], km["dim"]),
        "histogram": hist,
        "pca_mean": mean_ro_layout(pca["m"]),
        "pca_cov": cov_ro_layout(pca["m"]),
        "em": em,
        # AprioriRunner._count_supports: one group of numCand supports
        "apriori": [(APP_KERNELS["apriori"][1]["numCand"], "add")],
        "windowed": windowed,
    }


def _bounded_case(app):
    """``(constants, data, extras, good layout)`` of a bounded-site kernel;
    every group of the layout is hit, in element order, more than once."""
    if app == "histogram":
        return HIST_CONSTS, np.arange(16, dtype=np.float64), {}, [(2, "add")] * 8
    if app == "kmeans":
        centroids = np.array([[0.0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4]])
        points = np.concatenate([centroids + 0.5, centroids - 0.25])
        return ({"k": 4, "dim": 3}, points,
                {"centroids": centroids_to_chapel(centroids)}, kmeans_ro_layout(4, 3))
    assert app == "pca_cov"
    cols = np.arange(40, dtype=np.float64).reshape(8, 5) % 7
    return {"m": 5}, cols, {"mean": _real_vector([1, 2, 3, 2, 1])}, cov_ro_layout(5)


def _defeat(layout, how):
    """The layout one group short, or with its group 2 declared with another
    op or one element short."""
    if how == "short":
        return layout[:-1]
    bad = list(layout)
    n, op = bad[2]
    bad[2] = (n, "max" if op == "add" else "add") if how == "op" else (n - 1, op)
    return bad


#: how a layout defeats a proof -> (return code, message both tiers raise)
DEFEATS = {
    "short": (20, r"group.* not allocated"),
    "op": (22, r"op does not match the group's op"),
    "few_elems": (21, r"element.* out of range for .*group"),
}


@needs_cc
class TestProofSites:
    """A site the effect summary bounds skips its checks in the default
    build, which runs only on a layout with a full verdict; any other layout
    runs the checked twin, where a clear bit runs the checks, and a failing
    call leaves what the scalar kernel leaves."""

    @pytest.mark.parametrize("app", sorted(APP_KERNELS))
    def test_every_app_kernel_is_proven_on_its_runners_layout(self, app):
        source, constants = APP_KERNELS[app]
        compiled = compile_cached(
            source, dict(constants), opt_level=2, backend="native"
        )
        proofs = compiled.native_kernel.native.proofs
        assert proofs, "every app kernel has a bounded update"
        ro = ReductionObject()
        ro.alloc_many(_runner_layouts()[app])
        assert native_mod.proof_mask(proofs, ro.direct_store()) == (1 << len(proofs)) - 1

    @pytest.mark.parametrize("app", sorted(APP_KERNELS))
    def test_the_default_build_tests_no_proof_bit(self, app):
        source, constants = APP_KERNELS[app]
        compiled = compile_cached(
            source, dict(constants), opt_level=2, backend="native"
        )
        assert "_proven >>" not in compiled.native_source
        assert compiled.native_kernel.native.twin is not None

    def _run(self, app, layout, backend):
        constants, data, extras, _ = _bounded_case(app)
        source = APP_KERNELS[app][0]
        compiled = compile_cached(source, dict(constants), opt_level=2, backend=backend)
        assert compiled.effective_backend == backend, compiled.native_fallback_reason
        bound = compiled.bind(data, extras)
        ro = ReductionObject()
        ro.alloc_many(layout)
        ledger = OpCounters()
        n = len(data)
        ranges = [(0, n // 3), (n // 3, n - 2), (n - 2, n)]
        with pytest.raises(Exception) as raised:
            if backend == "native":
                starts, ends = np.array(ranges, dtype=np.int64).T
                compiled.native_kernel.ranges(starts, ends, ro, bound.env, ledger)
            else:
                for start, end in ranges:
                    compiled.effective_kernel(start, end, ro, bound.env, ledger)
        return compiled, raised.value, ro, ledger

    @pytest.mark.parametrize("how", sorted(DEFEATS))
    @pytest.mark.parametrize("app", ["histogram", "kmeans", "pca_cov"])
    def test_parity_where_the_layout_defeats_the_proof(self, app, how):
        rc, message = DEFEATS[how]
        layout = _defeat(_bounded_case(app)[3], how)
        compiled, native_exc, native_ro, native_ledger = self._run(app, layout, "native")
        proofs = compiled.native_kernel.native.proofs
        mask = native_mod.proof_mask(proofs, native_ro.direct_store())
        assert mask != (1 << len(proofs)) - 1, "the verdict must clear a bit"
        _, scalar_exc, scalar_ro, scalar_ledger = self._run(app, layout, "scalar")

        assert type(native_exc) is type(scalar_exc) is ReductionObjectError
        assert re.search(message, str(native_exc)), native_exc
        assert re.search(message, str(scalar_exc)), scalar_exc
        left = TestFailingCallLeavesWhatTheScalarKernelLeaves._left_behind
        assert left(native_ro, native_ledger) == left(scalar_ro, scalar_ledger)
        # part of the data was reduced before the failing update
        assert 0 < scalar_ro.update_count < scalar_ledger.ro_updates
        assert f"_FAIL(FREERIDE_UNSTORED + {rc_name(rc)})" in compiled.native_source

    def test_an_index_outside_the_proven_bounds_runs_the_checks(self):
        # The effect analysis reasons in Python's semantics: y is clamped to
        # [0, 3], so toInt(y) is too.  In C a NaN passes both clamps and
        # converts to a huge negative group.  The site is proven and its bit
        # set, so only the bounds guard stands between that index and a
        # store outside the buffer: the checks run and refuse it, leaving
        # what the scalar kernel leaves (which refuses the NaN in toInt).
        source = """
        class clampReal : ReduceScanOp {
          def accumulate(x: real) {
            var y: real = x;
            if (y < 0.0) { y = 0.0; }
            if (y > 3.0) { y = 3.0; }
            roAdd(toInt(y), 0, 1.0);
          }
        }
        """
        data = np.array([1.0, 2.0, np.nan, 3.0])
        left = {}
        for backend in ("native", "scalar"):
            compiled = compile_cached(source, {}, opt_level=2, backend=backend)
            bound = compiled.bind(data)
            ro = ReductionObject()
            ro.alloc_many([(1, "add")] * 4)
            ledger = OpCounters()
            if backend == "native":
                proofs = compiled.native_kernel.native.proofs
                assert proofs == ((0, 3, 0, 0),)
                assert native_mod.proof_mask(proofs, ro.direct_store()) == 1
            with pytest.raises(Exception) as raised:
                if backend == "native":
                    compiled.native_kernel.ranges(
                        np.array([0]), np.array([4]), ro, bound.env, ledger
                    )
                else:
                    compiled.effective_kernel(0, 4, ro, bound.env, ledger)
            left[backend] = (
                type(raised.value),
                TestFailingCallLeavesWhatTheScalarKernelLeaves._left_behind(ro, ledger),
            )
        assert left["native"][0] is ReductionObjectError
        assert left["scalar"][0] is ValueError
        assert left["native"][1] == left["scalar"][1]

    def test_the_verdict_is_decided_once_per_layout(self, monkeypatch):
        calls = []
        real = native_mod.proof_mask
        monkeypatch.setattr(
            native_mod, "proof_mask", lambda *a: calls.append(a) or real(*a)
        )
        constants, data, extras, layout = _bounded_case("histogram")
        compiled = compile_cached(
            HISTOGRAM_CHAPEL_SOURCE, dict(constants), opt_level=2, backend="native"
        )
        bound = compiled.bind(data, extras)
        ranges = compiled.native_kernel.ranges
        starts, ends = np.array([0]), np.array([len(data)])
        for _ in range(3):  # a fresh replica per run: a lookup, not a pass
            ro = ReductionObject()
            ro.alloc_many(layout)
            ranges(starts, ends, ro, bound.env, OpCounters())
        assert len(calls) == 1
        ro = ReductionObject()
        ro.alloc_many(_defeat(layout, "op"))
        with pytest.raises(ReductionObjectError):
            ranges(starts, ends, ro, bound.env, OpCounters())
        assert len(calls) == 2


def _outcome(run, layout):
    """``run(ro, ledger)`` on a fresh reduction object of ``layout``: what it
    raised (or None) and what it left behind."""
    ro = ReductionObject()
    ro.alloc_many(layout)
    ledger = OpCounters()
    try:
        run(ro, ledger)
    except Exception as exc:  # compared against the scalar kernel's
        raised = exc
    else:
        raised = None
    return raised, TestFailingCallLeavesWhatTheScalarKernelLeaves._left_behind(ro, ledger)


@pytest.fixture
def fast_switching():
    """A short interpreter switch interval, restored afterwards."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


#: the apps whose kernels run the full -> defeated -> full sequence
TWIN_APPS = ["histogram", "kmeans", "pca_cov"]


@needs_cc
class TestCheckedTwin:
    """The verdict picks the build: the default one on a full verdict, the
    checked twin — built once per kernel, the first time a layout needs
    it — on any other."""

    @staticmethod
    def _compile(app, backend):
        constants, data, extras, layout = _bounded_case(app)
        compiled = compile_cached(
            APP_KERNELS[app][0], dict(constants), opt_level=2, backend=backend
        )
        assert compiled.effective_backend == backend, compiled.native_fallback_reason
        return compiled, compiled.bind(data, extras), len(data), layout

    def test_a_full_verdict_builds_no_twin(self, tmp_path, monkeypatch):
        from repro.freeride.runtime import FreerideEngine

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        tracer = Tracer()
        with tracing(tracer):
            for app in TWIN_APPS:
                _, bound, _, layout = self._compile(app, "native")
                spec, idx = bound.make_spec(layout)
                engine = FreerideEngine(num_threads=2, executor="threads")
                try:
                    engine.run(spec, idx)
                finally:
                    engine.close()
        compiles = [s for s in tracer.spans() if s.name == "native_compile"]
        assert len(compiles) == len({s.args["reduction"] for s in compiles}) == 3
        assert not [e for e in tracer.events() if e.name == "native_checked"]

    @pytest.mark.parametrize("lanes", [1, 4], ids=["serial", "threads"])
    @pytest.mark.parametrize("app", TWIN_APPS)
    def test_full_then_defeated_then_full(
        self, app, lanes, tmp_path, monkeypatch, fast_switching
    ):
        # threads: more lanes than cores reach each new layout's verdict
        # (and the twin's first build) together
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        scalar, scalar_bound, n, layout = self._compile(app, "scalar")
        ranges = [(0, n // 3), (n // 3, n - 2), (n - 2, n)]
        starts, ends = np.array(ranges, dtype=np.int64).T

        def scalar_run(ro, ledger):
            for start, end in ranges:
                scalar.effective_kernel(start, end, ro, scalar_bound.env, ledger)

        steps = [(layout, None)]
        steps += [(_defeat(layout, how), how) for how in sorted(DEFEATS)]
        steps += [(layout, None)]
        tracer = Tracer()
        with tracing(tracer):
            compiled, bound, _, _ = self._compile(app, "native")
            kernel = compiled.native_kernel

            def native_run(ro, ledger):
                gate.wait(timeout=60)
                kernel.ranges(starts, ends, ro, bound.env, ledger)

            for step_layout, how in steps:
                want_exc, want_left = _outcome(scalar_run, step_layout)
                gate = threading.Barrier(lanes)
                with ThreadPoolExecutor(lanes) as pool:
                    got = list(pool.map(
                        lambda _: _outcome(native_run, step_layout), range(lanes)
                    ))
                for got_exc, got_left in got:
                    assert type(got_exc) is type(want_exc), (how, got_exc, want_exc)
                    if how is not None:
                        assert re.search(DEFEATS[how][1], str(got_exc)), got_exc
                    assert got_left == want_left, how
        compiles = [s for s in tracer.spans() if s.name == "native_compile"]
        assert len(compiles) == 2  # the default build, and its twin once
        checked = [e.args for e in tracer.events() if e.name == "native_checked"]
        assert len(checked) >= len(DEFEATS)  # one per defeating layout
        proofs = kernel.native.proofs
        twin = kernel.native.twin()
        assert twin.compiled and "_proven >>" in twin.source
        for args in checked:
            assert args["kernel"] == compiled.lowered.name
            assert args["digest"] == twin.digest[:12] and args["twin"] == "built"
            assert args["sites"] == len(proofs)
            assert args["mask"] != (1 << len(proofs)) - 1


class TestToolchainFallback:
    def test_broken_cc_degrades_every_kernel(self, monkeypatch):
        monkeypatch.setenv(CC_ENV, "/nonexistent/definitely-not-a-compiler")
        reset_toolchain_probe()
        try:
            compiled = _compile_hist()
            assert compiled.native_kernel is None
            assert "unusable" in compiled.native_fallback_reason
            assert compiled.effective_backend in ("batch", "scalar")
            # results still correct through the fallback tier
            bound = compiled.bind(np.arange(16, dtype=np.float64))
            spec, idx = bound.make_spec([(2, "add")] * 8)
            from repro.freeride.runtime import FreerideEngine

            engine = FreerideEngine(num_threads=1, executor="serial")
            try:
                result = engine.run(spec, idx)
            finally:
                engine.close()
            assert result.ro.get(0, 0) + 0 >= 0  # ran to completion
        finally:
            monkeypatch.undo()
            reset_toolchain_probe()

    def test_probe_event_fires_once_per_process(self, monkeypatch):
        monkeypatch.setenv(CC_ENV, "/nonexistent/definitely-not-a-compiler")
        reset_toolchain_probe()
        try:
            tracer = Tracer()
            with tracing(tracer):
                _compile_hist()
                clear_kernel_cache()
                _compile_hist()  # second kernel: no second toolchain event
            fallbacks = [
                e for e in tracer.events() if e.name == "native_fallback"
            ]
            assert len(fallbacks) == 1
            decisions = [
                e for e in tracer.events() if e.name == "kernel_backend"
            ]
            assert len(decisions) == 2  # the per-kernel record still appears
        finally:
            monkeypatch.undo()
            reset_toolchain_probe()


@needs_cc
class TestDiskCache:
    def test_warm_start_zero_compiles(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        cold = Tracer()
        with tracing(cold):
            first = _compile_hist()
        assert first.native_kernel.native.compiled is True
        assert [s for s in cold.spans() if s.name == "native_compile"]
        assert [e for e in cold.events() if e.name == "native_cache.miss"]

        clear_kernel_cache()  # simulate a fresh engine/process
        warm = Tracer()
        with tracing(warm):
            second = _compile_hist()
        assert second.native_kernel.native.compiled is False  # attached, not built
        assert second.native_kernel.native.symbol == first.native_kernel.native.symbol
        assert not [s for s in warm.spans() if s.name == "native_compile"]
        hits = [e for e in warm.events() if e.name == "native_cache.hit"]
        assert hits and hits[0].args["path"].startswith(str(tmp_path))

    def test_format_version_bump_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        first = _compile_hist()
        clear_kernel_cache()
        monkeypatch.setattr(
            native_mod, "NATIVE_FORMAT_VERSION",
            native_mod.NATIVE_FORMAT_VERSION + 1,
        )
        stale = Tracer()
        with tracing(stale):
            second = _compile_hist()
        # a new format version must never attach the stale artifact
        assert second.native_kernel.native.symbol != first.native_kernel.native.symbol
        assert second.native_kernel.native.compiled is True
        assert [e for e in stale.events() if e.name == "native_cache.miss"]
        assert [s for s in stale.spans() if s.name == "native_compile"]

    def test_build_flags_are_part_of_the_key(self, tmp_path, monkeypatch):
        # the flags cc is given and the flags in the digest are one tuple: a
        # library built with other flags is another file, never attached
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        first = _compile_hist().native_kernel.native
        clear_kernel_cache()
        flags = tuple(
            "-O1" if f.startswith("-O") else f for f in native_mod.CC_FLAGS
        )
        assert flags != native_mod.CC_FLAGS
        monkeypatch.setattr(native_mod.toolchain, "CC_FLAGS", flags)
        rebuilt = Tracer()
        with tracing(rebuilt):
            second = _compile_hist().native_kernel.native
        assert second.symbol != first.symbol
        assert second.so_path != first.so_path and first.so_path.exists()
        assert second.compiled is True
        assert [e for e in rebuilt.events() if e.name == "native_cache.miss"]
        # same emitted C apart from the hashed symbol
        assert second.source.replace(second.symbol, first.symbol) == first.source

    def test_artifacts_live_in_override_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        compiled = _compile_hist()
        nk = compiled.native_kernel.native
        assert nk.so_path.parent == tmp_path
        assert nk.so_path.exists()
        assert (tmp_path / f"{nk.symbol}.c").read_text() == nk.source


# -- cold builds run beside the caller ------------------------------------------

#: how long the wrapper holds each kernel build before handing it to cc
BUILD_DELAY = 0.3
#: the compiler the wrapper hands every build to
REAL_CC = probe_toolchain()["cc"]


def use_cc_wrapper(tmp_path, monkeypatch, on_kernel):
    """Point ``REPRO_CC`` at a script that logs each invocation (``pid
    args``) and, for kernel sources only, runs the shell command
    ``on_kernel`` before ``exec``ing the real compiler; the kernel cache moves
    to ``tmp_path / "kernels"``.  The probe runs at once, so it is in no
    timing.  Returns the log's path."""
    log = tmp_path / "cc.log"
    script = tmp_path / "cc-wrapper"
    script.write_text(
        "#!/bin/sh\n"
        f'echo "$$ $*" >> {shlex.quote(str(log))}\n'
        f'case "$*" in *repro_native_*) {on_kernel} ;; esac\n'
        f'exec {shlex.quote(REAL_CC)} "$@"\n'
    )
    script.chmod(0o755)
    monkeypatch.setenv(CC_ENV, str(script))
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "kernels"))
    reset_toolchain_probe()
    assert probe_toolchain()["ok"], probe_toolchain()["reason"]
    return log


def kernel_cc_runs(log):
    """The wrapper's log lines for kernel sources, as ``(pid, args)``."""
    lines = log.read_text().splitlines() if log.exists() else []
    return [line.split(" ", 1) for line in lines if "repro_native_" in line]


@pytest.fixture
def slow_cc(tmp_path, monkeypatch):
    yield use_cc_wrapper(tmp_path, monkeypatch, f"sleep {BUILD_DELAY}")
    reset_toolchain_probe()


@pytest.fixture
def failing_cc(tmp_path, monkeypatch):
    yield use_cc_wrapper(
        tmp_path, monkeypatch, "echo 'kernel sources refused' >&2; exit 1"
    )
    reset_toolchain_probe()


def _settle_time(*compiles):
    """Seconds from issuing ``compiles`` to every one of them settled."""
    t0 = time.perf_counter()
    compiled = [compile_() for compile_ in compiles]
    assert all(c.effective_backend == "native" for c in compiled)
    return time.perf_counter() - t0


def _hist_with(bins):
    return lambda: compile_cached(
        HISTOGRAM_CHAPEL_SOURCE, {"bins": bins, "lo": 0.0, "width": 2.0},
        opt_level=2, backend="native",
    )


@needs_cc
class TestColdBuildsRunBesideTheCaller:
    def test_compile_returns_before_cc_and_first_use_waits(self, slow_cc, tmp_path):
        compiled = _compile_hist()
        assert compiled.native_source  # the C is emitted ...
        assert not list((tmp_path / "kernels").glob("*.so"))  # ... cc is not done
        assert compiled.effective_backend == "native"
        assert compiled.native_kernel.native.so_path.exists()
        assert compiled.native_kernel.native.compiled is True
        assert len(kernel_cc_runs(slow_cc)) == 1

    def test_two_cold_kernels_build_at_once(self, slow_cc):
        if native_mod.toolchain._build_width() < 2:
            pytest.skip("one CPU: one build thread, builds queue")
        one = _settle_time(_hist_with(3))
        both = _settle_time(_hist_with(4), _hist_with(5))
        # one after another they would take about 2 x one
        assert both < 1.6 * one, (one, both)
        runs = kernel_cc_runs(slow_cc)
        assert len(runs) == 3 and len({args for _, args in runs}) == 3

    def test_one_cc_run_for_a_request_issued_while_its_build_is_in_flight(
        self, slow_cc
    ):
        first = _compile_hist()
        assert _compile_hist() is first  # the in-memory cache
        clear_kernel_cache()
        second = _compile_hist()  # a new compile joins the build in flight
        assert second is not first
        assert first.effective_backend == second.effective_backend == "native"
        assert second.native_kernel.native is first.native_kernel.native
        assert len(kernel_cc_runs(slow_cc)) == 1

    def test_a_failing_cc_falls_back_where_the_kernel_is_first_needed(
        self, failing_cc, caplog
    ):
        # the probe compiles through the wrapper; kernel sources fail
        data = np.arange(16, dtype=np.float64)
        tracer = Tracer()
        with tracing(tracer):
            compiled = _compile_hist()
        # bound before the build failed: bind installs the lane readers the
        # batch tier needs whenever the request can end on it
        bound = compiled.bind(data)
        ro = ReductionObject()
        ro.alloc_many([(2, "add")] * 8)
        with caplog.at_level(logging.WARNING, logger="repro.compiler.batch"):
            bound.run_serial(ro)
        assert compiled.effective_backend == "batch"
        assert compiled.native_fallback_reason.startswith("C compilation failed")
        assert "kernel sources refused" in compiled.native_fallback_reason
        assert re.search(
            r"native backend fell back for \w+ \[opt2\]: C compilation failed",
            caplog.text,
        )
        (fallback,) = [e for e in tracer.events() if e.name == "native_fallback"]
        assert fallback.args["toolchain"] is False
        (decision,) = [e for e in tracer.events() if e.name == "kernel_backend"]
        assert decision.args["requested"] == "native"
        assert decision.args["effective"] == "batch"
        assert decision.args["reason"] == compiled.native_fallback_reason
        scalar = _compile_hist(backend="scalar").bind(data)
        want = ReductionObject()
        want.alloc_many([(2, "add")] * 8)
        scalar.run_serial(want)
        assert ro.snapshot().tolist() == want.snapshot().tolist()
        assert len(kernel_cc_runs(failing_cc)) == 1


@needs_cc
class TestBindNeverWaits:
    def test_bind_and_update_extras_return_while_cc_runs(self, slow_cc, tmp_path):
        constants, points, extras, layout = _bounded_case("kmeans")

        def reduce(backend):
            compiled = compile_cached(
                KMEANS_CHAPEL_SOURCE, dict(constants), opt_level=2, backend=backend
            )
            bound = compiled.bind(points, extras)
            bound.update_extras(extras)
            built = bool(list((tmp_path / "kernels").glob("*.so")))
            ro = ReductionObject()
            ro.alloc_many(layout)
            bound.run_serial(ro)
            assert compiled.effective_backend == backend
            return built, ro.snapshot().tolist(), bound.counters.as_dict()

        built, got, ledger = reduce("native")
        assert not built  # bind and update_extras returned while cc ran
        _, want, want_ledger = reduce("scalar")
        assert got == want and ledger == want_ledger


class TestMemoryCacheLRU:
    def test_eviction_counts_and_capacity(self, monkeypatch):
        monkeypatch.setattr(kernel_cache, "CAPACITY", 2)
        for bins in (4, 5, 6):
            compile_cached(
                HISTOGRAM_CHAPEL_SOURCE,
                {"bins": bins, "lo": 0.0, "width": 2.0},
                opt_level=2, backend="scalar",
            )
        stats = kernel_cache_stats()
        assert stats["capacity"] == 2
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["misses"] == 3

    def test_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(kernel_cache, "CAPACITY", 2)
        consts = [
            {"bins": b, "lo": 0.0, "width": 2.0} for b in (4, 5, 6)
        ]
        a = compile_cached(
            HISTOGRAM_CHAPEL_SOURCE, consts[0], opt_level=2
        )
        compile_cached(HISTOGRAM_CHAPEL_SOURCE, consts[1], opt_level=2)
        # touch A so B is the least recently used entry
        assert compile_cached(
            HISTOGRAM_CHAPEL_SOURCE, consts[0], opt_level=2
        ) is a
        compile_cached(HISTOGRAM_CHAPEL_SOURCE, consts[2], opt_level=2)
        # A survived the eviction that removed B
        assert compile_cached(
            HISTOGRAM_CHAPEL_SOURCE, consts[0], opt_level=2
        ) is a
        assert kernel_cache_stats()["evictions"] >= 1

    def test_capacity_roundtrip(self, monkeypatch):
        """The bound is a module constant; the stats report the one in force."""
        assert kernel_cache.CAPACITY == 128
        assert kernel_cache_stats()["capacity"] == 128
        monkeypatch.setattr(kernel_cache, "CAPACITY", 16)
        assert kernel_cache_stats()["capacity"] == 16
        monkeypatch.undo()
        assert kernel_cache_stats()["capacity"] == 128
