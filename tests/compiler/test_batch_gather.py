"""Bounded-gather vectorization in the batch backend.

A lane-varying access-site index used to force the whole kernel back to
the scalar path.  With the effect analysis attached, the batch emitter
proves containment of the index summary in the site's declared extent
and emits a grouped ``np.take`` — these tests pin the proof conditions,
every refutation reason, the emitted code shape, bit-identical results,
and the compiler trace events that record each verdict.
"""

import numpy as np
import pytest

from repro.apps.windowed import WINDOWED_CHAPEL_SOURCE
from repro.chapel.parser import parse_program
from repro.chapel.types import REAL, array_of
from repro.chapel.values import from_python
from repro.compiler.batch import BatchCodegen
from repro.compiler.groupbounds import analyze_group_bounds
from repro.compiler.lower import lower_reduction
from repro.compiler.passes import plan_compilation
from repro.compiler.translate import compile_reduction
from repro.freeride.reduction_object import ReductionObject
from repro.obs.export import to_chrome_trace
from repro.obs.tracer import Tracer, tracing

WIN_CONSTS = {"win": 8, "nw": 4, "nb": 6, "lo": 0.0, "width": 0.25}

#: Same shape as the windowed scale lookup but with the clamp removed:
#: the index summary is unbounded, so the proof must refute containment.
UNBOUNDED_SOURCE = """
class unboundedGather : ReduceScanOp {
  var nb: int;
  var table: [1..nb] real;
  def accumulate(x: real) {
    var b: int = toInt(x);
    roAdd(0, 0, x * table[b + 1]);
  }
}
"""


def _gather_codegen(source: str, constants: dict, level: int = 2):
    lowered = lower_reduction(parse_program(source), constants)
    plan = plan_compilation(lowered, level)
    gen = BatchCodegen(lowered, plan, summary=analyze_group_bounds(lowered))
    return lowered, gen


class TestProof:
    def test_windowed_scale_lookup_vectorizes_at_opt2(self):
        compiled = compile_reduction(
            WINDOWED_CHAPEL_SOURCE, WIN_CONSTS, 2, backend="batch"
        )
        assert compiled.batch_fallback_reason is None
        assert compiled.batch_kernel is not None
        assert "_np.take(" in compiled.batch_source
        assert "_np.clip(" in compiled.batch_source

    def test_proof_record_carries_bounds_and_extent(self):
        _, gen = _gather_codegen(WINDOWED_CHAPEL_SOURCE, WIN_CONSTS, 2)
        gen.generate()
        proofs = list(gen.taint.gather_proofs.values())
        assert len(proofs) == 1
        p = proofs[0]
        assert p["proven"]
        assert p["kind"] == "extra" and p["root"] == "scale"
        assert p["extent"] == "[1..6]"

    def test_nested_plan_refutes_the_gather(self):
        # opt-0 plans the extra access nested (no linearized layout):
        # emitting a lane-array index there would produce broken Python,
        # so the proof must refuse and the kernel must fall back.
        compiled = compile_reduction(
            WINDOWED_CHAPEL_SOURCE, WIN_CONSTS, 0, backend="batch"
        )
        assert compiled.batch_kernel is None
        assert "element-dependent" in compiled.batch_fallback_reason
        assert "planned as 'nested'" in compiled.batch_fallback_reason

    def test_unbounded_index_refutes_containment(self):
        compiled = compile_reduction(
            UNBOUNDED_SOURCE, {"nb": 6}, 2, backend="batch"
        )
        assert compiled.batch_kernel is None
        assert "not provably contained" in compiled.batch_fallback_reason

    def test_data_access_never_gathers(self):
        # data lanes are strided views; only read-only extras may gather
        source = """
class dataGather : ReduceScanOp {
  def accumulate(x: [1..3] int) {
    var j: int = x[1];
    if (j < 1) { j = 1; }
    if (j > 3) { j = 3; }
    roAdd(0, 0, 1.0 * x[j]);
  }
}
"""
        compiled = compile_reduction(source, {}, 2, backend="batch")
        assert compiled.batch_kernel is None
        assert "read-only extra" in compiled.batch_fallback_reason


class TestEquivalence:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_batch_matches_scalar_bit_for_bit(self, level):
        rng = np.random.default_rng(5)
        data = rng.uniform(0.0, 1.5, 96)
        scale = [0.5, 0.8, 1.0, 1.2, 1.4, 1.6]
        snapshots = []
        for backend in ("scalar", "batch"):
            compiled = compile_reduction(
                WINDOWED_CHAPEL_SOURCE, WIN_CONSTS, level, backend=backend
            )
            bound = compiled.bind(
                data, {"scale": from_python(array_of(REAL, 6), scale)}
            )
            ro = ReductionObject()
            for _ in range(4):
                ro.alloc(2, "add")
            bound.run_serial(ro)
            snapshots.append(ro.snapshot())
        assert np.array_equal(snapshots[0], snapshots[1])

    def test_counter_parity_with_gather(self):
        """The vectorized gather must charge exactly the scalar op count."""
        rng = np.random.default_rng(6)
        data = rng.uniform(0.0, 1.5, 64)
        scale = [1.0] * 6
        ledgers = []
        for backend in ("scalar", "batch"):
            compiled = compile_reduction(
                WINDOWED_CHAPEL_SOURCE, WIN_CONSTS, 2, backend=backend
            )
            bound = compiled.bind(
                data, {"scale": from_python(array_of(REAL, 6), scale)}
            )
            ro = ReductionObject()
            for _ in range(4):
                ro.alloc(2, "add")
            bound.run_serial(ro)
            ledgers.append(bound.counters.as_dict())
        assert ledgers[0] == ledgers[1]


class TestTraceEvents:
    def _events(self, level: int):
        from repro.compiler.cache import clear_kernel_cache

        clear_kernel_cache()
        tr = Tracer()
        with tracing(tr):
            compile_reduction(
                WINDOWED_CHAPEL_SOURCE, WIN_CONSTS, level, backend="batch"
            )
        chrome = to_chrome_trace(tr.records())
        evs = chrome["traceEvents"] if isinstance(chrome, dict) else chrome
        return [
            e for e in evs
            if e.get("name", "").startswith("batch_gather")
        ]

    def test_proof_event_at_opt2(self):
        evs = self._events(2)
        assert [e["name"] for e in evs] == ["batch_gather_proof"]
        args = evs[0]["args"]
        assert args["root"] == "scale"
        assert args["extent"] == "[1..6]"

    def test_refuted_event_at_opt0(self):
        evs = self._events(0)
        assert [e["name"] for e in evs] == ["batch_gather_refuted"]
        assert "nested" in evs[0]["args"]["reason"]
