"""Engine + compiler tracing integration: spans, metrics, disabled parity.

These tests pin the observability contract end to end: which spans a run
emits, how retries and faults are attributed, what lands in
``RunStats.metrics`` — and that a run with tracing disabled records
nothing and computes the exact same result.
"""

import logging

import numpy as np
import pytest

from repro.compiler.cache import clear_kernel_cache, compile_cached
from repro.freeride.faults import FaultInjector, FaultPolicy
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.obs import NULL_TRACER, Tracer, trace_to, tracing

DATA = np.arange(100, dtype=np.float64)


def sum_spec():
    def setup(ro: ReductionObject) -> None:
        ro.alloc(1, "add")

    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            args.ro.accumulate(0, 0, float(x))

    return ReductionSpec(name="sum", setup_reduction_object=setup, reduction=reduction)


def split_spans(tracer):
    return [s for s in tracer.spans() if s.cat == "split"]


class TestPerSplitSpans:
    def test_serial_one_span_per_split(self):
        with tracing() as t:
            result = FreerideEngine(num_threads=2, chunk_size=10).run(
                sum_spec(), DATA
            )
        spans = split_spans(t)
        assert len(spans) == 10  # 100 elements / chunk_size 10
        assert {s.args["split_id"] for s in spans} == set(range(10))
        assert all(s.args["outcome"] == "ok" for s in spans)
        assert not any("node" in s.args for s in spans)
        assert sum(s.args["elements"] for s in spans) == 100
        assert result.ro.get(0, 0) == DATA.sum()

    def test_threads_executor_attributes_workers(self):
        with tracing() as t:
            FreerideEngine(
                num_threads=2, executor="threads", chunk_size=10
            ).run(sum_spec(), DATA)
        spans = split_spans(t)
        assert len(spans) == 10
        assert {s.args["thread_id"] for s in spans} <= {0, 1}
        # every span carries the OS thread identity for Chrome lanes
        assert all(s.tid and s.thread for s in spans)

    def test_engine_run_span_args(self):
        with tracing() as t:
            FreerideEngine(num_threads=2, chunk_size=25).run(sum_spec(), DATA)
        (run,) = [s for s in t.spans() if s.name == "engine.run"]
        assert run.cat == "engine"
        assert run.args["spec"] == "sum"
        assert run.args["executor"] == "serial"
        assert run.args["num_threads"] == 2
        assert run.args["total_elements"] == 100

    def test_phase_spans_match_run_stats(self):
        with tracing() as t:
            result = FreerideEngine(num_threads=1, chunk_size=50).run(
                sum_spec(), DATA
            )
        phase_spans = {s.name: s.dur for s in t.spans() if s.cat == "phase"}
        assert set(phase_spans) == set(result.stats.phase_seconds)
        for name, dur in phase_spans.items():
            assert dur == pytest.approx(
                result.stats.phase_seconds[name], abs=0.05
            )

    def test_local_combination_span(self):
        with tracing() as t:
            FreerideEngine(num_threads=2, chunk_size=10).run(sum_spec(), DATA)
        (comb,) = [s for s in t.spans() if s.name == "local_combination"]
        assert comb.cat == "combination"
        assert "strategy" in comb.args and comb.args["merges"] >= 0


class TestFaultTracing:
    def test_retried_split_gets_one_span_per_attempt(self):
        engine = FreerideEngine(
            num_threads=2,
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={3}),
        )
        with tracing() as t:
            result = engine.run(sum_spec(), DATA)
        assert result.ro.get(0, 0) == DATA.sum()
        attempts3 = sorted(
            (s.args["attempt"], s.args["outcome"])
            for s in split_spans(t)
            if s.args["split_id"] == 3
        )
        assert attempts3 == [(1, "failed"), (2, "ok")]
        # every attempt of every split is one span
        assert len(split_spans(t)) == 11
        injected = [e for e in t.events() if e.name == "fault.injected"]
        assert len(injected) == 1
        assert injected[0].args["split_id"] == 3
        assert injected[0].cat == "fault"

    def test_failed_attempt_span_carries_error(self):
        engine = FreerideEngine(
            num_threads=1,
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=1),
            fault_injector=FaultInjector(fail_split_ids={0}),
        )
        with tracing() as t:
            engine.run(sum_spec(), DATA)
        (failed,) = [
            s for s in split_spans(t) if s.args["outcome"] == "failed"
        ]
        assert "InjectedFault" in failed.args["error"]

    def test_threads_executor_traces_attempts_under_faults(self):
        engine = FreerideEngine(
            num_threads=2,
            executor="threads",
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={2}),
        )
        with tracing() as t:
            result = engine.run(sum_spec(), DATA)
        assert result.ro.get(0, 0) == DATA.sum()
        spans = split_spans(t)
        assert len(spans) >= 11  # 10 splits + at least one retry
        assert all("attempt" in s.args for s in spans)
        assert any(s.args["outcome"] == "failed" for s in spans)


class TestRunMetrics:
    def test_metrics_snapshot_attached_to_stats(self):
        with tracing():
            result = FreerideEngine(num_threads=2, chunk_size=10).run(
                sum_spec(), DATA
            )
        m = result.stats.metrics
        assert m["counters"]["engine.elements"] == 100
        assert m["gauges"]["engine.num_threads"] == 2
        split_hist = m["histograms"]["engine.split_seconds"]
        assert split_hist["count"] == 10
        assert split_hist["sum"] >= 0.0
        assert "engine.phase_seconds.local" in m["histograms"]

    def test_locking_contention_histogram(self):
        with tracing():
            result = FreerideEngine(
                num_threads=2,
                technique=SharedMemTechnique.CACHE_SENSITIVE_LOCKING,
                chunk_size=10,
            ).run(sum_spec(), DATA)
        contention = result.stats.metrics["histograms"][
            "ro.lock_acquisitions_per_split"
        ]
        assert contention["count"] == 10
        # every element is one locked update: 10 acquisitions per split
        assert contention["sum"] == pytest.approx(100)

    def test_fault_counters_surface_in_metrics(self):
        engine = FreerideEngine(
            num_threads=1,
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={1}),
        )
        with tracing():
            result = engine.run(sum_spec(), DATA)
        counters = result.stats.metrics["counters"]
        assert counters["faults.retries"] >= 1
        assert counters["faults.injected"] >= 1


class TestDisabledParity:
    def test_no_records_and_identical_result_when_disabled(self):
        with tracing() as t:
            traced = FreerideEngine(num_threads=2, chunk_size=10).run(
                sum_spec(), DATA
            )
        plain = FreerideEngine(num_threads=2, chunk_size=10).run(
            sum_spec(), DATA
        )
        bystander = Tracer()  # constructed but never installed
        assert np.array_equal(plain.ro.snapshot(), traced.ro.snapshot())
        assert bystander.records() == []
        assert plain.stats.metrics == {}
        assert traced.stats.metrics != {}
        assert plain.stats.total_elements == traced.stats.total_elements

    def test_explicit_null_tracer_records_nothing(self):
        result = FreerideEngine(
            num_threads=2, chunk_size=10, tracer=NULL_TRACER
        ).run(sum_spec(), DATA)
        assert result.stats.metrics == {}
        assert result.ro.get(0, 0) == DATA.sum()

    def test_engine_tracer_param_overrides_global(self):
        mine = Tracer()
        engine = FreerideEngine(num_threads=1, chunk_size=50, tracer=mine)
        engine.run(sum_spec(), DATA)  # no global tracer installed
        assert any(s.name == "engine.run" for s in mine.spans())

    def test_engine_rejects_non_tracer(self):
        from repro.util.errors import FreerideError

        with pytest.raises(FreerideError, match="tracer"):
            FreerideEngine(tracer="yes please")


HISTOGRAM_SOURCE = """
class histReduction : ReduceScanOp {
  var bins: int;

  def accumulate(x: real) {
    var b: int = toInt(x);
    if (b > bins - 1) { b = bins - 1; }
    roAdd(b, 0, 1.0);
  }
}
"""

GATHER_SOURCE = """
class gatherReduction : ReduceScanOp {
  var n: int;
  var table: [1..n] real;

  def accumulate(x: [1..2] int) {
    roAdd(0, 0, table[x[1]]);
  }
}
"""


class TestCompilerTracing:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_kernel_cache()
        yield
        clear_kernel_cache()

    def test_compile_stage_spans(self):
        with tracing() as t:
            compile_cached(HISTOGRAM_SOURCE, {"bins": 4}, 2)
        names = {s.name for s in t.spans() if s.cat == "compiler"}
        assert {"compile", "parse", "lower", "plan", "codegen"} <= names

    def test_cache_hit_and_miss_events(self):
        with tracing() as t:
            compile_cached(HISTOGRAM_SOURCE, {"bins": 4}, 2)
            compile_cached(HISTOGRAM_SOURCE, {"bins": 4}, 2)
        events = [e.name for e in t.events() if e.cat == "cache"]
        assert events == ["kernel_cache.miss", "kernel_cache.hit"]

    def test_linearization_spans_on_bind(self):
        compiled = compile_cached(HISTOGRAM_SOURCE, {"bins": 4}, 2)
        with tracing() as t:
            compiled.bind(np.arange(16, dtype=np.float64))
        lin = [s for s in t.spans() if s.cat == "linearize"]
        assert any(s.name == "linearize_data" for s in lin)
        (data_span,) = [s for s in lin if s.name == "linearize_data"]
        assert data_span.args["n_elements"] == 16
        assert data_span.args["bytes"] > 0

    def test_batch_fallback_event_and_warning(self, caplog):
        with tracing() as t:
            with caplog.at_level(logging.WARNING, logger="repro.compiler.batch"):
                compile_cached(GATHER_SOURCE, {"n": 4}, 2, backend="batch")
        (fb,) = [e for e in t.events() if e.name == "batch_fallback"]
        assert fb.cat == "compiler"
        assert fb.args["reduction"] == "gatherReduction"
        assert fb.args["reason"]
        assert "fell back to scalar" in caplog.text

    def test_no_fallback_event_for_batchable_program(self):
        with tracing() as t:
            compile_cached(HISTOGRAM_SOURCE, {"bins": 4}, 2, backend="batch")
        assert not [e for e in t.events() if e.name == "batch_fallback"]


class TestTraceTo:
    def test_trace_to_writes_chrome_file(self, tmp_path):
        out = tmp_path / "run.json"
        with trace_to(out) as t:
            FreerideEngine(num_threads=1, chunk_size=50).run(sum_spec(), DATA)
        assert out.exists()
        assert t.records()
        from repro.obs import validate_chrome_trace_file

        assert validate_chrome_trace_file(out) == []

    def test_trace_to_writes_even_on_exception(self, tmp_path):
        out = tmp_path / "boom.json"
        with pytest.raises(RuntimeError):
            with trace_to(out) as t:
                t.event("before-crash")
                raise RuntimeError
        assert out.exists()
