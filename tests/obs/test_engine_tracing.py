"""Engine + compiler tracing integration: spans, the run record, parity.

These tests pin the observability contract end to end: which spans a run
emits, how retries and faults are attributed, what a traced run's profile
record holds — and that tracing changes neither the result nor
``RunStats``, the one record of a run's counts.
"""

import dataclasses
import logging

import numpy as np
import pytest

from repro.apps.windowed import WINDOWED_CHAPEL_SOURCE
from repro.chapel.values import from_python
from repro.compiler.cache import clear_kernel_cache, compile_cached
from repro.freeride.faults import FaultInjector, FaultPolicy
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.obs import NULL_TRACER, ProfileStore, Tracer, trace_to, tracing
from tests.compiler.test_native import needs_cc

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


def run_sum(tracer=None, **engine_args):
    """One run of :func:`sum_spec` over :data:`DATA` on a fresh engine,
    under ``tracer`` when one is given."""
    with FreerideEngine(**engine_args) as engine:
        if tracer is None:
            return engine.run(sum_spec(), DATA)
        with tracing(tracer):
            return engine.run(sum_spec(), DATA)


class TestPerSplitSpans:
    def test_serial_one_span_per_split(self):
        t = Tracer()
        result = run_sum(t, num_threads=2, chunk_size=10)
        spans = split_spans(t)
        assert len(spans) == 10  # 100 elements / chunk_size 10
        assert {s.args["split_id"] for s in spans} == set(range(10))
        assert all(s.args["outcome"] == "ok" for s in spans)
        assert not any("node" in s.args for s in spans)
        assert sum(s.args["elements"] for s in spans) == 100
        assert result.ro.get(0, 0) == DATA.sum()

    def test_threads_executor_attributes_workers(self):
        t = Tracer()
        run_sum(t, num_threads=2, executor="threads", chunk_size=10)
        spans = split_spans(t)
        assert len(spans) == 10
        assert {s.args["thread_id"] for s in spans} <= {0, 1}
        # every span carries the OS thread identity for Chrome lanes
        assert all(s.tid and s.thread for s in spans)

    def test_engine_run_span_args(self):
        t = Tracer()
        run_sum(t, num_threads=2, chunk_size=25)
        (run,) = [s for s in t.spans() if s.name == "engine.run"]
        assert run.cat == "engine"
        assert run.args["spec"] == "sum"
        assert run.args["executor"] == "serial"
        assert run.args["num_threads"] == 2
        assert run.args["total_elements"] == 100

    def test_phase_spans_match_run_stats(self):
        t = Tracer()
        result = run_sum(t, num_threads=1, chunk_size=50)
        phase_spans = {s.name: s.dur for s in t.spans() if s.cat == "phase"}
        assert set(phase_spans) == set(result.stats.phase_seconds)
        for name, dur in phase_spans.items():
            assert dur == pytest.approx(
                result.stats.phase_seconds[name], abs=0.05
            )

    def test_local_combination_span(self):
        t = Tracer()
        run_sum(t, num_threads=2, chunk_size=10)
        (comb,) = [s for s in t.spans() if s.name == "local_combination"]
        assert comb.cat == "combination"
        assert "strategy" in comb.args and comb.args["merges"] >= 0


class TestFaultTracing:
    def test_retried_split_gets_one_span_per_attempt(self):
        t = Tracer()
        result = run_sum(
            t, num_threads=2, chunk_size=10,
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={3}),
        )
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
        t = Tracer()
        run_sum(
            t, num_threads=1, chunk_size=10,
            fault_policy=FaultPolicy(max_retries=1),
            fault_injector=FaultInjector(fail_split_ids={0}),
        )
        (failed,) = [
            s for s in split_spans(t) if s.args["outcome"] == "failed"
        ]
        assert "InjectedFault" in failed.args["error"]

    def test_threads_executor_traces_attempts_under_faults(self):
        t = Tracer()
        result = run_sum(
            t, num_threads=2, executor="threads", chunk_size=10,
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={2}),
        )
        assert result.ro.get(0, 0) == DATA.sum()
        spans = split_spans(t)
        assert len(spans) >= 11  # 10 splits + at least one retry
        assert all("attempt" in s.args for s in spans)
        assert any(s.args["outcome"] == "failed" for s in spans)


class TestTracedRunRecord:
    """What a traced run's spans say agrees with ``RunStats`` and with the
    profile record."""

    def test_split_spans_are_the_runs_splits(self):
        t = Tracer()
        stats = run_sum(t, num_threads=2, chunk_size=10).stats
        assert stats.total_elements == 100 and stats.num_threads == 2
        assert len(split_spans(t)) == sum(stats.splits_per_thread) == 10
        assert "local" in stats.phase_seconds

    def test_locking_acquisitions_are_counted_once(self):
        t = Tracer()
        stats = run_sum(
            t, num_threads=2, chunk_size=10,
            technique=SharedMemTechnique.CACHE_SENSITIVE_LOCKING,
        ).stats
        assert len(split_spans(t)) == 10
        # every element is one locked update
        assert stats.sharedmem.lock_acquisitions == 100

    def test_fault_counters_match_the_fault_spans(self):
        t = Tracer()
        stats = run_sum(
            t, num_threads=1, chunk_size=10,
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={1}),
        ).stats
        failed = [s for s in split_spans(t) if s.args["outcome"] == "failed"]
        injected = [e for e in t.events() if e.name == "fault.injected"]
        assert stats.retries == len(failed) == 1
        assert stats.injected_faults == len(injected) == 1

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_profile_record_times_every_split_span(self, executor, tmp_path):
        t = Tracer()
        run_sum(t, num_threads=2, executor=executor, chunk_size=10,
                profile_store=tmp_path / "traced")
        run_sum(num_threads=2, executor=executor, chunk_size=10,
                profile_store=tmp_path / "plain")
        (traced,) = ProfileStore(tmp_path / "traced").load()
        (plain,) = ProfileStore(tmp_path / "plain").load()
        summary = traced["split_seconds"]
        assert summary["count"] == len(split_spans(t)) == 10
        assert summary["p50"] is not None and summary["p95"] is not None
        # an untraced in-process run times no split
        assert plain["split_seconds"] is None


# -- tracing changes no run ------------------------------------------------------

WINDOW, NUM_WINDOWS = 32, 8
TECHNIQUES = [t.value for t in SharedMemTechnique] + ["auto"]
PARITY_CASES = [
    (executor, technique, faults)
    for executor in ("serial", "threads")
    for technique in TECHNIQUES
    for faults in (False, True)
] + [("process", technique, False) for technique in ("full_replication", "auto")]


def windowed_spec(backend):
    """A compiled windowed-statistics spec over integer-valued data: its
    group is the element's window, so colored runs get parallel waves."""
    compiled = compile_cached(
        WINDOWED_CHAPEL_SOURCE,
        {"win": WINDOW, "nw": NUM_WINDOWS, "nb": 4, "lo": 0.0, "width": 2.0},
        opt_level=2, backend=backend,
    )
    data = (np.arange(WINDOW * NUM_WINDOWS, dtype=np.float64) // 3) % 8
    scale_t = compiled.lowered.extra_types["scale"]
    bound = compiled.bind(data, {"scale": from_python(scale_t, [1.0, 2.0, 3.0, 4.0])})
    return bound.make_spec([(2, "add")] * NUM_WINDOWS)


def ledger(stats):
    """``stats`` as a dict, less what tracing may move: the phase times,
    and which lane ran which split (the per-lane lists keep their sums)."""
    record = dataclasses.asdict(stats)
    del record["phase_seconds"]
    for lanes in ("elements_per_thread", "splits_per_thread"):
        record[lanes] = sum(record[lanes])
    return record


class TestTracingChangesNoRun:
    @pytest.mark.parametrize(
        "backend", ["scalar", pytest.param("native", marks=needs_cc)]
    )
    @pytest.mark.parametrize("executor,technique,faults", PARITY_CASES)
    def test_traced_run_is_the_untraced_run(self, executor, technique, faults, backend):
        results = {}
        for traced in (False, True):
            spec, idx = windowed_spec(backend)
            fault_args = dict(
                fault_policy=FaultPolicy(max_retries=2),
                fault_injector=FaultInjector(fail_split_ids={1, 4}),
            ) if faults else {}
            tracer = Tracer() if traced else NULL_TRACER
            with FreerideEngine(
                num_threads=2, executor=executor, technique=technique,
                chunk_size=WINDOW // 2, tracer=tracer, **fault_args,
            ) as engine:
                results[traced] = engine.run(spec, idx)
        plain, traced = results[False], results[True]
        assert plain.ro.snapshot().tobytes() == traced.ro.snapshot().tobytes()
        assert ledger(plain.stats) == ledger(traced.stats)
        if faults:
            assert traced.stats.retries == 2
        else:
            assert len(split_spans(tracer)) == sum(traced.stats.splits_per_thread)


class TestDisabledParity:
    def test_no_records_and_identical_result_when_disabled(self):
        traced = run_sum(Tracer(), num_threads=2, chunk_size=10)
        plain = run_sum(num_threads=2, chunk_size=10)
        bystander = Tracer()  # constructed but never installed
        assert np.array_equal(plain.ro.snapshot(), traced.ro.snapshot())
        assert bystander.records() == []
        assert ledger(plain.stats) == ledger(traced.stats)

    def test_explicit_null_tracer_records_nothing(self):
        with tracing() as installed:
            with FreerideEngine(
                num_threads=2, chunk_size=10, tracer=NULL_TRACER
            ) as engine:
                result = engine.run(sum_spec(), DATA)
        assert installed.records() == []
        assert result.ro.get(0, 0) == DATA.sum()

    def test_engine_tracer_param_overrides_global(self):
        mine = Tracer()
        with FreerideEngine(num_threads=1, chunk_size=50, tracer=mine) as engine:
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
            run_sum(num_threads=1, chunk_size=50)
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
