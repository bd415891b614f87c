"""The ``"process"`` executor: equivalence, stats parity, faults, cleanup.

Integer-valued float64 data keeps every accumulation exact, so combined
reduction objects must be bitwise identical across serial, thread and
process execution regardless of how splits land on workers.
"""

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.apps.kmeans import (
    KMEANS_CHAPEL_SOURCE,
    centroids_to_chapel,
    kmeans_ro_layout,
)
from repro.compiler.cache import compile_cached
from repro.freeride.faults import (
    FAIL_FAST,
    SKIP_AND_REPORT,
    FaultInjector,
    FaultPolicy,
    InjectedFault,
)
from repro.freeride import procexec
from repro.freeride.combination import combine
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import (
    SharedBufferCache,
    attach_shm_segment,
    close_shm_segment,
)
from repro.freeride.spec import ReductionSpec
from repro.freeride.splitter import default_splitter
from repro.obs.profilestore import ProfileStore
from repro.obs.tracer import Tracer, tracing
from repro.util.errors import FreerideError
from tests.compiler.test_native import kernel_cc_runs, needs_cc, slow_cc  # noqa: F401

BINS = 8
DATA = np.arange(331, dtype=np.float64) % 97  # integer-valued, uneven splits
LO, HI = 0.0, 97.0
WIDTH = (HI - LO) / BINS
LAYOUT = [(2, "add")] * BINS


def make_bound():
    compiled = compile_cached(
        HISTOGRAM_CHAPEL_SOURCE,
        {"bins": BINS, "lo": LO, "width": WIDTH},
        opt_level=2,
    )
    return compiled.bind(DATA)


def run_once(executor, threads=2, **engine_kwargs):
    bound = make_bound()
    spec, idx = bound.make_spec(LAYOUT)
    engine = FreerideEngine(num_threads=threads, executor=executor, **engine_kwargs)
    try:
        result = engine.run(spec, idx)
    finally:
        engine.close()
    return result, bound


class TestProcessDirect:
    def test_matches_serial_bitwise(self):
        serial, _ = run_once("serial")
        proc, _ = run_once("process")
        assert np.array_equal(serial.ro.snapshot(), proc.ro.snapshot())

    def test_matches_threads_bitwise(self):
        threaded, _ = run_once("threads", chunk_size=40)
        proc, _ = run_once("process", chunk_size=40)
        assert np.array_equal(threaded.ro.snapshot(), proc.ro.snapshot())

    def test_runstats_parity(self):
        serial, _ = run_once("serial")
        proc, _ = run_once("process")
        s, p = serial.stats, proc.stats
        assert p.executor == "process"
        assert p.total_elements == s.total_elements
        assert p.elements_per_thread == s.elements_per_thread
        assert p.splits_per_thread == s.splits_per_thread
        assert p.ro_updates == s.ro_updates
        assert p.sharedmem.private_copies == s.sharedmem.private_copies

    def test_op_counters_parity(self):
        _, serial_bound = run_once("serial")
        _, proc_bound = run_once("process")
        assert serial_bound.counters.as_dict() == proc_bound.counters.as_dict()

    def test_multi_node_process(self):
        """Process runs over each node's block — a ``range`` that need not
        start at 0 — combined, give serial's bits."""
        serial, _ = run_once("serial", threads=2)
        spec, idx = make_bound().make_spec(LAYOUT)
        with FreerideEngine(num_threads=2, executor="process") as engine:
            ros = [engine.run(spec, b.data).ro for b in default_splitter(idx, 2)]
        assert np.array_equal(serial.ro.snapshot(), combine(ros)[0].snapshot())

    def test_extras_rebound_after_make_spec_reach_every_executor(self):
        """A spec is a handle on its binding, not a copy of it: the workers'
        payload is read when the run starts, like the in-process env."""
        k, dim = 3, 2
        points = np.stack(
            [(np.arange(600) * 5) % 17, (np.arange(600) * 3) % 11], axis=1
        ).astype(np.float64)
        first = centroids_to_chapel(np.array([[2.0, 2.0], [8.0, 5.0], [14.0, 9.0]]))
        late = centroids_to_chapel(np.array([[1.0, 9.0], [9.0, 1.0], [16.0, 10.0]]))
        compiled = compile_cached(
            KMEANS_CHAPEL_SOURCE, {"k": k, "dim": dim}, opt_level=2, backend="scalar"
        )
        layout = kmeans_ro_layout(k, dim)

        def run(executor, centroids, rebind=None):
            bound = compiled.bind(points, {"centroids": centroids})
            spec, idx = bound.make_spec(layout)
            if rebind is not None:
                bound.update_extras({"centroids": rebind})
            with FreerideEngine(num_threads=2, executor=executor) as engine:
                return engine.run(spec, idx).ro.snapshot()

        want = run("serial", late)
        assert not np.array_equal(want, run("serial", first))
        for executor in ("serial", "threads", "process"):
            assert np.array_equal(run(executor, first, rebind=late), want), executor


class TestProcessValidation:
    def test_locking_technique_rejected(self):
        with pytest.raises(FreerideError, match="full_replication"):
            FreerideEngine(executor="process", technique="cache_sensitive_locking")

    def test_manual_spec_rejected(self):
        spec = ReductionSpec(
            name="manual",
            setup_reduction_object=lambda ro: ro.alloc(1, "add"),
            reduction=lambda args: None,
        )
        engine = FreerideEngine(executor="process")
        try:
            with pytest.raises(FreerideError, match="compiled reduction"):
                engine.run(spec, np.arange(10.0))
        finally:
            engine.close()


    def test_manual_spec_refusal_text(self):
        """``spec.bound is None`` is what "not a compiled reduction" means."""
        spec = ReductionSpec(
            name="manual",
            setup_reduction_object=lambda ro: ro.alloc(1, "add"),
            reduction=lambda args: None,
        )
        assert spec.bound is None
        with pytest.raises(FreerideError) as info:
            procexec.task_payload(spec, [(1, "add")], SharedBufferCache(), None)
        assert str(info.value) == (
            "the process executor requires a compiled reduction: build the "
            "spec with BoundReduction.make_spec (a hand-written ReductionSpec "
            "closure cannot be shipped to worker processes)"
        )


class TestTaskPayload:
    def test_payload_ships_one_request_and_workers_key_on_it(self, monkeypatch):
        """What identifies the kernel crosses the process boundary as one
        value; two bindings of one program land on one worker-cache key."""
        monkeypatch.setattr(procexec, "_BOUND_CACHE", {})
        monkeypatch.setattr(procexec, "_DATA_SEGMENTS", {})
        segments = SharedBufferCache()
        try:
            tasks = []
            for _ in range(2):
                bound = make_bound()
                spec, _ = bound.make_spec(LAYOUT)
                payload = procexec.task_payload(spec, LAYOUT, segments, None)
                assert payload["request"] is bound.compiled.request
                assert not set(payload) & {
                    "digest", "source", "constants",
                    "opt_level", "backend", "class_name",
                }
                tasks.append(pickle.loads(pickle.dumps(payload)))
            a, b = tasks
            assert a["request"].key == b["request"].key == bound.compiled.request.key
            # the worker side, run here: one compile-cache entry, one binding
            worker_bound = procexec._bound_for(a)
            assert procexec._bound_for(b) is worker_bound
            assert worker_bound.compiled is bound.compiled
            assert list(procexec._BOUND_CACHE) == [
                (a["request"].key, a["data_shm"])
            ]
        finally:
            attached = [shm for shm, _ in procexec._DATA_SEGMENTS.values()]
            procexec._BOUND_CACHE.clear()
            procexec._DATA_SEGMENTS.clear()
            for shm in attached:
                close_shm_segment(shm)
            segments.close()


class TestSegmentLifecycle:
    def test_dataset_published_once_across_runs(self):
        bound = make_bound()
        engine = FreerideEngine(num_threads=2, executor="process")
        try:
            for _ in range(3):
                spec, idx = bound.make_spec(LAYOUT)
                engine.run(spec, idx)
            assert len(engine._res.segments) == 1
        finally:
            engine.close()

    def test_no_shm_leak_after_close(self):
        bound = make_bound()
        engine = FreerideEngine(num_threads=2, executor="process")
        spec, idx = bound.make_spec(LAYOUT)
        engine.run(spec, idx)
        names = engine._res.segments.names()
        assert names
        engine.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_shm_segment(name)

    def test_close_idempotent_and_blocks_reuse(self):
        engine = FreerideEngine(executor="process")
        engine.close()
        engine.close()
        bound = make_bound()
        spec, idx = bound.make_spec(LAYOUT)
        with pytest.raises(FreerideError, match="closed"):
            engine.run(spec, idx)


class TestProcessFaultTolerance:
    def run_ft(
        self, executor, mode=SKIP_AND_REPORT, fail_attempts=1, retries=2,
        tracer=None,
    ):
        bound = make_bound()
        spec, idx = bound.make_spec(LAYOUT)
        engine = FreerideEngine(
            num_threads=2,
            executor=executor,
            chunk_size=40,
            fault_policy=FaultPolicy(
                max_retries=retries, backoff_base=0.0, mode=mode
            ),
            fault_injector=FaultInjector(
                seed=11, fail_rate=0.4, fail_attempts=fail_attempts
            ),
            tracer=tracer,
        )
        try:
            result = engine.run(spec, idx)
        finally:
            engine.close()
        return result, bound

    def test_recovers_and_matches_serial(self):
        serial, _ = self.run_ft("serial")
        proc, _ = self.run_ft("process")
        assert np.array_equal(serial.ro.snapshot(), proc.ro.snapshot())
        assert proc.stats.failed_splits == 0
        assert proc.stats.injected_faults == serial.stats.injected_faults
        assert proc.stats.retries == serial.stats.retries
        assert proc.stats.split_attempts == serial.stats.split_attempts

    def test_queue_accounting_matches_threads(self):
        """One seeded fault schedule, one fault ledger on every executor."""
        for mode, fail_attempts, retries in [
            (FAIL_FAST, 1, 2),  # every selected split recovers
            (SKIP_AND_REPORT, 1, 2),
            (SKIP_AND_REPORT, 99, 1),  # every selected split is abandoned
        ]:
            runs = {}
            for executor in ("serial", "threads", "process"):
                tracer = Tracer()
                result, bound = self.run_ft(
                    executor, mode, fail_attempts, retries, tracer=tracer
                )
                st = result.stats
                runs[executor] = {
                    "ro": result.ro.snapshot().tolist(),
                    "retries": st.retries,
                    "requeues": st.requeues,
                    "injected_faults": st.injected_faults,
                    "timeouts": st.timeouts,
                    "failed_splits": st.failed_splits,
                    "split_attempts": st.split_attempts,
                    "failures": sorted(
                        (f.split_id, f.attempts, f.elements_lost)
                        for f in st.failures
                    ),
                    "fault_events": sorted(
                        e.name for e in tracer.events() if e.cat == "fault"
                    ),
                    # failed-attempt kernel work still reaches the ledger
                    "counters": bound.counters.as_dict(),
                }
            assert runs["threads"]["requeues"] > 0
            assert "split.requeue" in runs["threads"]["fault_events"]
            if fail_attempts > retries:
                assert runs["threads"]["failures"]
                assert "split.abandon" in runs["threads"]["fault_events"]
            assert runs["serial"] == runs["threads"] == runs["process"]

    def test_fail_fast_raises_original_exception(self):
        with pytest.raises(InjectedFault):
            self.run_ft("process", mode=FAIL_FAST, fail_attempts=99, retries=0)

    def test_skip_and_report_records_failures(self):
        proc, _ = self.run_ft("process", fail_attempts=99, retries=1)
        assert proc.stats.failed_splits > 0
        assert len(proc.stats.failures) == proc.stats.failed_splits
        for rec in proc.stats.failures:
            assert rec.elements_lost > 0
            assert "InjectedFault" in rec.error


class TestProcessTracing:
    def test_worker_spans_merged_into_parent_trace(self, tmp_path):
        bound = make_bound()
        spec, idx = bound.make_spec(LAYOUT)
        tracer = Tracer()
        with FreerideEngine(
            num_threads=2, executor="process", profile_store=tmp_path
        ) as engine:
            with tracing(tracer):
                result = engine.run(spec, idx)
        split_spans = [s for s in tracer.spans() if s.name == "split"]
        assert split_spans
        worker_pids = {s.args["worker_pid"] for s in split_spans}
        assert worker_pids and os.getpid() not in worker_pids
        for s in split_spans:
            assert s.tid == s.args["worker_pid"]
            assert s.args["outcome"] == "ok"
            assert 0 <= s.ts <= s.ts + s.dur
        assert len(split_spans) == sum(result.stats.splits_per_thread)
        (record,) = ProfileStore(tmp_path).load()
        assert record["split_seconds"]["count"] == len(split_spans)


class TestSpawnStartMethod:
    def test_spawn_workers_match_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        serial, _ = run_once("serial")
        proc, _ = run_once("process")
        assert np.array_equal(serial.ro.snapshot(), proc.ro.snapshot())

    def test_unknown_start_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "warp")
        from repro.freeride.procexec import pick_start_method

        with pytest.raises(ValueError, match="REPRO_MP_START_METHOD"):
            pick_start_method()


@needs_cc
class TestColdBuildForkAndExit:
    """A native build runs on a build thread: neither a fork nor an exit
    may catch it half-done."""

    def test_a_fork_during_a_build_waits_for_it(self, slow_cc, tmp_path):
        kernels = tmp_path / "kernels"
        compiled = compile_cached(
            HISTOGRAM_CHAPEL_SOURCE,
            {"bins": BINS, "lo": LO, "width": WIDTH},
            opt_level=2, backend="native",
        )
        assert not list(kernels.glob("*.so"))  # cc is running
        bound = compiled.bind(DATA)
        scalar = make_bound()
        seen = {}

        def run():
            with FreerideEngine(num_threads=2, executor="process") as engine:
                # the first run forks the workers; a scalar spec, so nothing
                # in this process has waited for the native build yet
                engine.run(*scalar.make_spec(LAYOUT))
                seen["published"] = bool(list(kernels.glob("*.so")))
                # the workers settle the kernel the fork handed them
                seen["ro"] = engine.run(*bound.make_spec(LAYOUT)).ro.snapshot()

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive(), "the process engine hung"
        assert seen["published"], "the fork did not wait for the build"
        assert compiled.effective_backend == "native"
        with FreerideEngine(executor="serial") as engine:
            serial = engine.run(*bound.make_spec(LAYOUT)).ro.snapshot()
        assert np.array_equal(seen["ro"], serial)

    def test_an_exit_during_a_build_leaves_no_cc_and_no_partial_file(
        self, slow_cc, tmp_path
    ):
        import cffi

        kernels = tmp_path / "kernels"
        # compiles cold, then exits without touching the kernel
        child = f"""
import pathlib
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.compiler import compile_cached
compile_cached(HISTOGRAM_CHAPEL_SOURCE, {{"bins": {BINS}, "lo": 0.0, "width": 2.0}},
               opt_level=2, backend="native")
print(len(list(pathlib.Path({str(kernels)!r}).glob("*.so"))))
"""
        src = str(Path(repro.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "0"  # it exited with its build in flight
        runs = kernel_cc_runs(slow_cc)
        assert len(runs) == 1, "the exit did not wait for the build"
        with pytest.raises(ProcessLookupError):
            os.kill(int(runs[0][0]), 0)  # cc is not running
        assert not list(kernels.glob(".*"))  # no temporary left behind
        for so in kernels.glob("*.so"):  # complete: it loads
            cffi.FFI().dlopen(str(so))
