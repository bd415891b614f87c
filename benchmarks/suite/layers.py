"""The traced run: per-layer metrics measured from outside the program.

Two sources.  *Spans*: the rounds run every pass twice, once with the
benchmark's span recorder off and once with it on; the per-pass layer
times (``bind``, ``update_extras``, ``make_spec``, ``run_baseline``) come
from the recorded spans and the ratio of the two passes is the tracing
overhead.  *Probes*: direct public calls that isolate one layer — the
bare kernel on a bare reduction object, the compiler's stages one by one,
combine on clones, the same program under other techniques or executors.

Every workload reports every metric name; a layer the workload does not
exercise reports 0.  Probes that belong to one workload (the tier ladder,
the process executor, techniques, delta internals) run only there.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.analysis import analyze_source
from repro.apps import KmeansRunner, PcaRunner
from repro.chapel.parser import parse_program
from repro.compiler import (
    clear_kernel_cache,
    compile_cached,
    compile_reduction,
    linearize_it,
    lower_reduction,
    plan_compilation,
)
from repro.compiler.groupbounds import analyze_group_bounds
from repro.freeride import (
    FaultPolicy,
    FreerideEngine,
    ReductionObject,
    all_to_one_combine,
    parallel_merge_combine,
)
from repro.obs import Tracer

import measure
from cases import (
    BOUND_BY, OPT_LEVEL, REQUESTED_BACKEND, Case, Outcome, W, shm_names,
)
from metrics import PER_LAYER
from spans import SpanRecorder

_OFF = SpanRecorder(False)


def timed(
    fn: Callable[..., Any], reps: int = 3, fresh: Callable[[], Any] | None = None
) -> float:
    """Median wall time of ``fn`` over ``reps`` calls.

    ``fresh`` builds, outside the timed part, an argument each call consumes.
    """
    samples = []
    for _ in range(reps):
        args = (fresh(),) if fresh is not None else ()
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _fresh_ro(layout: list[tuple[int, str]]) -> ReductionObject:
    ro = ReductionObject()
    ro.alloc_many(layout)
    return ro


# ------------------------------------------------------------------ the rounds


def traced_run(
    workload: str, cases: list[Case], rounds: int, spans: SpanRecorder,
    work: Path, counts: measure.Counts, smoke: bool,
) -> tuple[dict[str, float], measure.RoundLog]:
    """Rounds with tracing off and on, then the probes; returns every metric."""
    traced_wall: dict[int, float] = {}  # round id -> traced serial pass

    def both(cases: list[Case], executor: str, spans: SpanRecorder,
             round: int) -> list[Outcome]:
        # the same pass with the recorder off and on; alternate which goes
        # first so drift cancels.  The plain one is what the rounds report.
        plain: list[Outcome] = []
        for on in (round % 2 == 0, round % 2 != 0):
            outcomes = measure.one_pass(
                cases, executor, spans if on else _OFF, round=round
            )
            if on:
                counts.add(outcomes)
                if executor == "serial":
                    traced_wall[round] = sum(o.seconds for o in outcomes)
            else:
                plain = outcomes
        return plain

    log = measure.run_rounds(
        cases, max(6, rounds // 2), spans, counts, BOUND_BY[workload], pass_fn=both
    )

    v: dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
    v["bench.trace_overhead_ratio"] = statistics.median(
        traced_wall[r] / plain for r, plain in zip(log.rounds, log.wall["serial"])
    )
    v["bench.parallel_capacity"] = statistics.median(log.capacity)
    v["bench.rounds_discarded"] = log.discarded
    v["bench.slow_layouts"] = log.slow_layouts
    v["bench.capacity_ok"] = log.capacity_ok
    v["bench.nproc"] = os.cpu_count() or 1
    v["freeride.threads_speedup"] = statistics.median(
        s / t for s, t in zip(log.wall["serial"], log.wall["threads"])
    )

    def per_pass(name: str) -> float:
        """Median over traced serial rounds of the time spent in spans ``name``."""
        return statistics.median(
            sum(spans.durations(name, executor="serial", round=r)) for r in log.rounds
        )

    v["compiler.update_extras_s"] = per_pass("compiler.update_extras")
    v["compiler.make_spec_us"] = per_pass("compiler.make_spec") * 1e6
    v["freeride.baseline_s"] = per_pass("freeride.run_baseline")

    _frontend(cases, work, v)
    _binding(cases, v)
    _kernel_and_dispatch(cases, v)
    if workload == "dense_steady":
        _tier_ladder(cases, v, smoke)
        _process_executor(cases, log, counts, v)
        _app_runners(cases, log, v)
    elif workload == "fine_splits":
        _split_slopes(cases, v)
        _techniques(cases, v, smoke)
        _program_observability(cases, work, v)
    elif workload == "nested_linearize":
        _linearization(cases, v)
    elif workload == "delta_epochs":
        _delta(cases, v)
    return v, log


# ------------------------------------------------------ probes, every workload


def _frontend(cases: list[Case], work: Path, v: dict[str, float]) -> None:
    """chapel, compiler front/middle, analysis: one stage at a time per program."""
    progs = [p for case in cases for p in case.programs()]
    cold_dir = work / "kernels-probe"
    os.environ["REPRO_KERNEL_CACHE"] = str(cold_dir)
    for prog in progs:
        src, consts = prog.source, prog.constants
        v["chapel.parse_s"] += timed(lambda: parse_program(src))
        program = parse_program(src)
        v["compiler.lower_s"] += timed(lambda: lower_reduction(program, consts))
        v["compiler.plan_s"] += timed(
            lambda lowered: plan_compilation(lowered, OPT_LEVEL),
            fresh=lambda: lower_reduction(program, consts),  # plans annotate it
        )
        lowered = lower_reduction(program, consts)
        v["analysis.group_bounds_s"] += timed(lambda: analyze_group_bounds(lowered))
        v["analysis.analyze_source_s"] += timed(
            lambda: analyze_source(src, constants=consts), reps=1
        )
        v["analysis.diagnostics"] += len(analyze_source(src, constants=consts))

        v["compiler.compile_scalar_s"] += timed(
            lambda: compile_reduction(src, consts, OPT_LEVEL, backend="scalar")
        )
        v["compiler.compile_batch_s"] += timed(
            lambda: compile_reduction(src, consts, OPT_LEVEL, backend="batch")
        )
        batch = compile_reduction(src, consts, OPT_LEVEL, backend="batch")
        v["compiler.batch_fallbacks"] += batch.batch_fallback_reason is not None
        v["compiler.generated_py_bytes"] += len(batch.python_source) + len(
            batch.batch_source or ""
        )

        def native() -> Any:
            return compile_cached(src, consts, opt_level=OPT_LEVEL,
                                  backend=REQUESTED_BACKEND)

        clear_kernel_cache()  # cold: nothing in memory, nothing on disk
        v["compiler.compile_native_cold_s"] += timed(native, reps=1)
        clear_kernel_cache()  # warm: the .so is on disk, the memo is empty
        v["compiler.compile_native_warm_s"] += timed(native, reps=1)
        v["compiler.cache_hit_us"] += timed(native, reps=25) * 1e6
        compiled = native()
        v["compiler.native_fallbacks"] += (
            compiled.effective_backend != REQUESTED_BACKEND
        )
        v["compiler.generated_c_bytes"] += len(compiled.native_source or "")


def _binding(cases: list[Case], v: dict[str, float]) -> None:
    """``bind`` on the case's own data: NumPy fast path or Algorithm 1-2."""
    for case in cases:
        for index, compiled in enumerate(case.compiled):
            samples = []
            for _ in range(3):
                data, extras = case.bind_args(index)  # the copy is not bind's cost
                t0 = time.perf_counter()
                bound = compiled.bind(data, extras)
                samples.append(time.perf_counter() - t0)
            v["compiler.bind_s"] += statistics.median(samples)
            v["compiler.bytes_linearized"] += bound.counters.bytes_linearized


def _kernel_and_dispatch(cases: list[Case], v: dict[str, float]) -> None:
    """Bare kernel, RO set-up, the engine's fixed cost per run, combine."""
    elements = 0
    with FreerideEngine(num_threads=1, executor="serial") as one_split:
        for case in cases:
            elements += case.elements
            for bound, layout, repeats in case.kernel_binds():
                spec, idx = bound.make_spec(layout)
                v["freeride.ro_setup_s"] += timed(
                    lambda: spec.setup_reduction_object(ReductionObject()), reps=5
                )
                kernel = timed(bound.run_serial, reps=5, fresh=lambda: _fresh_ro(layout))
                v["compiler.kernel_s"] += kernel * repeats
                ops_before = bound.counters.total_ops()
                bound.run_serial(_fresh_ro(layout))
                v["compiler.kernel_ops"] += (
                    bound.counters.total_ops() - ops_before
                ) * repeats

                result = one_split.run(spec, idx)
                v["freeride.run_fixed_s"] += max(
                    0.0, timed(lambda: one_split.run(spec, idx), reps=5) - kernel
                )
                clones = [result.ro.copy() for _ in range(W)]
                v["freeride.combine_s"] += timed(lambda: all_to_one_combine(clones))
                v["freeride.parallel_merge_s"] += timed(
                    lambda: parallel_merge_combine(clones)
                )
                v["freeride.elements_merged"] += all_to_one_combine(clones)[
                    1
                ].elements_merged
    v["compiler.kernel_ns_per_elem"] = v["compiler.kernel_s"] / elements * 1e9
    # counts of the last passes the rounds made: serial splits, threaded replicas
    for case in cases:
        v["freeride.splits"] += sum(case.last_splits["serial"].values())
        v["freeride.ro_replica_bytes"] += sum(case.last_ro_bytes["threads"].values())


# ----------------------------------------------------------- dense_steady only


def _tier_ladder(cases: list[Case], v: dict[str, float], smoke: bool) -> None:
    """The paper's generated / opt-1 / opt-2 ordering, and the fallback tiers."""
    kmeans = cases[0]
    prog = kmeans.programs()[0]
    points = kmeans.points[: 1_000 if smoke else 5_000]
    _data, extras = kmeans.bind_args(0)
    for name, backend, level in (
        ("compiler.batch_opt2_s", "batch", 2),
        ("compiler.scalar_opt2_s", "scalar", 2),
        ("compiler.scalar_opt1_s", "scalar", 1),
        ("compiler.scalar_generated_s", "scalar", 0),
    ):
        compiled = compile_reduction(prog.source, prog.constants, level, backend=backend)
        bound = compiled.bind(points, extras)
        v[name] = timed(bound.run_serial, reps=3 if backend == "batch" else 1,
                        fresh=lambda: _fresh_ro(prog.layout))


def _process_executor(
    cases: list[Case], log: measure.RoundLog, counts: measure.Counts,
    v: dict[str, float],
) -> None:
    """A fresh process engine: first pass (spin-up + publish) and steady pass."""
    # fork is the pool's default start method: no other thread may be alive
    for case in cases:
        case.close()
    before = shm_names()
    for case in cases:
        case.engines["process"] = FreerideEngine(
            num_threads=W, executor="process", chunk_size=case.chunk_size
        )
    try:
        walls = []
        for _ in range(4):
            outcomes = measure.one_pass(cases, "process", _OFF)
            counts.add(outcomes)
            walls.append(sum(o.seconds for o in outcomes))
    finally:
        for case in cases:
            case.close()
    steady = statistics.median(walls[1:])
    v["freeride.process_pass_s"] = steady
    v["freeride.process_first_pass_s"] = walls[0] - steady
    v["freeride.process_speedup"] = statistics.median(log.wall["serial"]) / steady
    v["freeride.shm_leaked"] = len(shm_names() - before)


def _app_runners(
    cases: list[Case], log: measure.RoundLog, v: dict[str, float]
) -> None:
    """``repro.apps`` runners on the same inputs vs the benchmark's own composition."""
    kmeans, pca = cases[0], cases[1]
    with KmeansRunner(kmeans.k, kmeans.dim, version="opt-2",
                      backend=REQUESTED_BACKEND) as runner:
        v["apps.kmeans_runner_s"] = timed(
            lambda: runner.run(kmeans.points, kmeans.centroids, iterations=1)
        )
    with PcaRunner(pca.m, version="opt-2", backend=REQUESTED_BACKEND) as runner:
        matrix = np.ascontiguousarray(pca.columns.T)
        v["apps.pca_runner_s"] = timed(lambda: runner.run(matrix))
    own = sum(
        statistics.median(log.per_case_wall["serial"][case.name])
        for case in (kmeans, pca)
    )
    v["apps.runner_overhead_ratio"] = (
        v["apps.kmeans_runner_s"] + v["apps.pca_runner_s"]
    ) / own


# ------------------------------------------------------------ fine_splits only


def _engine_run_time(
    bound: Any, layout: Any, reps: int = 3, **engine_kwargs: Any
) -> tuple[float, Any]:
    """Median ``engine.run`` time under ``engine_kwargs``, and the last RunStats."""
    with FreerideEngine(**engine_kwargs) as engine:
        spec, idx = bound.make_spec(layout)
        stats = engine.run(spec, idx).stats
        return timed(lambda: engine.run(spec, idx), reps=reps), stats


def _split_slopes(cases: list[Case], v: dict[str, float]) -> None:
    """Serial run time over split count: the 8-group and the 1,024-group case."""
    for metric, case in (("freeride.per_split_us", cases[0]),
                         ("freeride.per_split_wide_us", cases[1])):
        bound, layout = case.bound[0], case.programs()[0].layout
        one, one_stats = _engine_run_time(bound, layout, executor="serial")
        many, many_stats = _engine_run_time(
            bound, layout, executor="serial", chunk_size=case.chunk_size
        )
        extra_splits = sum(many_stats.splits_per_thread) - sum(one_stats.splits_per_thread)
        v[metric] = (many - one) / extra_splits * 1e6


def _techniques(cases: list[Case], v: dict[str, float], smoke: bool) -> None:
    """The 1,024-bin histogram in 16 splits under each technique; k-means under FT."""
    wide = cases[1]
    n = 5_000 if smoke else 50_000
    bound = wide.compiled[0].bind(wide.x[:n])
    layout = wide.programs()[0].layout
    for metric, technique in (
        ("freeride.tech_locking_pass_s", "cache_sensitive_locking"),
        ("freeride.tech_colored_pass_s", "colored"),
        ("freeride.tech_auto_pass_s", "auto"),
    ):
        v[metric], stats = _engine_run_time(
            bound, layout, reps=1,  # seconds each under locking and colored
            num_threads=W, executor="threads",
            technique=technique, chunk_size=n // 16,
        )
        if technique == "cache_sensitive_locking":
            v["freeride.lock_acquisitions"] = stats.sharedmem.lock_acquisitions

    fine = cases[0]
    v["freeride.ft_pass_s"], stats = _engine_run_time(
        fine.bound[0], fine.programs()[0].layout, executor="serial",
        chunk_size=fine.chunk_size, fault_policy=FaultPolicy(),
    )
    v["freeride.retries"] = stats.retries
    v["freeride.failed_splits"] = stats.failed_splits


def _program_observability(cases: list[Case], work: Path, v: dict[str, float]) -> None:
    """What the program's own tracer and profile store cost on the fine k-means pass."""
    fine = cases[0]
    bound, layout = fine.bound[0], fine.programs()[0].layout
    common = dict(executor="serial", chunk_size=fine.chunk_size)
    plain, _ = _engine_run_time(bound, layout, **common)
    tracer = Tracer()
    with FreerideEngine(tracer=tracer, **common) as engine:
        spec, idx = bound.make_spec(layout)
        engine.run(spec, idx)
        v["obs.spans_per_pass"] = len(tracer.spans())
        v["obs.trace_overhead_ratio"] = timed(lambda: engine.run(spec, idx)) / plain
    stored, _ = _engine_run_time(
        bound, layout, profile_store=str(work / "profiles-probe"), **common
    )
    v["obs.profile_store_overhead_ratio"] = stored / plain


# ------------------------------------------------------- nested_linearize only


def _linearization(cases: list[Case], v: dict[str, float]) -> None:
    """Algorithm 1-2 alone, and the input construction beside it."""
    nbytes = 0
    for case in cases:
        v["chapel.from_python_s"] += case.from_python_s
        value = case.value
        v["compiler.linearize_s"] += timed(lambda: linearize_it(value, value.type))
        nbytes += linearize_it(value, value.type).nbytes
    v["compiler.linearize_mb_per_s"] = nbytes / 1e6 / v["compiler.linearize_s"]


# ----------------------------------------------------------- delta_epochs only


def _delta(cases: list[Case], v: dict[str, float]) -> None:
    """Append-only and retract-only epochs, replay counts, speed-up over a cold pass."""
    speedups: dict[str, float] = {}
    with FreerideEngine(num_threads=1, executor="serial") as engine:
        for case in cases:
            layout = case.programs()[0].layout

            def epochs(append: bool, retract: bool) -> float:
                """Median epoch time of a fresh session fed one or both halves."""
                session = case.open_session(engine, _OFF)
                walls = []
                for e in range(case.epochs):
                    delta = {}
                    if append:
                        delta["append"] = case.appends[e]
                    if retract:
                        delta["retract"] = case.retracts[e]
                    t0 = time.perf_counter()
                    stats = engine.run_delta(session, **delta).stats
                    walls.append(time.perf_counter() - t0)
                    if append and retract:
                        v["freeride.delta_replay_elements"] += stats.delta_replay_elements
                        v["freeride.delta_groups_replayed"] += stats.delta_groups_replayed
                        v["freeride.delta_checkpoint_saves"] += stats.delta_checkpoint_saves
                if append and retract:
                    v["freeride.ro_at_s"] += timed(
                        lambda: session.ro_at(session.epoch - 1)
                    )
                return statistics.median(walls)

            v["freeride.delta_append_s"] += epochs(append=True, retract=False)
            v["freeride.delta_retract_s"] += epochs(append=False, retract=True)
            epoch = epochs(append=True, retract=True)
            # the cold alternative: one full pass over the mutated dataset
            everything = np.concatenate([case.base, *case.appends])
            cold = case.compiled[0].bind(everything, case.bind_args(0)[1])
            spec, idx = cold.make_spec(layout)
            speedups[case.name] = timed(lambda: engine.run(spec, idx)) / epoch
    invertible = [s for name, s in speedups.items() if "window_min" not in name]
    v["freeride.delta_speedup_invertible"] = math.exp(
        statistics.mean(math.log(s) for s in invertible)
    )
    v["freeride.delta_speedup_winmin"] = speedups["delta_window_min"]
