"""The FREERIDE execution engine.

Implements the processing structure of the paper's Figure 4 (left):

.. code-block:: text

    {* Outer Sequential Loop *}  <- driven by the application (e.g. k-means)
    While() {
        {* Reduction Loop *}
        Foreach(element e) {
            (i, val) = Process(e);
            RObj(i) = Reduce(RObj(i), val);
        }
        Global Reduction to Combine RObj
    }

One :meth:`FreerideEngine.run` call executes one pass of the reduction loop:
split the input, run the local reduction on every split across threads
(map and reduce fused — each element is processed *and* reduced before the
next), perform the local combination (per shared-memory technique), the
global combination (across nodes, all-to-one or parallel merge), and
finalize.

Three executors are provided: ``"serial"`` (deterministic round-robin split
assignment — the mode the simulated machine models), ``"threads"`` (a real
thread pool pulling splits from a shared queue), and ``"process"`` (a
persistent worker-process pool sidestepping the GIL: the linearized dataset
is published into shared memory once per engine, workers attach it zero-copy
and accumulate into per-worker reduction-object replicas in a second shared
segment — full replication extended across address spaces; see
:mod:`repro.freeride.procexec`).

When a :class:`~repro.freeride.faults.FaultPolicy` (or injector) is
configured, split processing becomes fault tolerant: every attempt runs
against a fresh per-split *scratch* reduction object that is committed to
the thread's accessor only on success — atomically merged into the private
copy (full replication) or applied group-by-group under the lock table
(locking techniques) — so a failed or retried attempt never leaves partial
accumulations behind and no element is ever double counted.

The split loop itself — attempt, settle, and the drive over waves × lanes
that all three executors share — lives in :mod:`repro.freeride.execute`;
this module plans a run (splits, technique, wave schedule) and combines
its results.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np


def _validate_custom_splits(splits: "list[Split]", data: Any) -> None:
    """A user splitter must produce an exact, ordered partition."""
    if not isinstance(splits, list) or not all(isinstance(s, Split) for s in splits):
        raise SplitterError("custom splitter must return a list of Split")
    try:
        n = len(data)
    except TypeError:
        raise SplitterError("custom splitter data must be sized")
    _check_partition(splits, n)

from repro.freeride.combination import (
    PARALLEL_MERGE_THRESHOLD_BYTES,
    CombinationStats,
    combine,
)
from repro.freeride.execute import Observation, RunContext, drive
from repro.freeride.faults import FaultInjector, FaultPolicy, SplitFailureRecord
from repro.freeride.delta import DeltaSession, ROCheckpoint, contiguous_runs
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import (
    ScratchAccessor,
    SharedBufferCache,
    SharedMemManager,
    SharedMemStats,
    SharedMemTechnique,
)
from repro.freeride.spec import ReductionSpec
from repro.freeride.splitter import (
    Split,
    _check_partition,
    aligned_splits,
    chunked_splitter,
    default_splitter,
)
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from repro.obs.profilestore import (
    MAX_FOOTPRINT_CELLS,
    ProfileStore,
    RunProfile,
    resolve_store,
    shape_class,
    split_layout_fingerprint,
    summarize_durations,
)
from repro.obs.tracer import NullTracer, Tracer, get_tracer
from repro.util.errors import FaultToleranceError, FreerideError, SplitterError
from repro.util.timing import PhaseTimer
from repro.util.validation import check_one_of, check_positive_int

__all__ = [
    "RunStats",
    "ReductionResult",
    "FreerideEngine",
    "REPLICATION_BUDGET_BYTES",
    "CONTENTION_FEEDBACK_THRESHOLD",
    "DELTA_COMMIT_SPLIT_ID",
]

#: pseudo split id the delta commit reports to a configured
#: :class:`~repro.freeride.faults.FaultInjector` — real splits are numbered
#: from 0, so ``FaultInjector(fail_split_ids={DELTA_COMMIT_SPLIT_ID},
#: fail_attempts=n)`` makes the first ``n`` commit attempts of a delta
#: epoch fail mid-commit (exercising checkpoint rollback) without touching
#: ordinary split processing.
DELTA_COMMIT_SPLIT_ID = -1

#: distinct shared-memory session keys for delta sessions of one process
_DELTA_SESSION_IDS = itertools.count()


def _reduce_ranges(
    spec: ReductionSpec, like: ReductionObject, starts: np.ndarray, ends: np.ndarray
) -> ReductionObject:
    """Reduce element ranges into a fresh scratch object laid out as ``like``.

    The parent-side compute behind a manual session's append, every
    retraction and every replay: the ``[starts[i], ends[i])`` runs go to the
    spec's ``reduce_ranges`` hook as two arrays, *global* positions intact,
    so position-dependent reductions see the coordinates a full run would
    and a native kernel walks them all in one call.
    """
    scratch = like.clone_empty()
    spec.reduce_ranges(starts, ends, ScratchAccessor(scratch))
    return scratch


#: ``technique="auto"``: replicating the reduction object across threads
#: beyond this many total bytes (``ro.nbytes * num_threads``) is considered
#: too expensive and the selector prefers a single-copy technique.
REPLICATION_BUDGET_BYTES = 64 * 1024 * 1024

#: ``technique="auto"``: when replication is over budget and the previous
#: traced run's ``ro.lock_acquisitions_per_split`` histogram averaged more
#: than this many acquisitions per split, the selector prefers colored
#: waves (when colorable) over cache-sensitive locking.
CONTENTION_FEEDBACK_THRESHOLD = 8.0


@dataclass
class RunStats:
    """Everything a run observed; the cost model consumes these counters."""

    num_threads: int = 1
    num_nodes: int = 1
    executor: str = "serial"
    #: the technique the run actually executed (always effective, never the
    #: request — a coerced or fallen-back run reports what really happened)
    technique: SharedMemTechnique = SharedMemTechnique.FULL_REPLICATION
    #: what the caller asked for: a technique value or ``"auto"``
    technique_requested: str = SharedMemTechnique.FULL_REPLICATION.value
    #: alias of :attr:`technique`, spelled out so a reader comparing request
    #: vs. outcome never has to guess which one ``technique`` means
    technique_effective: SharedMemTechnique = SharedMemTechnique.FULL_REPLICATION
    #: why the effective technique differs from the request (``auto``
    #: selection or colored fallback): ``{requested, chosen, reason,
    #: inputs}``; ``None`` when the request was honored verbatim
    technique_decision: dict[str, Any] | None = None
    #: wave-schedule summary when the run executed colored
    #: (:meth:`repro.freeride.coloring.SplitColoring.as_dict`), else ``None``
    coloring: dict[str, Any] | None = None
    #: element alignment the default splitter snapped split boundaries to
    #: (the effect analysis' ``GroupBounds.alignment`` wave hint); ``None``
    #: when the run used unaligned splits
    split_alignment: int | None = None
    total_elements: int = 0
    elements_per_thread: list[int] = field(default_factory=list)
    splits_per_thread: list[int] = field(default_factory=list)
    ro_updates: int = 0
    ro_size: int = 0
    #: compiled-kernel cache hits observed *during this run* (the delta of
    #: :func:`repro.compiler.cache.kernel_cache_stats` across the run, so
    #: back-to-back runs never inherit each other's hits)
    kernel_cache_hits: int = 0
    #: LRU evictions from the bounded in-memory kernel cache during this
    #: run (same per-run delta convention as :attr:`kernel_cache_hits`)
    kernel_cache_evictions: int = 0
    #: :meth:`repro.obs.MetricsRegistry.snapshot` of the run's metrics
    #: (split-duration histograms, RO contention, ...); empty when tracing
    #: is disabled — the metrics pipeline lives off the hot path
    metrics: dict[str, Any] = field(default_factory=dict)
    sharedmem: SharedMemStats = field(default_factory=SharedMemStats)
    local_combination: CombinationStats = field(default_factory=CombinationStats)
    global_combination: CombinationStats | None = None
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # -- fault-tolerance accounting (all zero without a fault policy) ----------
    #: retry attempts beyond each split's first (includes straggler re-runs)
    retries: int = 0
    #: splits abandoned after exhausting retries (``skip_and_report`` only)
    failed_splits: int = 0
    #: failures raised by a configured :class:`FaultInjector`
    injected_faults: int = 0
    #: failed attempts pushed back to the work queue for a retry
    requeues: int = 0
    #: attempts discarded for exceeding the policy's ``split_timeout``
    timeouts: int = 0
    #: per-split attempt counts (max across nodes when split ids repeat)
    split_attempts: dict[int, int] = field(default_factory=dict)
    #: one record per abandoned split
    failures: list[SplitFailureRecord] = field(default_factory=list)
    # -- incremental delta execution (all defaults outside run_delta) ----------
    #: delta epoch this result committed (``None`` for ordinary full runs)
    delta_epoch: int | None = None
    #: ``"append"``, ``"retract"`` or ``"append+retract"``
    delta_mode: str | None = None
    #: elements appended by this delta
    delta_appended: int = 0
    #: elements tombstoned by this delta
    delta_retracted: int = 0
    #: non-invertible groups re-reduced from surviving elements
    delta_groups_replayed: int = 0
    #: live elements re-processed by the replay pass (effect-summary bounded)
    delta_replay_elements: int = 0
    #: checkpoint pre-images copied this epoch (one per mutated group)
    delta_checkpoint_saves: int = 0
    #: checkpoint ``save_group`` calls answered by an existing pre-image
    delta_checkpoint_hits: int = 0


@dataclass
class ReductionResult:
    """Outcome of one reduction pass."""

    value: Any
    ro: ReductionObject
    stats: RunStats


class _EngineResources:
    """An engine's OS-level resources, releasable without the engine.

    Split out of :class:`FreerideEngine` so a ``weakref.finalize`` can shut
    everything down when the engine is garbage collected or the interpreter
    exits — an application that leaks an engine without calling ``close()``
    must not hang shutdown on live pool workers or leave ``/dev/shm``
    segments behind (``weakref.finalize`` callbacks run via ``atexit``
    *before* threading/multiprocessing teardown, so an orderly
    ``shutdown(wait=True)`` is still possible there).
    """

    __slots__ = ("thread_pool", "process_pool", "segments")

    def __init__(self) -> None:
        self.thread_pool: ThreadPoolExecutor | None = None
        self.process_pool: ProcessPoolExecutor | None = None
        #: shared-memory copies of published datasets (process executor)
        self.segments = SharedBufferCache()

    def release(self) -> None:
        if self.thread_pool is not None:
            self.thread_pool.shutdown(wait=True)
            self.thread_pool = None
        if self.process_pool is not None:
            self.process_pool.shutdown(wait=True)
            self.process_pool = None
        self.segments.close()


class FreerideEngine:
    """Runs :class:`~repro.freeride.spec.ReductionSpec` applications.

    Parameters
    ----------
    num_threads:
        threads per node ("One thread is allocated on one CPU" in §V).
    technique:
        shared-memory technique for reduction-object updates, or ``"auto"``
        to let the engine pick one per run from the reduction object's
        size, the splits' provable group footprints and (when tracing)
        lock-contention feedback; the choice is recorded in
        ``RunStats.technique_decision`` and as a ``technique.decision``
        trace event.  ``"colored"`` requests conflict-free wave execution
        and falls back to full replication (recording why) when no exact
        plan-time group bounds are available.
    executor:
        ``"serial"``, ``"threads"`` or ``"process"``.  The process executor
        requires full replication and compiled reductions (specs built by
        :meth:`~repro.compiler.translate.BoundReduction.make_spec`); see
        ``docs/PERFORMANCE.md`` for how to choose.
    chunk_size:
        if given, the input is cut into fixed-size chunks pulled dynamically;
        otherwise the default splitter produces one block per thread.
    num_nodes:
        cluster width for the global combination phase (each node runs the
        full local pipeline on its block of the data).
    parallel_merge_threshold:
        reduction objects at least this many bytes use the parallel merge.
    fault_policy:
        enables fault-tolerant split execution (retries with backoff, soft
        per-split timeouts, straggler re-dispatch, fail-fast or
        skip-and-report degradation).  ``None`` (the default) keeps attempts
        *direct* (:attr:`repro.freeride.execute.RunContext.direct`): each
        split accumulates straight into its lane's accessor, with no scratch
        object and nothing to settle.
    fault_injector:
        deterministic seeded failure/delay injection for testing recovery;
        implies a default :class:`FaultPolicy` if none is given.
    tracer:
        an explicit :class:`~repro.obs.Tracer` for this engine's runs.
        ``None`` (the default) resolves the process-wide tracer
        (:func:`repro.obs.get_tracer`) at every :meth:`run`, so
        ``with tracing(): ...`` around existing code just works.  When the
        resolved tracer is disabled the engine installs **no** per-split
        instrumentation — the execution path is byte-for-byte the
        pre-observability one.
    profile_store:
        persistent run-history recording and profile-guided execution
        (:mod:`repro.obs.profilestore`).  ``None``/``False`` (the default)
        disables the store entirely — zero store reads or writes anywhere,
        and the per-split hot path is untouched.  ``True`` opens the
        default store (``~/.cache/repro-profiles`` or
        ``$REPRO_PROFILE_STORE``); a path opens that directory; an
        existing :class:`~repro.obs.profilestore.ProfileStore` is used
        as-is.  With a store attached, every run appends one
        :class:`~repro.obs.profilestore.RunProfile`; ``technique="auto"``
        consults the store's history for this program, and kernels whose
        group footprints the effect analysis cannot bound (histogram)
        have their footprints *observed* at commit time so warm re-runs
        color into conflict-free waves (``coloring source="profile"``).
    """

    def __init__(
        self,
        num_threads: int = 1,
        technique: SharedMemTechnique | str = SharedMemTechnique.FULL_REPLICATION,
        executor: str = "serial",
        chunk_size: int | None = None,
        num_nodes: int = 1,
        parallel_merge_threshold: int = PARALLEL_MERGE_THRESHOLD_BYTES,
        splitter: "Callable[[Any, int], list[Split]] | None" = None,
        fault_policy: FaultPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        profile_store: "ProfileStore | str | bool | None" = None,
    ) -> None:
        self.num_threads = check_positive_int(num_threads, "num_threads")
        raw = (
            technique.value
            if isinstance(technique, SharedMemTechnique)
            else str(technique)
        )
        if raw == "auto":
            #: ``None`` marks adaptive selection: every run resolves the
            #: effective technique from the spec/splits/reduction object
            self.technique: SharedMemTechnique | None = None
        else:
            self.technique = SharedMemTechnique.parse(technique)
        #: the caller's request, verbatim (``"auto"`` or a technique value)
        self.technique_requested: str = raw if raw == "auto" else self.technique.value
        self.executor = check_one_of(
            executor, ("serial", "threads", "process"), "executor"
        )
        if (
            self.executor == "process"
            and self.technique is not None
            and self.technique is not SharedMemTechnique.FULL_REPLICATION
        ):
            raise FreerideError(
                "the process executor supports only the full_replication "
                "technique: a lock table cannot guard one reduction object "
                "across address spaces (and colored waves cannot barrier "
                "them); use technique='full_replication' or 'auto'"
            )
        #: mean ``ro.lock_acquisitions_per_split`` of this engine's most
        #: recent *traced* run — the ``auto`` selector's contention feedback.
        #: ``None`` until a traced run populates the histogram.
        self._last_lock_contention: float | None = None
        if chunk_size is not None:
            check_positive_int(chunk_size, "chunk_size")
        self.chunk_size = chunk_size
        self.num_nodes = check_positive_int(num_nodes, "num_nodes")
        self.parallel_merge_threshold = parallel_merge_threshold
        if splitter is not None and not callable(splitter):
            raise FreerideError("splitter must be callable (splitter_t)")
        #: custom ``splitter_t``; None selects the middleware default
        self.splitter = splitter
        if fault_policy is not None and not isinstance(fault_policy, FaultPolicy):
            raise FaultToleranceError("fault_policy must be a FaultPolicy or None")
        if fault_injector is not None and not isinstance(fault_injector, FaultInjector):
            raise FaultToleranceError("fault_injector must be a FaultInjector or None")
        self.fault_policy = fault_policy
        self.fault_injector = fault_injector
        if tracer is not None and not isinstance(tracer, (Tracer, NullTracer)):
            raise FreerideError("tracer must be a Tracer, NullTracer or None")
        #: explicit tracer; None falls back to the global tracer per run
        self.tracer = tracer
        #: persistent run-history store; None keeps the store fully disabled
        self.profile_store = resolve_store(profile_store)
        #: in-memory footprint cache: (digest, split fingerprint) -> map of
        #: (start, end) -> observed group set.  Lets the second run of one
        #: engine lifetime go profile-colored without re-reading the store.
        self._footprint_cache: dict[tuple[str, str], dict] = {}
        # Persistent worker pools (threads or processes) plus published
        # shared-memory segments, shared by every run() of this engine.  The
        # finalizer releases them even if close() is never called.
        self._res = _EngineResources()
        self._finalizer = weakref.finalize(
            self, _EngineResources.release, self._res
        )
        self._closed = False

    # -- worker-pool lifecycle -------------------------------------------------

    @property
    def _pool(self) -> ThreadPoolExecutor | None:
        """The persistent thread pool (``None`` until the first threaded run)."""
        return self._res.thread_pool

    def _get_pool(self) -> ThreadPoolExecutor:
        """The engine's persistent thread pool (created on first use).

        Reusing one pool across outer-sequential-loop iterations avoids
        rebuilding ``num_threads`` OS threads on every :meth:`run` call —
        the FREERIDE daemon threads live for the whole computation.
        """
        if self._closed:
            raise FreerideError("engine is closed; create a new FreerideEngine")
        if self._res.thread_pool is None:
            self._res.thread_pool = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="freeride"
            )
        return self._res.thread_pool

    def _get_process_pool(self) -> ProcessPoolExecutor:
        """The engine's persistent worker-process pool (created on first use).

        Like the thread pool, it lives for the whole computation: workers
        keep their compiled-kernel and attached-segment caches warm across
        outer-loop iterations.
        """
        if self._closed:
            raise FreerideError("engine is closed; create a new FreerideEngine")
        if self._res.process_pool is None:
            # imported lazily: only process-mode engines pay for it
            from repro.freeride.procexec import create_process_pool

            self._res.process_pool = create_process_pool(self.num_threads)
        return self._res.process_pool

    def close(self) -> None:
        """Release the worker pools and shared-memory segments.  Idempotent."""
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "FreerideEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- public entry ---------------------------------------------------------

    def run(self, spec: ReductionSpec, data: Any) -> ReductionResult:
        """Execute one reduction pass over ``data``."""
        if self._closed:
            raise FreerideError("engine is closed; create a new FreerideEngine")
        if (
            self.executor == "process"
            and self.technique is not None
            and self.technique is not SharedMemTechnique.FULL_REPLICATION
        ):
            # also checked at construction; re-checked here so an engine
            # whose .technique was mutated after init fails loudly instead
            # of running full replication while stamping the stats with the
            # technique it did *not* use
            raise FreerideError(
                "the process executor supports only the full_replication "
                "technique (got {0!r}); use 'full_replication' or 'auto'"
                .format(self.technique.value)
            )
        tracer = self.tracer if self.tracer is not None else get_tracer()
        metrics = MetricsRegistry() if tracer.enabled else None
        timer = PhaseTimer()
        kspec = spec.kernel_spec
        digest = kspec.digest if kspec is not None else None
        # Per-run profile context — built ONLY when a store is attached, so
        # the disabled path performs zero store work (one None check here).
        profile_ctx: dict[str, Any] | None = None
        if self.profile_store is not None:
            profile_ctx = {"wall_start": time.perf_counter(), "digest": digest}
        initial = self.technique or SharedMemTechnique.FULL_REPLICATION
        stats = RunStats(
            num_threads=self.num_threads,
            num_nodes=self.num_nodes,
            executor=self.executor,
            technique=initial,
            technique_requested=self.technique_requested,
            technique_effective=initial,
        )
        stats.sharedmem.technique = initial
        # imported lazily: the compiler package imports freeride, not vice versa
        from repro.compiler.cache import kernel_cache_stats

        cache_stats_before = kernel_cache_stats()

        with tracer.span(
            "engine.run",
            cat="engine",
            spec=spec.name,
            executor=self.executor,
            num_threads=self.num_threads,
            num_nodes=self.num_nodes,
            technique=self.technique_requested,
            digest=digest,
        ) as run_span:
            if self.num_nodes == 1:
                with timer.phase("local"), tracer.span("local", cat="phase"):
                    ro, sm_stats, lc_stats = self._run_node(
                        spec, data, stats, tracer, metrics, node=0,
                        profile_ctx=profile_ctx,
                    )
                stats.sharedmem = sm_stats
                stats.local_combination = lc_stats
            else:
                node_ros: list[ReductionObject] = []
                with timer.phase("local"), tracer.span("local", cat="phase"):
                    for node_id, node_block in enumerate(
                        default_splitter(data, self.num_nodes)
                    ):
                        node_ro, sm_stats, lc_stats = self._run_node(
                            spec, node_block.data, stats, tracer, metrics,
                            node=node_id, profile_ctx=profile_ctx,
                        )
                        stats.sharedmem.add(sm_stats)
                        stats.local_combination.strategy = lc_stats.strategy
                        stats.local_combination.merges += lc_stats.merges
                        stats.local_combination.elements_merged += (
                            lc_stats.elements_merged
                        )
                        stats.local_combination.rounds = max(
                            stats.local_combination.rounds, lc_stats.rounds
                        )
                        node_ros.append(node_ro)
                with timer.phase("global_combination"), tracer.span(
                    "global_combination", cat="phase"
                ):
                    with tracer.span(
                        "global_combination", cat="combination",
                        num_nodes=self.num_nodes,
                    ) as g_span:
                        ro, g_stats = combine(node_ros, self.parallel_merge_threshold)
                        g_span.set(
                            strategy=g_stats.strategy,
                            merges=g_stats.merges,
                            rounds=g_stats.rounds,
                            elements_merged=g_stats.elements_merged,
                        )
                    stats.global_combination = g_stats

            stats.ro_updates = ro.update_count
            stats.ro_size = ro.size
            cache_stats_after = kernel_cache_stats()
            stats.kernel_cache_hits = (
                cache_stats_after["hits"] - cache_stats_before["hits"]
            )
            stats.kernel_cache_evictions = (
                cache_stats_after["evictions"] - cache_stats_before["evictions"]
            )

            with timer.phase("finalize"), tracer.span("finalize", cat="phase"):
                value: Any = spec.finalize(ro) if spec.finalize is not None else ro
            run_span.set(
                total_elements=stats.total_elements,
                ro_updates=stats.ro_updates,
                kernel_cache_hits=stats.kernel_cache_hits,
                technique_effective=stats.technique_effective.value,
            )

        stats.phase_seconds = timer.as_dict()
        if metrics is not None:
            self._finish_metrics(metrics, stats)
        if profile_ctx is not None:
            self._append_profile(spec, stats, profile_ctx)
        return ReductionResult(value=value, ro=ro, stats=stats)

    def _finish_metrics(self, metrics: MetricsRegistry, stats: RunStats) -> None:
        """Fold the run's aggregate counters into the registry and snapshot.

        Also harvests the run's ``ro.lock_acquisitions_per_split``
        distribution into :attr:`_last_lock_contention`, the ``auto``
        selector's feedback signal — untraced runs record nothing, so the
        feedback simply goes stale rather than being zeroed.
        """
        metrics.gauge("engine.num_threads").set(stats.num_threads)
        metrics.gauge("engine.num_nodes").set(stats.num_nodes)
        metrics.counter("engine.elements").inc(stats.total_elements)
        metrics.counter("ro.updates").inc(stats.ro_updates)
        metrics.counter("ro.lock_acquisitions").inc(
            stats.sharedmem.lock_acquisitions
        )
        for name, value in (
            ("faults.retries", stats.retries),
            ("faults.failed_splits", stats.failed_splits),
            ("faults.injected", stats.injected_faults),
            ("faults.requeues", stats.requeues),
            ("faults.timeouts", stats.timeouts),
        ):
            if value:
                metrics.counter(name).inc(value)
        for phase, seconds in stats.phase_seconds.items():
            metrics.histogram("engine.phase_seconds." + phase).observe(seconds)
        stats.metrics = metrics.snapshot()
        contention = metrics.histogram(
            "ro.lock_acquisitions_per_split", DEFAULT_COUNT_BUCKETS
        )
        if contention.count:
            self._last_lock_contention = contention.mean

    def run_iterative(
        self,
        make_spec: "Callable[[Any], ReductionSpec]",
        data: Any,
        iterations: int,
        update: "Callable[[ReductionResult, Any], Any]",
        state: Any,
        converged: "Callable[[Any, Any], bool] | None" = None,
    ) -> tuple[Any, list[ReductionResult]]:
        """The outer sequential loop of Figure 4's left column.

        ``make_spec(state)`` builds the reduction for the current state
        (e.g. current centroids); ``update(result, state)`` derives the next
        state from the combined reduction object; the optional
        ``converged(old, new)`` predicate ends the loop early (k-means'
        "repeat until the centroids are stable").

        Returns the final state and every pass's :class:`ReductionResult`.
        """
        check_positive_int(iterations, "iterations")
        results: list[ReductionResult] = []
        for _ in range(iterations):
            spec = make_spec(state)
            result = self.run(spec, data)
            results.append(result)
            new_state = update(result, state)
            if converged is not None and converged(state, new_state):
                state = new_state
                break
            state = new_state
        return state, results

    # -- incremental delta execution -------------------------------------------

    def run_baseline(
        self,
        spec: "ReductionSpec | None" = None,
        data: Any = None,
        *,
        bound: Any = None,
        ro_layout: Any = None,
        finalize: "Callable[[ReductionObject], Any] | None" = None,
        checkpoint_capacity: int = 8,
        shm_key: str | None = None,
    ) -> tuple[ReductionResult, DeltaSession]:
        """Run a full pass and open a :class:`DeltaSession` over its result.

        Two calling conventions:

        * **compiled** — pass ``bound`` (a
          :class:`~repro.compiler.translate.BoundReduction`) plus
          ``ro_layout`` (and optionally ``finalize``); the engine builds the
          spec itself and later delta passes ride the full executor
          pipeline, including process workers over shared memory.
        * **manual** — pass ``spec`` and ``data`` (a sized sequence or
          numpy array); delta passes are computed with a parent-side
          serial walk of only the changed element ranges.

        The returned session owns the committed reduction object; feed it
        to :meth:`run_delta` to apply O(|Δ|) appends/retracts, and use
        ``session.ro_at(epoch)`` for ring-bounded historical snapshots.
        """
        if self._closed:
            raise FreerideError("engine is closed; create a new FreerideEngine")
        if bound is not None:
            if spec is not None or data is not None:
                raise FreerideError(
                    "run_baseline takes either (bound=, ro_layout=) or "
                    "(spec, data), not both"
                )
            if ro_layout is None:
                raise FreerideError("run_baseline(bound=...) requires ro_layout=")
            layout = [(int(n), str(op)) for n, op in ro_layout]
            key = shm_key or f"delta-session-{next(_DELTA_SESSION_IDS)}"

            def respec(
                session: DeltaSession, delta_range: "tuple[int, int] | None"
            ) -> tuple[ReductionSpec, Any]:
                spec2, idx = bound.make_spec(
                    layout, finalize=None, delta_range=delta_range
                )
                if spec2.kernel_spec is not None:
                    spec2.kernel_spec.shm_session = session.shm_key
                return spec2, idx

            def extend(session: DeltaSession, batch: Any) -> int:
                return bound.append_elements(batch)

            def shrink(session: DeltaSession, n_elements: int) -> None:
                bound.truncate_elements(n_elements)

            base_spec, base_idx = bound.make_spec(layout, finalize=finalize)
            if base_spec.kernel_spec is not None:
                # session-keyed from the start, so the very first delta's
                # shared-memory publish is already tail-only
                base_spec.kernel_spec.shm_session = key
            result = self.run(base_spec, base_idx)
            n = int(bound.n_elements)
            session = DeltaSession(
                ro=result.ro,
                n_elements=n,
                live=np.ones(n, dtype=bool),
                epoch=0,
                checkpoints=ROCheckpoint(checkpoint_capacity),
                respec=respec,
                extend=extend,
                shrink=shrink,
                finalize=finalize,
                shm_key=key,
                compiled=True,
            )
            return result, session

        if spec is None or data is None:
            raise FreerideError(
                "run_baseline requires either bound= and ro_layout= "
                "(compiled) or spec and data (manual)"
            )

        def respec_manual(
            session: DeltaSession, delta_range: "tuple[int, int] | None"
        ) -> tuple[ReductionSpec, Any]:
            ranges = spec.slice_ranges(session.data)
            return replace(spec, reduce_ranges=ranges), session.data

        def extend_manual(session: DeltaSession, batch: Any) -> int:
            if isinstance(session.data, np.ndarray):
                session.data = np.concatenate(
                    [session.data, np.asarray(batch, dtype=session.data.dtype)]
                )
            else:
                session.data = list(session.data) + list(batch)
            return len(session.data)

        def shrink_manual(session: DeltaSession, n_elements: int) -> None:
            session.data = session.data[:n_elements]

        result = self.run(spec, data)
        n = len(data)
        session = DeltaSession(
            ro=result.ro,
            n_elements=n,
            live=np.ones(n, dtype=bool),
            epoch=0,
            checkpoints=ROCheckpoint(checkpoint_capacity),
            respec=respec_manual,
            extend=extend_manual,
            shrink=shrink_manual,
            data=data,
            finalize=spec.finalize,
            compiled=False,
        )
        return result, session

    def run_delta(
        self,
        session: DeltaSession,
        *,
        append: Any = None,
        retract: Any = None,
    ) -> ReductionResult:
        """Apply one delta epoch to a baseline session in O(|Δ|).

        ``append`` adds elements after the current end of the dataset (a
        batch in whatever form the session's dataset takes — appended rows
        for a compiled session, new elements for a manual one); ``retract``
        tombstones existing live positions.  The committed result is
        bit-identical to a cold full run over the surviving elements at
        their original positions — appends fold the tail in order,
        invertible (``add``) groups subtract the retracted contributions,
        and non-invertible (min/max) groups are re-reduced from the live
        elements whose effect-summary footprint intersects them.

        The commit is checkpointed: every group's pre-image is saved once
        per epoch before it is mutated, so a failure mid-commit (including
        one injected at :data:`DELTA_COMMIT_SPLIT_ID`) rolls the reduction
        object, dataset length and liveness back to the previous epoch in
        O(groups touched) and re-raises.  Sealed epochs stay in the
        session's checkpoint ring for ``session.ro_at(epoch)`` queries.
        """
        if self._closed:
            raise FreerideError("engine is closed; create a new FreerideEngine")
        if not isinstance(session, DeltaSession):
            raise FreerideError("run_delta requires the DeltaSession from run_baseline")
        if append is None and retract is None:
            raise FreerideError("run_delta needs append=... and/or retract=...")
        retract_idx = session.normalize_retract(retract)
        if append is None and retract_idx.size == 0:
            raise FreerideError("run_delta called with an empty delta")
        epoch = session.epoch + 1
        n_old = session.n_elements
        old_live = session.live_count
        old_updates = session.ro.update_count
        tracer = self.tracer if self.tracer is not None else get_tracer()
        cp = session.checkpoints
        saves0, hits0 = cp.saves, cp.hits
        new_n = n_old
        appended = 0
        delta_ro: ReductionObject | None = None
        stats: RunStats | None = None
        with tracer.span(
            "delta.apply",
            cat="delta",
            epoch=epoch,
            retracted=int(retract_idx.size),
            executor=self.executor,
        ) as span:
            try:
                if append is not None:
                    new_n = session.extend(session, append)
                    appended = new_n - n_old
                    if appended <= 0:
                        raise FreerideError(
                            "append batch added no elements (use retract= "
                            "alone for pure retraction)"
                        )
                    if session.compiled:
                        # the appended tail rides the full executor pipeline
                        # (threads / process workers, technique selection,
                        # fault tolerance) as a run over [n_old, new_n)
                        spec2, idx2 = session.respec(session, (n_old, new_n))
                        append_result = self.run(spec2, idx2)
                        delta_ro = append_result.ro
                        stats = append_result.stats
                spec_full, _ = session.respec(session, None)
                if delta_ro is None and appended:
                    delta_ro = _reduce_ranges(
                        spec_full, session.ro,
                        np.array([n_old], dtype=np.int64),
                        np.array([new_n], dtype=np.int64),
                    )
                kernel_calls = int(appended > 0)

                # -- retract compute (never mutates the committed object) ------
                noninv = session.noninvertible
                scratch_r: ReductionObject | None = None
                ret_touched: frozenset[int] = frozenset()
                retract_runs = 0
                if retract_idx.size:
                    starts, ends = contiguous_runs(retract_idx)
                    retract_runs = int(starts.size)
                    scratch_r = _reduce_ranges(spec_full, session.ro, starts, ends)
                    kernel_calls += 1
                    ret_touched = scratch_r.touched_groups()
                replay_groups = sorted(ret_touched & noninv)

                # -- replay compute: re-reduce only the survivors inside the
                # blocks whose effect-summary footprint can reach a replayed
                # group ---------------------------------------------------------
                session.advance_liveness(new_n, retract_idx)
                scratch_p: ReductionObject | None = None
                replay_elements = replay_runs = planner_probes = 0
                if replay_groups:
                    # a hand-written spec's hook answers no range question:
                    # every survivor is replayed
                    bounds = spec_full.group_bounds
                    reaching = getattr(bounds, "blocks_reaching", None)
                    probes0 = getattr(bounds, "evaluations", 0)
                    blocks = (
                        reaching(
                            frozenset(replay_groups), new_n, session.ro.num_groups
                        )
                        if reaching is not None
                        else [(0, new_n)]
                    )
                    planner_probes = getattr(bounds, "evaluations", 0) - probes0
                    starts, ends = session.live_runs(blocks)
                    replay_runs = int(starts.size)
                    replay_elements = int((ends - starts).sum())
                    scratch_p = _reduce_ranges(spec_full, session.ro, starts, ends)
                    kernel_calls += 1

                # -- checkpointed per-group commit -----------------------------
                cp.begin(epoch, session.ro, n_elements=n_old, live_count=old_live)
                attempt = session.commit_attempts.get(epoch, 0) + 1
                session.commit_attempts[epoch] = attempt
                try:
                    if delta_ro is not None:
                        for g in sorted(delta_ro.touched_groups()):
                            cp.save_group(session.ro, g)
                            session.ro.merge_group_from(g, delta_ro)
                    if self.fault_injector is not None:
                        # mid-commit seam: appended groups are already merged,
                        # retracts are not — a fault here must roll back
                        self.fault_injector.inject(DELTA_COMMIT_SPLIT_ID, attempt)
                    if scratch_r is not None:
                        for g in sorted(ret_touched):
                            if g in noninv:
                                continue
                            cp.save_group(session.ro, g)
                            session.ro.retract_group(g, scratch_r)
                    if scratch_p is not None:
                        for g in replay_groups:
                            cp.save_group(session.ro, g)
                            session.ro.reset_group(g)
                            session.ro.merge_group_from(g, scratch_p)
                    session.ro.update_count = (
                        old_updates
                        + (delta_ro.update_count if delta_ro is not None else 0)
                        - (scratch_r.update_count if scratch_r is not None else 0)
                    )
                    cp.commit()
                except BaseException:
                    cp.rollback(session.ro)
                    session.rollbacks += 1
                    span.set(rolled_back=True)
                    raise
            except BaseException:
                session.rewind_liveness(n_old, old_live, retract_idx)
                if new_n != n_old:
                    session.shrink(session, n_old)
                raise

            session.n_elements = new_n
            session.epoch = epoch
            session.commit_attempts.pop(epoch, None)

            if stats is None:
                initial = self.technique or SharedMemTechnique.FULL_REPLICATION
                stats = RunStats(
                    num_threads=self.num_threads,
                    num_nodes=self.num_nodes,
                    executor=self.executor,
                    technique=initial,
                    technique_requested=self.technique_requested,
                    technique_effective=initial,
                )
            stats.delta_epoch = epoch
            stats.delta_mode = (
                "append+retract"
                if appended and retract_idx.size
                else ("append" if appended else "retract")
            )
            stats.delta_appended = appended
            stats.delta_retracted = int(retract_idx.size)
            stats.delta_groups_replayed = len(replay_groups)
            stats.delta_replay_elements = replay_elements
            stats.delta_checkpoint_saves = cp.saves - saves0
            stats.delta_checkpoint_hits = cp.hits - hits0
            stats.ro_updates = session.ro.update_count
            stats.ro_size = session.ro.size
            span.set(
                appended=appended,
                groups_replayed=len(replay_groups),
                replay_elements=replay_elements,
                checkpoint_saves=stats.delta_checkpoint_saves,
                checkpoint_hits=stats.delta_checkpoint_hits,
                epochs_retained=len(cp.epochs()),
                retract_runs=retract_runs,
                replay_runs=replay_runs,
                kernel_calls=kernel_calls,
                planner_probes=planner_probes,
            )

        value: Any = (
            session.finalize(session.ro)
            if session.finalize is not None
            else session.ro
        )
        return ReductionResult(value=value, ro=session.ro, stats=stats)

    # -- one node's local pipeline ---------------------------------------------

    def _run_node(
        self,
        spec: ReductionSpec,
        data: Any,
        stats: RunStats,
        tracer: "Tracer | NullTracer",
        metrics: MetricsRegistry | None,
        node: int,
        profile_ctx: "dict[str, Any] | None" = None,
    ) -> tuple[ReductionObject, SharedMemStats, CombinationStats]:
        ro = spec.build_reduction_object()

        # Splits before the shared-memory manager: technique resolution
        # (auto selection, colored wave layout) needs the split list.
        alignment_used: int | None = None
        if self.splitter is not None:
            splits = self.splitter(data, self.num_threads)
            _validate_custom_splits(splits, data)
        elif self.chunk_size is not None:
            splits = chunked_splitter(data, self.chunk_size)
        else:
            alignment_used = self._wave_alignment(spec)
            if alignment_used is not None:
                splits = aligned_splits(data, self.num_threads, alignment_used)
            else:
                splits = default_splitter(data, self.num_threads)
        if node == 0:
            stats.split_alignment = alignment_used
        if profile_ctx is not None and node == 0:
            profile_ctx["split_ranges"] = [(s.start, s.end) for s in splits]

        ctx = RunContext(
            spec=spec, splits=splits, base_ro=ro, stats=stats, tracer=tracer,
            metrics=metrics, node=node, executor=self.executor,
            num_threads=self.num_threads, num_nodes=self.num_nodes,
            policy=self.fault_policy
            or (FaultPolicy() if self.fault_injector is not None else None),
            injector=self.fault_injector, profile_ctx=profile_ctx,
        )
        technique, coloring = self._resolve_technique(ctx)
        mgr = SharedMemManager(technique)
        ctx.schedule(
            mgr.setup(ro, self.num_threads),
            coloring,
            self._observation(ctx, technique, coloring),
        )
        drive(ctx, self)
        obs = ctx.observation
        if obs is not None:
            assert profile_ctx is not None
            profile_ctx["footprints"] = obs.footprints
            profile_ctx["footprint_conflicts"] = obs.conflicts
            if obs.conflicts and tracer.enabled:
                tracer.event(
                    "profile.footprint_conflict", cat="engine", node=node,
                    conflicts=obs.conflicts,
                )

        elems, nsplits = ctx.elems, ctx.nsplits
        stats.total_elements += sum(elems)
        if not stats.elements_per_thread:
            stats.elements_per_thread = elems
            stats.splits_per_thread = nsplits
        else:
            stats.elements_per_thread = [
                a + b for a, b in zip(stats.elements_per_thread, elems)
            ]
            stats.splits_per_thread = [
                a + b for a, b in zip(stats.splits_per_thread, nsplits)
            ]

        # Local combination — mgr.finish is the single accounting path, so
        # num_locks / ro_memory_bytes / merge_elements are always reported.
        with tracer.span(
            "local_combination", cat="combination", node=node,
            technique=technique.value,
        ) as span:
            ro, sm_stats, lc_stats = mgr.finish(
                ro,
                ctx.accessors,
                combination=spec.combination,
                parallel_merge_threshold=self.parallel_merge_threshold,
            )
            span.set(
                strategy=lc_stats.strategy,
                merges=lc_stats.merges,
                rounds=lc_stats.rounds,
                elements_merged=lc_stats.elements_merged,
            )
        return ro, sm_stats, lc_stats

    def _wave_alignment(self, spec: ReductionSpec) -> int | None:
        """Split-boundary alignment from the effect analysis, if applicable.

        Only the default splitter under a coloring-capable technique
        (``colored`` or ``auto`` on an in-process executor) snaps
        boundaries: the alignment is the element-period of the kernel's
        ``elemIdx()``-derived group forms, and honoring it keeps per-split
        footprints disjoint so waves color wide.
        """
        if self.executor == "process":
            return None
        if not (
            self.technique is None
            or self.technique is SharedMemTechnique.COLORED
        ):
            return None
        gb = getattr(spec, "group_bounds", None)
        if gb is None or callable(gb):
            return None
        alignment = getattr(gb, "alignment", None)
        if not isinstance(alignment, int) or alignment <= 1:
            return None
        return alignment

    # -- technique resolution (auto selection + colored wave layout) -----------

    def _resolve_technique(
        self, ctx: RunContext
    ) -> "tuple[SharedMemTechnique, Any]":
        """The technique this node's pipeline actually runs, plus its wave
        schedule (a :class:`~repro.freeride.coloring.SplitColoring`, or
        ``None`` for every non-colored technique).

        Explicit requests pass through untouched except ``"colored"``, which
        degrades to full replication — with the reason recorded — when no
        exact group bounds exist.  ``"auto"`` delegates to
        :meth:`_auto_select`.  Node 0 stamps the run stats (multi-node runs
        see the same spec, so the per-node choice only differs in degenerate
        splitter setups, and the paper's model is one technique per run).

        With a profile store attached and a coloring-capable request
        (``"auto"`` or ``"colored"``), persisted history joins the inputs:
        observed footprints become the coloring's ``source="profile"`` tier
        and past lock-contention outcomes feed the ``auto`` heuristic.
        """
        spec, splits, ro, stats = ctx.spec, ctx.splits, ctx.base_ro, ctx.stats
        tracer, node, profile_ctx = ctx.tracer, ctx.node, ctx.profile_ctx
        decision: dict[str, Any] | None = None
        coloring = None
        profiled = history = profile_key = None
        if (
            profile_ctx is not None
            and profile_ctx.get("digest") is not None
            and (
                self.technique is None
                or self.technique is SharedMemTechnique.COLORED
            )
        ):
            profiled, history, profile_key = self._profile_plan(ctx)
        if self.technique is None:  # "auto"
            chosen, coloring, decision = self._auto_select(
                spec, splits, ro,
                profiled=profiled, history=history, profile_key=profile_key,
            )
        elif self.technique is SharedMemTechnique.COLORED:
            coloring = self._try_coloring(spec, splits, ro, profiled=profiled)
            if coloring is None:
                chosen = SharedMemTechnique.FULL_REPLICATION
                decision = {
                    "requested": self.technique_requested,
                    "chosen": chosen.value,
                    "reason": (
                        "colored requires an exact plan-time group set for "
                        "every split (spec.group_bounds hook or compiler "
                        "bounds); none were available — falling back to "
                        "full replication"
                    ),
                    "inputs": self._decision_inputs(splits, ro, None),
                }
            else:
                chosen = SharedMemTechnique.COLORED
                if coloring.source == "profile":
                    decision = {
                        "requested": self.technique_requested,
                        "chosen": chosen.value,
                        "reason": (
                            "static bounds color at best serial waves, but "
                            "the profile store holds observed footprints "
                            "for this program and split layout — coloring "
                            "wider from profiled footprints"
                        ),
                        "inputs": self._decision_inputs(splits, ro, coloring),
                        "source": "profiled",
                        "profile_key": profile_key,
                    }
        else:
            chosen = self.technique
        if node == 0:
            stats.technique = chosen
            stats.technique_effective = chosen
            stats.sharedmem.technique = chosen
            stats.technique_decision = decision
            stats.coloring = coloring.as_dict() if coloring is not None else None
        if decision is not None and tracer.enabled:
            extra: dict[str, Any] = {}
            if "source" in decision:
                extra["source"] = decision["source"]
            if decision.get("profile_key") is not None:
                extra["profile_key"] = decision["profile_key"]
            tracer.event(
                "technique.decision", cat="engine", node=node,
                requested=decision["requested"], chosen=decision["chosen"],
                reason=decision["reason"], **extra, **decision["inputs"],
            )
        return chosen, coloring

    def _auto_select(
        self,
        spec: ReductionSpec,
        splits: "list[Split]",
        ro: ReductionObject,
        profiled: "dict[tuple[int, int], frozenset[int]] | None" = None,
        history: "list[dict[str, Any]] | None" = None,
        profile_key: "dict[str, str] | None" = None,
    ) -> "tuple[SharedMemTechnique, Any, dict[str, Any]]":
        """Heuristic for ``technique="auto"``; returns
        ``(technique, coloring | None, decision record)``.

        In order: the process executor can only replicate (coerce, honestly
        recorded); genuinely parallel colored waves beat everything (single
        RO, zero locks, no replica merges); an over-budget replication
        footprint forces a single-copy technique — colored if the previous
        traced run (or, failing that, persisted store history) showed real
        lock contention, else cache-sensitive locking; small reduction
        objects default to full replication, the paper's fastest technique
        when memory allows.

        The decision record carries ``source`` — ``"static"`` when only the
        cold-start heuristic spoke, ``"profiled"`` when store history
        (observed footprints or persisted contention) decided the outcome.
        """
        coloring = (
            None
            if self.executor == "process"
            else self._try_coloring(spec, splits, ro, profiled=profiled)
        )
        inputs = self._decision_inputs(splits, ro, coloring)
        source = "static"
        if self.executor == "process":
            chosen = SharedMemTechnique.FULL_REPLICATION
            reason = (
                "process executor supports only full_replication; coercing"
            )
        elif coloring is not None and coloring.max_wave_width >= 2:
            chosen = SharedMemTechnique.COLORED
            if coloring.source == "profile":
                source = "profiled"
                reason = (
                    "observed footprints from the profile store color this "
                    "split layout into parallel lock-free waves "
                    f"(max wave width {coloring.max_wave_width})"
                )
            else:
                reason = (
                    "exact group bounds admit parallel lock-free waves "
                    f"(max wave width {coloring.max_wave_width})"
                )
        elif inputs["replication_bytes"] > REPLICATION_BUDGET_BYTES:
            contention = self._last_lock_contention
            contention_source = "session"
            if contention is None and history:
                means = [
                    r["lock_contention_mean"]
                    for r in history
                    if isinstance(r.get("lock_contention_mean"), (int, float))
                ]
                if means:
                    contention = sum(means) / len(means)
                    contention_source = "profile"
                    inputs["lock_contention_mean"] = contention
            if (
                coloring is not None
                and contention is not None
                and contention > CONTENTION_FEEDBACK_THRESHOLD
            ):
                chosen = SharedMemTechnique.COLORED
                if contention_source == "profile" or coloring.source == "profile":
                    source = "profiled"
                witness = (
                    "persisted run history"
                    if contention_source == "profile"
                    else "the previous traced run"
                )
                reason = (
                    f"replication is over the memory budget and {witness} "
                    f"averaged {contention:.1f} lock acquisitions per "
                    "split; serialized colored waves avoid both"
                )
            else:
                chosen = SharedMemTechnique.CACHE_SENSITIVE_LOCKING
                reason = (
                    "replicating the reduction object "
                    f"({inputs['replication_bytes']} bytes across "
                    f"{self.num_threads} threads) exceeds the "
                    f"{REPLICATION_BUDGET_BYTES}-byte budget"
                )
        else:
            chosen = SharedMemTechnique.FULL_REPLICATION
            reason = "reduction object is small enough to replicate per thread"
        if chosen is not SharedMemTechnique.COLORED:
            coloring = None
        decision = {
            "requested": "auto",
            "chosen": chosen.value,
            "reason": reason,
            "inputs": inputs,
            "source": source,
        }
        if profile_key is not None:
            decision["profile_key"] = profile_key
        return chosen, coloring, decision

    @staticmethod
    def _try_coloring(
        spec: ReductionSpec,
        splits: "list[Split]",
        ro: ReductionObject,
        profiled: "dict[tuple[int, int], frozenset[int]] | None" = None,
    ) -> Any:
        """A wave schedule for these splits, or ``None`` if bounds are inexact.

        When a profiled footprint map is supplied, the profiled schedule is
        preferred over the static one only when it colors strictly *wider*
        waves: a conservative static bound (histogram's "any split may
        touch any bin") is exact but degenerates to one split per wave,
        and the observed footprints are exactly what recovers the lost
        parallelism.  A static schedule that already colors wide keeps its
        proof — profiled sets are predictions, never preferred on a tie.
        """
        # imported lazily: coloring pulls in the compiler's bounds analysis,
        # and the freeride package must stay importable without the compiler
        from repro.freeride.coloring import color_splits, resolve_group_sets

        group_sets, source = resolve_group_sets(spec, splits, ro.num_groups)
        coloring = (
            color_splits(group_sets, source=source)
            if group_sets is not None
            else None
        )
        if profiled is not None:
            # spec=None skips the static tiers: only the profiled map speaks
            prof_sets, prof_source = resolve_group_sets(
                None, splits, ro.num_groups, profiled=profiled
            )
            if prof_sets is not None:
                prof_coloring = color_splits(prof_sets, source=prof_source)
                if (
                    coloring is None
                    or prof_coloring.max_wave_width > coloring.max_wave_width
                ):
                    coloring = prof_coloring
        return coloring

    def _decision_inputs(
        self, splits: "list[Split]", ro: ReductionObject, coloring: Any
    ) -> dict[str, Any]:
        """Every signal the ``auto`` heuristic reads, recorded verbatim so a
        decision can be replayed from its stats alone."""
        return {
            "ro_bytes": ro.nbytes,
            "num_groups": ro.num_groups,
            "num_threads": self.num_threads,
            "num_splits": len(splits),
            "executor": self.executor,
            "colorable": coloring is not None,
            "max_wave_width": (
                coloring.max_wave_width if coloring is not None else 0
            ),
            "replication_bytes": ro.nbytes * self.num_threads,
            "replication_budget": REPLICATION_BUDGET_BYTES,
            "lock_contention_mean": self._last_lock_contention,
        }

    # -- profile store integration (plan-time only, never the hot path) --------

    def _profile_plan(
        self, ctx: RunContext
    ) -> "tuple[dict | None, list[dict[str, Any]] | None, dict[str, str]]":
        """Store history for this run's ``(digest, layout, shape)`` key.

        Returns ``(profiled footprint map, history records, profile key)``.
        The footprint map is only fetched when this run could actually
        execute a profile-colored schedule (:attr:`RunContext.plain`);
        history is only read for ``"auto"`` requests, which are the sole
        consumer.  Both are plan-time reads — nothing here runs per split.
        """
        store = self.profile_store
        splits, profile_ctx = ctx.splits, ctx.profile_ctx
        assert store is not None and profile_ctx is not None
        digest: str = profile_ctx["digest"]
        ranges = [(s.start, s.end) for s in splits]
        fingerprint = split_layout_fingerprint(ranges)
        shape = shape_class(sum(len(s) for s in splits), self.num_threads)
        profile_key = {
            "digest": digest,
            "split_fingerprint": fingerprint,
            "shape_class": shape,
        }
        profile_ctx.setdefault("profile_key", profile_key)
        profiled = None
        if ctx.plain:
            profiled = self._footprint_cache.get((digest, fingerprint))
            if profiled is None:
                profiled = store.latest_footprints(digest, fingerprint)
                if profiled is not None:
                    self._footprint_cache[(digest, fingerprint)] = profiled
        history = None
        if self.technique is None:  # only "auto" consumes history
            history = store.history(digest, shape)
        return profiled, history, profile_key

    def _observation(
        self, ctx: RunContext, technique: SharedMemTechnique, coloring: Any
    ) -> "Observation | None":
        """Decide whether this run observes per-split group footprints.

        Footprints are observed in exactly two situations: (a) the run is
        executing full replication and no static tier colors the kernel
        into *parallel* waves — the histogram shape, where only
        observation can ever widen the schedule — or (b) the run is
        already profile-colored, so re-recording keeps the stored
        footprints fresh (self-healing after a data change).  Observation
        is gated to :attr:`RunContext.plain` runs with a store attached:
        the process executor, fault machinery and multi-node runs keep
        their existing execution byte-for-byte.
        """
        profile_ctx, splits = ctx.profile_ctx, ctx.splits
        if (
            profile_ctx is None
            or not ctx.plain
            or profile_ctx.get("digest") is None
        ):
            return None
        profile_colored = coloring is not None and coloring.source == "profile"
        if not profile_colored:
            if technique is SharedMemTechnique.COLORED:
                # a degenerate colored schedule executes one split at a
                # time, so scratch observation is race-free; a statically
                # wide schedule never needs profiling
                if coloring is not None and coloring.max_wave_width >= 2:
                    return None
            elif technique is not SharedMemTechnique.FULL_REPLICATION:
                return None
            else:
                # only observe kernels whose static schedule is serial (or
                # absent) — a statically wide coloring never needs profiling
                static = self._try_coloring(ctx.spec, splits, ctx.base_ro)
                if static is not None and static.max_wave_width >= 2:
                    return None
        return Observation(
            # zero-length splits never execute; their footprint is empty
            footprints={
                (s.start, s.end): frozenset() for s in splits if len(s) == 0
            },
            predicted=(
                {s.split_id: coloring.group_sets[i] for i, s in enumerate(splits)}
                if profile_colored
                else None
            ),
            # profiled footprints are predictions, not proofs: commits of
            # profile-colored splits are serialized on this single lock so
            # a stale footprint can cost time but never correctness
            commit_lock=threading.Lock() if profile_colored else None,
        )

    def _append_profile(
        self, spec: ReductionSpec, stats: RunStats,
        profile_ctx: "dict[str, Any]",
    ) -> None:
        """Record one :class:`RunProfile` for the finished run.

        One record per :meth:`run` call — process-executor runs fold their
        workers' split durations into this single record rather than
        appending per worker.  Store I/O failures degrade to a warning:
        profiling must never fail a computation that already succeeded.
        """
        try:
            kspec = spec.kernel_spec
            digest = profile_ctx.get("digest")
            ranges = profile_ctx.get("split_ranges") or []
            fingerprint = split_layout_fingerprint(ranges) if ranges else None
            durations = profile_ctx.get("worker_durations")
            split_seconds = summarize_durations(durations) if durations else None
            contention_mean = None
            hists = stats.metrics.get("histograms", {}) if stats.metrics else {}
            if split_seconds is None:
                snap = hists.get("engine.split_seconds")
                if snap and snap.get("count"):
                    split_seconds = {
                        "count": snap["count"],
                        "mean": snap["mean"],
                        "p50": None,
                        "p95": None,
                        "max": snap["max"],
                    }
            csnap = hists.get("ro.lock_acquisitions_per_split")
            if csnap and csnap.get("count"):
                contention_mean = csnap["mean"]
            footprints = None
            observed = profile_ctx.get("footprints")
            if observed is not None and ranges:
                complete = all((a, b) in observed for a, b in ranges)
                cells = sum(len(g) for g in observed.values())
                if complete and cells <= MAX_FOOTPRINT_CELLS:
                    footprints = [
                        [a, b, sorted(observed[(a, b)])] for a, b in ranges
                    ]
                    if digest is not None and fingerprint is not None:
                        self._footprint_cache[(digest, fingerprint)] = {
                            (a, b): frozenset(observed[(a, b)])
                            for a, b in ranges
                        }
            decision = stats.technique_decision
            faults = {
                key: value
                for key in (
                    "retries", "failed_splits", "injected_faults",
                    "requeues", "timeouts",
                )
                if (value := getattr(stats, key))
            }
            native_cache = None
            if kspec is not None and kspec.native_disk_hit is not None:
                native_cache = {
                    "hits": int(kspec.native_disk_hit),
                    "misses": int(not kspec.native_disk_hit),
                }
            profile = RunProfile(
                digest=digest,
                spec_name=spec.name,
                shape_class=shape_class(
                    stats.total_elements, self.num_threads
                ),
                split_fingerprint=fingerprint,
                opt_level=kspec.opt_level if kspec is not None else None,
                backend=kspec.backend if kspec is not None else None,
                effective_backend=(
                    kspec.effective_backend if kspec is not None else None
                ),
                executor=self.executor,
                workers=self.num_threads,
                num_nodes=self.num_nodes,
                n_elements=stats.total_elements,
                num_splits=len(ranges),
                split_alignment=stats.split_alignment,
                technique_requested=stats.technique_requested,
                technique_effective=stats.technique_effective.value,
                decision=(
                    {
                        "chosen": decision["chosen"],
                        "reason": decision["reason"],
                        "source": decision.get("source", "static"),
                    }
                    if decision is not None
                    else None
                ),
                coloring=stats.coloring,
                wall_seconds=time.perf_counter() - profile_ctx["wall_start"],
                phase_seconds=dict(stats.phase_seconds),
                split_seconds=split_seconds,
                lock_acquisitions=stats.sharedmem.lock_acquisitions,
                lock_contention_mean=contention_mean,
                kernel_cache_hits=stats.kernel_cache_hits,
                kernel_cache_evictions=stats.kernel_cache_evictions,
                native_cache=native_cache,
                faults=faults,
                footprints=footprints,
            )
            assert self.profile_store is not None
            self.profile_store.append(profile)
        except OSError as exc:
            import warnings

            warnings.warn(
                f"profile store append failed: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
