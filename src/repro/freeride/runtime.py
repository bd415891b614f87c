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
next), perform the local combination (per shared-memory technique), and
finalize.  The engine runs one node, as the paper measures.

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
copy (full replication) or applied group-by-group under the lock stripe
(cache-sensitive locking) — so a failed or retried attempt never leaves partial
accumulations behind and no element is ever double counted.

Three neighbours hold what is not the loop: :mod:`repro.freeride.plan`
decides a run's pass before it starts (splits, technique, wave schedule)
and hands back an ``ExecutionPlan``;
:mod:`repro.freeride.execute` is the split loop itself — attempt, settle,
and the drive over waves × lanes that all three executors share; and
:mod:`repro.freeride.delta` walks a delta epoch over the session it
mutates.  What is left here is the engine's lifecycle and
``run`` = plan → drive → local combination → finalize.
"""

from __future__ import annotations

import itertools
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.freeride.combination import CombinationStats
from repro.freeride.delta import (
    DELTA_COMMIT_SPLIT_ID,
    DeltaSession,
    ManualDataset,
    ROCheckpoint,
)
from repro.freeride.execute import RunContext, drive
from repro.freeride.faults import FaultInjector, FaultPolicy, SplitFailureRecord
from repro.freeride.plan import REPLICATION_BUDGET_BYTES, PlanCache
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import (
    ReplicaPool,
    SharedBufferCache,
    SharedMemManager,
    SharedMemStats,
    SharedMemTechnique,
)
from repro.freeride.spec import ReductionSpec
from repro.freeride.splitter import Split
from repro.obs.profilestore import ProfileStore, record_run, resolve_store
from repro.obs.tracer import NullTracer, Tracer, get_tracer
from repro.util.errors import FaultToleranceError, FreerideError
from repro.util.timing import PhaseTimer
from repro.util.validation import check_one_of, check_positive_int

__all__ = [
    "RunStats",
    "ReductionResult",
    "FreerideEngine",
    "REPLICATION_BUDGET_BYTES",
    "DELTA_COMMIT_SPLIT_ID",
]

#: distinct shared-memory session keys for delta sessions of one process
_DELTA_SESSION_IDS = itertools.count()

#: one manager per technique: a manager holds nothing but its technique
_MANAGERS = {t: SharedMemManager(t) for t in SharedMemTechnique}


def _check_process_technique(technique: "SharedMemTechnique | None") -> None:
    """The process executor replicates or refuses: checked at construction
    and again at every run, so an engine whose ``.technique`` was mutated
    after init fails loudly instead of running full replication while
    stamping the stats with the technique it did *not* use."""
    if technique is not None and technique is not SharedMemTechnique.FULL_REPLICATION:
        raise FreerideError(
            "the process executor supports only the full_replication "
            f"technique (got {technique.value!r}): a lock table cannot guard "
            "one reduction object across address spaces (and colored waves "
            "cannot barrier them); use technique='full_replication' or 'auto'"
        )


@dataclass
class RunStats:
    """Everything a run observed; the cost model consumes these counters."""

    num_threads: int = 1
    executor: str = "serial"
    #: what the caller asked for: a technique value or ``"auto"``
    technique_requested: str = SharedMemTechnique.FULL_REPLICATION.value
    #: the technique the run actually executed (never the request — a
    #: coerced or fallen-back run reports what really happened)
    technique_effective: SharedMemTechnique = SharedMemTechnique.FULL_REPLICATION
    #: why the effective technique differs from the request (``auto``
    #: selection or colored fallback): ``{requested, chosen, reason,
    #: inputs}``; ``None`` when the request was honored verbatim
    technique_decision: dict[str, Any] | None = None
    #: wave-schedule summary when the run executed colored
    #: (:meth:`repro.freeride.coloring.SplitColoring.as_dict`), else ``None``
    coloring: dict[str, Any] | None = None
    #: element alignment the default splitter snapped split boundaries to
    #: (the effect summary's ``alignment`` wave hint); ``None`` when the run
    #: used unaligned splits
    split_alignment: int | None = None
    total_elements: int = 0
    elements_per_thread: list[int] = field(default_factory=list)
    splits_per_thread: list[int] = field(default_factory=list)
    ro_updates: int = 0
    ro_size: int = 0
    sharedmem: SharedMemStats = field(default_factory=SharedMemStats)
    local_combination: CombinationStats = field(default_factory=CombinationStats)
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
    #: per-split attempt counts
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
    #: groups a checkpoint save named whose pre-image was already taken
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

    The finalizer releases without waiting: garbage collection may run it
    on any thread, even one inside ``threading``'s own bookkeeping (a new
    thread's start holds the lock that joining a pool worker takes), where
    a join deadlocks.  The pools' threads then finish on their own, and
    ``concurrent.futures`` joins them at interpreter exit.  ``close()``
    waits.
    """

    __slots__ = ("team", "thread_pool", "process_pool", "segments", "replicas")

    def __init__(self) -> None:
        #: the lane team of batched native waves (``ReductionSpec.lane_wave``
        #: makes it on the first; it needs the compiler, this module may not)
        self.team: Any = None
        self.thread_pool: ThreadPoolExecutor | None = None
        self.process_pool: ProcessPoolExecutor | None = None
        #: shared-memory copies of published datasets (process executor)
        self.segments = SharedBufferCache()
        #: emptied full-replication replicas, for the next run of a layout
        self.replicas = ReplicaPool()

    def release(self, wait: bool = True) -> None:
        if self.team is not None:
            self.team.close()
            self.team = None
        if self.thread_pool is not None:
            self.thread_pool.shutdown(wait=wait)
            self.thread_pool = None
        if self.process_pool is not None:
            self.process_pool.shutdown(wait=wait)
            self.process_pool = None
        self.segments.close()
        self.replicas.clear()


class FreerideEngine:
    """Runs :class:`~repro.freeride.spec.ReductionSpec` applications.

    Parameters
    ----------
    num_threads:
        threads ("One thread is allocated on one CPU" in §V).
    technique:
        shared-memory technique for reduction-object updates, or ``"auto"``
        to let the engine pick one per run from the executor, the
        reduction object's size and the splits' provable group footprints
        (the run's own inputs, never an earlier run's); the choice is
        recorded in ``RunStats.technique_decision`` and as a
        ``technique.decision`` trace event.  ``"colored"`` requests
        conflict-free wave execution and falls back to full replication
        (recording why) when no exact plan-time group bounds are available.
    executor:
        ``"serial"``, ``"threads"`` or ``"process"``.  The process executor
        requires full replication and compiled reductions (specs built by
        :meth:`~repro.compiler.translate.BoundReduction.make_spec`); see
        ``docs/PERFORMANCE.md`` for how to choose.
    chunk_size:
        if given, the input is cut into fixed-size chunks pulled dynamically;
        otherwise the default splitter produces one block per thread.
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
        persistent run-history recording (:mod:`repro.obs.profilestore`).
        ``None``/``False`` (the default) disables the store entirely — zero
        store reads or writes anywhere.  ``True`` opens the default store
        (``~/.cache/repro-profiles`` or ``$REPRO_PROFILE_STORE``); a path
        opens that directory; an existing
        :class:`~repro.obs.profilestore.ProfileStore` is used as-is.  With a
        store attached, every run appends one
        :class:`~repro.obs.profilestore.RunProfile` after it finishes; the
        store is written, never read, so it changes neither the plan nor
        the result.
    """

    def __init__(
        self,
        num_threads: int = 1,
        technique: SharedMemTechnique | str = SharedMemTechnique.FULL_REPLICATION,
        executor: str = "serial",
        chunk_size: int | None = None,
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
        if self.executor == "process":
            _check_process_technique(self.technique)
        if chunk_size is not None:
            check_positive_int(chunk_size, "chunk_size")
        self.chunk_size = chunk_size
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
        # Persistent worker pools (threads or processes) plus published
        # shared-memory segments, shared by every run() of this engine.  The
        # finalizer releases them even if close() is never called.
        self._res = _EngineResources()
        self._finalizer = weakref.finalize(
            self, _EngineResources.release, self._res, False
        )
        self._closed = False
        #: the plans of compiled runs, by what planning them reads
        self._plans = PlanCache()

    # -- worker-pool lifecycle -------------------------------------------------

    @property
    def _pool(self) -> ThreadPoolExecutor | None:
        """The persistent thread pool (``None`` until the first threaded run)."""
        return self._res.thread_pool

    def _check_open(self) -> None:
        if self._closed:
            raise FreerideError("engine is closed; create a new FreerideEngine")

    def _get_pool(self) -> ThreadPoolExecutor:
        """The engine's persistent thread pool (created on first use).

        Reusing one pool across outer-sequential-loop iterations avoids
        rebuilding ``num_threads`` OS threads on every :meth:`run` call —
        the FREERIDE daemon threads live for the whole computation.
        """
        self._check_open()
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
        self._check_open()
        if self._res.process_pool is None:
            # imported lazily: only process-mode engines pay for it
            from repro.freeride.procexec import create_process_pool

            self._res.process_pool = create_process_pool(self.num_threads)
        return self._res.process_pool

    def close(self) -> None:
        """Release the worker pools, shared-memory segments, pooled replicas
        and cached plans.  Idempotent."""
        self._closed = True
        if self._finalizer.detach() is not None:
            self._res.release()
        self._plans.clear()

    def __enter__(self) -> "FreerideEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- public entry ---------------------------------------------------------

    def _new_stats(self) -> RunStats:
        """A run's ledger, stamped with the request; the run's plan restamps
        the effective technique with what the run really executes."""
        return RunStats(
            num_threads=self.num_threads,
            executor=self.executor,
            technique_requested=self.technique_requested,
            technique_effective=self.technique or SharedMemTechnique.FULL_REPLICATION,
        )

    def run(self, spec: ReductionSpec, data: Any) -> ReductionResult:
        """Execute one reduction pass over ``data``: plan → drive → local
        combination → finalize.

        A warm run reuses what an earlier run of the engine made: the plan
        of a compiled spec (:class:`~repro.freeride.plan.PlanCache`), and
        emptied full-replication replicas of the same layout
        (:class:`~repro.freeride.sharedmem.ReplicaPool`).  The reduction
        object it returns is always its own.
        """
        self._check_open()
        if self.executor == "process":
            _check_process_technique(self.technique)
        tracer = self.tracer if self.tracer is not None else get_tracer()
        timer = PhaseTimer()
        bound = spec.bound
        wall_start = time.perf_counter()
        stats = self._new_stats()
        policy = self.fault_policy or (
            FaultPolicy() if self.fault_injector is not None else None
        )
        with tracer.span(
            "engine.run",
            cat="engine",
            spec=spec.name,
            executor=self.executor,
            num_threads=self.num_threads,
            technique=self.technique_requested,
            digest=bound.compiled.request.digest if bound is not None else None,
        ) as run_span:
            with timer.phase("local"), tracer.span("local", cat="phase"):
                ro = spec.build_reduction_object()
                layout = ro.freeze_layout()
                plan = self._plans.plan(
                    spec, data, ro, layout,
                    technique=self.technique, executor=self.executor,
                    num_threads=self.num_threads, chunk_size=self.chunk_size,
                    splitter=self.splitter,
                )
                mgr = _MANAGERS[plan.technique]
                ctx = RunContext(
                    spec=spec, plan=plan, base_ro=ro,
                    lanes=mgr.setup(ro, self.num_threads, self._res.replicas),
                    stats=stats, tracer=tracer,
                    executor=self.executor, num_threads=self.num_threads,
                    policy=policy, injector=self.fault_injector,
                    split_durations=[] if self.profile_store is not None else None,
                )
                decision = plan.decision
                stats.technique_effective = plan.technique
                if decision is not None:  # the caller's copy, not the plan's
                    decision = {**decision, "inputs": dict(decision["inputs"])}
                stats.technique_decision = decision
                stats.coloring = (
                    plan.coloring.as_dict() if plan.coloring is not None else None
                )
                stats.split_alignment = plan.split_alignment
                if decision is not None and tracer.enabled:
                    tracer.event(
                        "technique.decision", cat="engine",
                        requested=decision["requested"], chosen=decision["chosen"],
                        reason=decision["reason"], **decision["inputs"],
                    )
                drive(ctx, self)

                # Local combination — mgr.finish is the single accounting
                # path: the plan's shape, plus what the lanes counted.
                with tracer.span(
                    "local_combination", cat="combination",
                    technique=plan.technique.value,
                ) as span:
                    _, stats.sharedmem, lc_stats = mgr.finish(
                        ro, ctx.lanes, plan.shape, spec.combination,
                        self._res.replicas,
                    )
                    span.set(
                        strategy=lc_stats.strategy,
                        merges=lc_stats.merges,
                        rounds=lc_stats.rounds,
                        elements_merged=lc_stats.elements_merged,
                    )
                stats.local_combination = lc_stats
                stats.total_elements = sum(ctx.elems)
                stats.elements_per_thread = ctx.elems
                stats.splits_per_thread = ctx.nsplits

            stats.ro_updates = ro.update_count
            stats.ro_size = layout.size

            with timer.phase("finalize"), tracer.span("finalize", cat="phase"):
                value: Any = spec.finalize(ro) if spec.finalize is not None else ro
            run_span.set(
                total_elements=stats.total_elements,
                ro_updates=stats.ro_updates,
                technique_effective=stats.technique_effective.value,
            )

        stats.phase_seconds = timer.as_dict()
        if self.profile_store is not None:
            record_run(
                self.profile_store, spec, stats, plan, ctx.split_durations,
                time.perf_counter() - wall_start,
            )
        return ReductionResult(value=value, ro=ro, stats=stats)

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
    ) -> tuple[ReductionResult, DeltaSession]:
        """Run a full pass and open a :class:`DeltaSession` over its result.

        Two calling conventions:

        * **compiled** — pass ``bound`` (a
          :class:`~repro.compiler.translate.BoundReduction`) plus
          ``ro_layout`` (and optionally ``finalize``); the engine builds the
          spec itself.
        * **manual** — pass ``spec`` and ``data`` (a sized sequence or
          numpy array).

        Either way the baseline is a full run on this engine's executor,
        and every later delta is a parent-side in-order walk of only the
        changed element ranges (see :meth:`run_delta`).

        The returned session owns the committed reduction object; feed it
        to :meth:`run_delta` to apply O(|Δ|) appends/retracts, and use
        ``session.ro_at(epoch)`` for ring-bounded historical snapshots.
        """
        self._check_open()
        if bound is not None:
            if spec is not None or data is not None:
                raise FreerideError(
                    "run_baseline takes either (bound=, ro_layout=) or "
                    "(spec, data), not both"
                )
            if ro_layout is None:
                raise FreerideError("run_baseline(bound=...) requires ro_layout=")
            source: Any = bound
            layout = [(int(n), str(op)) for n, op in ro_layout]
            # session-keyed from the start, so a later full pass over the
            # grown dataset publishes only the bytes appended since this one
            bound.shm_session = f"delta-session-{next(_DELTA_SESSION_IDS)}"
            spec, data = bound.make_spec(layout, finalize=finalize)
        elif spec is None or data is None:
            raise FreerideError(
                "run_baseline requires either bound= and ro_layout= "
                "(compiled) or spec and data (manual)"
            )
        else:
            source, finalize = ManualDataset(spec, data), spec.finalize
        result = self.run(spec, data)
        session = DeltaSession(
            ro=result.ro,
            source=source,
            checkpoints=ROCheckpoint(),
            finalize=finalize,
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

        An appended tail of any size is folded in one in-order kernel call
        on the calling thread, with no engine pass, so its result is the
        same bits on every executor.  The epoch is one unit of failure:
        nothing in it is retried or skipped, whatever the fault policy.  A
        kernel error or a failure mid-commit (including one injected at
        :data:`DELTA_COMMIT_SPLIT_ID`) rolls the reduction object, dataset
        length and liveness back to the previous epoch in O(groups
        touched) and re-raises.  The commit is
        checkpointed — every group's pre-image is saved once per epoch
        before it is mutated — and sealed epochs stay in the session's
        checkpoint ring for ``session.ro_at(epoch)`` queries.
        """
        self._check_open()
        if not isinstance(session, DeltaSession):
            raise FreerideError("run_delta requires the DeltaSession from run_baseline")
        if append is None and retract is None:
            raise FreerideError("run_delta needs append=... and/or retract=...")
        retract_idx = session.normalize_retract(retract)
        if append is None and retract_idx.size == 0:
            raise FreerideError("run_delta called with an empty delta")
        report = session.apply(
            append, retract_idx,
            injector=self.fault_injector, executor=self.executor,
            tracer=self.tracer if self.tracer is not None else get_tracer(),
        )
        stats = self._new_stats()
        if report.appended:  # folded: one in-order call on the caller's lane
            idle = [0] * (self.num_threads - 1)
            stats.total_elements = report.appended
            stats.elements_per_thread = [report.appended, *idle]
            stats.splits_per_thread = [1, *idle]
        stats.delta_epoch = report.epoch
        stats.delta_mode = (
            "append+retract"
            if report.appended and report.retracted
            else ("append" if report.appended else "retract")
        )
        stats.delta_appended = report.appended
        stats.delta_retracted = report.retracted
        stats.delta_groups_replayed = report.groups_replayed
        stats.delta_replay_elements = report.replay_elements
        stats.delta_checkpoint_saves = report.checkpoint_saves
        stats.delta_checkpoint_hits = report.checkpoint_hits
        stats.ro_updates = session.ro.update_count
        stats.ro_size = session.ro.size
        value: Any = (
            session.finalize(session.ro)
            if session.finalize is not None
            else session.ro
        )
        return ReductionResult(value=value, ro=session.ro, stats=stats)
