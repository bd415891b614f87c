"""The engine's one split-execution path: context, attempt, settle, drive.

FREERIDE's processing structure (the paper's Figure 4, left) is a single
loop — take a split, run the local reduction, update the reduction object —
and this module is that loop, written once for every executor, technique
and fault configuration:

:class:`RunContext`
    everything a run's pass over its splits needs, built once by
    ``FreerideEngine.run`` from the run's
    :class:`~repro.freeride.plan.ExecutionPlan` and the accessors its
    technique set up.  An uncolored run is a schedule of one wave.
:func:`attempt_split`
    one processing attempt: injector → kernel into a scratch reduction
    object → soft-timeout check.  In-process lanes call it directly; the
    worker task in :mod:`repro.freeride.procexec` imports and calls the
    same function.
:func:`settle`
    owns every outcome of an attempt — exactly-once commit, speculative-
    duplicate drop, requeue, abandon, fail-fast or skip-and-report — plus
    the fault counters and the ``split.requeue``/``split.abandon`` events.
:func:`drive`
    the loop over waves × lanes.  The executors differ only in how a
    lane's work is shipped: inline on the calling thread (``"serial"``),
    the lane team or pool threads draining the wave's :class:`SplitQueue`
    (``"threads"``), or tasks on the worker-process pool (``"process"``).

*Direct* runs — those without a fault policy — skip the scratch object:
the attempt accumulates straight into the lane's accessor, there is
nothing to settle, and with tracing disabled no per-split instrumentation
is installed at all.  When, on top of that, the kernel can walk a list of
ranges by itself (``ReductionSpec.lane_wave`` is set) and the lanes
commute (the plan's technique gives each lane a target of its own), a
lane does not loop over splits either: it passes whole batches of
split positions — slices of the plan's ``starts``/``ends`` arrays, with no
``Split`` object built — to one ``reduce_ranges`` call.  A threaded wave of
those is one hand-off to the spec's ``lane_wave``: the engine's lane team,
whose lanes claim the batches in C.  The pool serves per-split lanes only.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.freeride.faults import (
    FAIL_FAST,
    FaultInjector,
    FaultPolicy,
    InjectedFault,
    SplitFailureRecord,
    SplitTimeout,
)
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import (
    ROAccessor,
    SharedMemTechnique,
    close_shm_segment,
    create_shm_segment,
)
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.freeride.splitter import Split, SplitQueue, split_descriptors
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from repro.util.errors import FaultToleranceError

if TYPE_CHECKING:
    from repro.freeride.plan import ExecutionPlan
    from repro.freeride.runtime import FreerideEngine, RunStats
    from repro.obs.tracer import NullTracer, Tracer

__all__ = [
    "INLINE_WAVE_ELEMENTS",
    "RunContext",
    "attempt_split",
    "traced_attempt",
    "settle",
    "drive",
]

#: techniques whose lanes commute — each owns a replica, or the wave schedule
#: gives it exclusive cells — so a lane may reduce whole batches of splits in
#: one call; a locking lane commits once per split, in split order
_LANE_EXCLUSIVE = (SharedMemTechnique.FULL_REPLICATION, SharedMemTechnique.COLORED)

#: a batched wave whose splits span fewer elements runs inline, whatever the
#: executor: below it the lane team's hand-off costs more than a second
#: thread can win back.  Measured on a 2-vCPU box (medians of three sets, a
#: warm two-split native wave, threaded minus inline run), the team cost
#: 0.09 ms more than inline when it had just been busy, 0.12 ms after 0.5 ms
#: idle and 0.22 ms after 2 ms idle, most of it waking a parked vCPU; the
#: pool it replaced read 0.35-0.67, 0.53-0.76 and 0.67-0.82 ms in the same
#: sets.  k-means, the slowest suite kernel, runs 25-33 ns per element.
#: Hand-off × W ÷ ns per element = 0.17 ms × 2 ÷ 25 ns ≈ 14,000 elements,
#: rounded to a power of two.
INLINE_WAVE_ELEMENTS = 16_384

#: what an attempt hands back: ``(scratch, None)`` or ``(None, error)``
Attempt = tuple[ReductionObject | None, BaseException | None]


@dataclass
class RunContext:
    """One run's pass: what to run, where results go, what may go wrong.

    Constructed complete from the run's plan and the accessors of the
    planned technique; everything below :attr:`worker_durations` is derived
    from those in ``__post_init__``.
    """

    spec: ReductionSpec
    plan: "ExecutionPlan"
    base_ro: ReductionObject
    accessors: "list[ROAccessor]"
    #: the run's ledger; its fault counters are guarded by :attr:`lock`
    stats: "RunStats"
    tracer: "Tracer | NullTracer"
    metrics: "MetricsRegistry | None"
    executor: str
    num_threads: int
    #: ``None`` means no fault machinery; an injector alone implies defaults
    policy: "FaultPolicy | None"
    injector: "FaultInjector | None"
    #: split durations worker processes ship back, kept for the profile
    #: record; ``None`` when no profile store is attached
    worker_durations: "list[float] | None" = None
    #: split positions per wave, each wave run to completion before the next
    waves: Any = field(init=False)
    #: colored fault-tolerant runs commit each scratch restricted to the
    #: split's proven group set, so concurrent commits within a wave never
    #: read-modify-write a cell both left untouched
    commit_groups: "dict[int, frozenset[int]] | None" = field(init=False, default=None)
    #: no policy: attempts accumulate straight into the lane's accessor,
    #: with no scratch object and nothing to settle
    direct: bool = field(init=False)
    elems: "list[int]" = field(init=False)
    nsplits: "list[int]" = field(init=False)
    lock: threading.Lock = field(init=False, default_factory=threading.Lock)

    def __post_init__(self) -> None:
        plan = self.plan
        if self.policy is not None:
            splits = plan.splits
            if self.spec.combination is not None:
                raise FaultToleranceError(
                    "fault tolerance requires the middleware default combination: "
                    "a custom combination_t implies reduction-object state the "
                    "engine cannot merge from a per-split scratch copy"
                )
            if len({s.split_id for s in splits}) != len(splits):
                raise FaultToleranceError(
                    "fault tolerance requires unique split ids (retry and "
                    "commit tracking is keyed by split id)"
                )
            if plan.coloring is not None:
                self.commit_groups = {
                    s.split_id: plan.coloring.group_sets[i]
                    for i, s in enumerate(splits)
                }
        self.direct = self.policy is None
        self.waves = (
            [range(plan.num_splits)] if plan.coloring is None else plan.coloring.waves
        )
        self.elems = [0] * self.num_threads
        self.nsplits = [0] * self.num_threads

    @property
    def splits(self) -> "list[Split]":
        """The plan's splits, built on first read: per-split paths only."""
        return self.plan.splits


# -- the attempt ---------------------------------------------------------------


def attempt_split(
    run: "Callable[[ReductionObject], None]",
    split_id: int,
    attempt: int,
    scratch: ReductionObject,
    injector: "FaultInjector | None",
    split_timeout: "float | None",
) -> Attempt:
    """One processing attempt into a fresh scratch reduction object.

    Returns ``(scratch, None)`` on success or ``(None, error)`` on failure
    — injected fault, application exception, or soft-timeout overrun.  The
    scratch object is only handed back on success, so the caller commits
    all of the attempt's accumulations or none of them.
    """
    start = time.monotonic()
    try:
        if injector is not None:
            injector.inject(split_id, attempt)
        run(scratch)
    except Exception as exc:
        return None, exc
    if split_timeout is not None and time.monotonic() - start > split_timeout:
        return None, SplitTimeout(
            f"split {split_id} attempt {attempt} exceeded the "
            f"{split_timeout}s per-split timeout"
        )
    return scratch, None


def traced_attempt(
    tracer: "Tracer",
    lane: int,
    split_id: int,
    elements: int,
    attempt: "int | None",
    run: "Callable[[], Attempt]",
) -> "tuple[ReductionObject | None, BaseException | None, float]":
    """Run one attempt inside a ``split`` span; returns it plus its seconds.

    ``attempt`` is ``None`` outside a fault policy (the span then carries
    no attempt number).  An exception escaping ``run`` — a direct attempt
    has no error channel — is recorded on the span and propagates.
    """
    numbered = {} if attempt is None else {"attempt": attempt}
    with tracer.span(
        "split", cat="split", split_id=split_id, thread_id=lane,
        elements=elements, **numbered,
    ) as span:
        scratch, error = run()
        if error is None:
            span.set(outcome="ok")
        else:
            span.set(outcome="failed", error=repr(error))
    for kind, name in ((InjectedFault, "fault.injected"), (SplitTimeout, "fault.timeout")):
        if isinstance(error, kind):
            tracer.event(
                name, cat="fault", split_id=split_id, attempt=attempt,
                thread_id=lane,
            )
    return scratch, error, span.duration or 0.0


def _reduce(
    ctx: RunContext, lane: int, split: Split, attempt: int,
    target: "ROAccessor | ReductionObject",
) -> None:
    ctx.spec.reduction(
        ReductionArgs(
            data=split.data, split=split, thread_id=lane, ro=target,
            extras=ctx.spec.extras, attempt=attempt,
        )
    )


def _attempt_in_process(ctx: RunContext, lane: int, split: Split, attempt: int) -> Attempt:
    if ctx.direct:
        _reduce(ctx, lane, split, attempt, ctx.accessors[lane])
        return None, None
    return attempt_split(
        partial(_reduce, ctx, lane, split, attempt),
        split.split_id, attempt, ctx.base_ro.clone_empty(), ctx.injector,
        ctx.policy.split_timeout,
    )


def _attempt_traced(ctx: RunContext, lane: int, split: Split, attempt: int) -> Attempt:
    """The in-process attempt wrapped for an enabled tracer."""
    assert ctx.metrics is not None
    acc_stats = ctx.accessors[lane].stats
    locks_before = acc_stats.lock_acquisitions
    scratch, error, seconds = traced_attempt(
        ctx.tracer, lane, split.split_id, len(split),
        attempt if ctx.policy is not None else None,
        lambda: _attempt_in_process(ctx, lane, split, attempt),
    )
    ctx.metrics.histogram("engine.split_seconds").observe(seconds)
    if ctx.policy is None:
        # the locks the attempt itself took; under a fault policy they are
        # taken by the commit, not the attempt, so nothing is recorded
        ctx.metrics.histogram(
            "ro.lock_acquisitions_per_split", DEFAULT_COUNT_BUCKETS
        ).observe(acc_stats.lock_acquisitions - locks_before)
    return scratch, error


# -- settling an attempt -------------------------------------------------------


def _commit(ctx: RunContext, lane: int, split: Split, scratch: ReductionObject) -> None:
    groups = (
        ctx.commit_groups.get(split.split_id) if ctx.commit_groups is not None else None
    )
    ctx.accessors[lane].merge_from_scratch(scratch, groups=groups)


def settle(
    ctx: RunContext,
    queue: SplitQueue,
    lane: int,
    split: Split,
    attempt: int,
    speculative: bool,
    scratch: "ReductionObject | None",
    error: "BaseException | None",
) -> None:
    """Decide what one finished attempt means for its split.

    Success commits through the queue's exactly-once completion gate, so a
    speculative straggler duplicate (or the original it raced) is dropped
    without touching the reduction object.  Failure is retried while the
    policy's budget lasts, then abandoned: fail-fast poisons the queue and
    re-raises what the split hit, skip-and-report records the loss and lets
    the run finish.
    """
    if error is None:
        assert scratch is not None
        if queue.complete(split):
            _commit(ctx, lane, split, scratch)
            ctx.elems[lane] += len(split)
            ctx.nsplits[lane] += 1
        return
    stats, policy, tracer = ctx.stats, ctx.policy, ctx.tracer
    assert policy is not None  # only a fault policy's attempts are settled
    if isinstance(error, (InjectedFault, SplitTimeout)):
        with ctx.lock:
            if isinstance(error, InjectedFault):
                stats.injected_faults += 1
            else:
                stats.timeouts += 1
    if speculative:
        return  # the original attempt is still in flight
    if attempt < policy.max_attempts:
        queue.requeue(split)
        if tracer.enabled:
            tracer.event(
                "split.requeue", cat="fault", split_id=split.split_id,
                attempt=attempt, thread_id=lane,
            )
        return
    queue.abandon(split)
    if tracer.enabled:
        tracer.event(
            "split.abandon", cat="fault", split_id=split.split_id,
            attempts=attempt, thread_id=lane, error=repr(error),
        )
    if policy.mode == FAIL_FAST:
        queue.poison()
        raise error
    with ctx.lock:
        stats.failed_splits += 1
        stats.failures.append(
            SplitFailureRecord(
                split_id=split.split_id,
                attempts=attempt,
                error=repr(error),
                elements_lost=len(split),
            )
        )


# -- one lane ------------------------------------------------------------------


def _lane(
    ctx: RunContext,
    queue: SplitQueue,
    lane_of: "Callable[[Split], int]",
    attempt_fn: "Callable[[RunContext, int, Split, int], Attempt]",
) -> None:
    """Drain one wave's queue on the calling thread: claim, attempt, settle.

    Any error poisons the queue on the way out, so peer lanes stop after
    the split they are on instead of running the rest of the wave.
    """
    policy, tracer = ctx.policy, ctx.tracer
    try:
        if ctx.direct:
            while (split := queue.take()) is not None:
                lane = lane_of(split)
                attempt_fn(ctx, lane, split, 1)
                ctx.elems[lane] += len(split)
                ctx.nsplits[lane] += 1
            return
        while True:
            speculative = False
            item = queue.claim()
            if item is None and policy.straggler_timeout:
                # nothing left to claim: duplicate the oldest straggler
                item = queue.steal_straggler(policy.straggler_timeout)
                speculative = item is not None
            if item is None:
                if queue.poisoned or not queue.outstanding():
                    return
                time.sleep(0.0005)  # a peer's in-flight attempt may requeue
                continue
            split, attempt = item
            lane = lane_of(split)
            if speculative and tracer.enabled:
                tracer.event(
                    "split.steal", cat="fault", split_id=split.split_id,
                    thread_id=lane,
                )
            if attempt > 1:
                with ctx.lock:
                    ctx.stats.retries += 1
                backoff = policy.backoff_seconds(attempt - 1)
                if backoff:
                    time.sleep(backoff)
            scratch, error = attempt_fn(ctx, lane, split, attempt)
            settle(ctx, queue, lane, split, attempt, speculative, scratch, error)
    except BaseException:
        queue.poison()
        raise


def _reduce_positions(ctx: RunContext, lane: int, positions: np.ndarray) -> None:
    """One kernel call over the splits at ``positions``, in order, into
    ``lane``'s accessor.

    The plan's ``starts``/``ends`` are element values, not positions, as
    the per-split ``reduction`` reads its split's slice of the element
    index range: the two differ when the run's data is a ``range`` whose
    start is not 0.
    """
    assert ctx.spec.reduce_ranges is not None
    starts, ends = ctx.plan.starts[positions], ctx.plan.ends[positions]
    ctx.spec.reduce_ranges(starts, ends, ctx.accessors[lane])
    ctx.elems[lane] += int((ends - starts).sum())
    ctx.nsplits[lane] += len(positions)


def _batched_wave(ctx: RunContext, engine: "FreerideEngine", wave: Any) -> None:
    """One wave of a batched run, on split positions alone.

    Inline, lane ``l`` makes one call over ``live[live % W == l]`` — an
    uncolored run's ``splits[l::W]``, the sequence its replica sees split
    by split.  A threaded wave of at least :data:`INLINE_WAVE_ELEMENTS`
    goes to the spec's ``lane_wave`` instead: the engine's lane team, whose
    lanes claim guided batches of positions below the interpreter.  A
    wave no team can run (none can exist here) runs inline.
    """
    starts, ends = ctx.plan.starts, ctx.plan.ends
    if isinstance(wave, range):  # an uncolored run's one wave: every split
        live = (ends > starts).nonzero()[0]
    else:
        w = np.array(wave, dtype=np.int64)
        live = w[ends[w] > starts[w]]
    if not live.size:
        return
    # the splits partition the data in order: a wave's span is its live
    # element count when its splits are consecutive (an uncolored run), and
    # bounds it from above otherwise
    span = int(ends[live[-1]]) - int(starts[live[0]])
    width = ctx.num_threads
    if not (ctx.executor == "serial" or live.size == 1 or span < INLINE_WAVE_ELEMENTS):
        per_lane = ctx.spec.lane_wave(
            engine._res, starts[live], ends[live], ctx.accessors
        )
        if per_lane is not None:
            for lane, (elements, splits) in enumerate(per_lane):
                ctx.elems[lane] += elements
                ctx.nsplits[lane] += splits
            return
    if width == 1:  # one lane takes every live split
        _reduce_positions(ctx, 0, live)
        return
    lanes = live % width
    for lane in range(width):
        mine = live[lanes == lane]
        if mine.size:
            _reduce_positions(ctx, lane, mine)


def _on_pool(engine: "FreerideEngine", lanes: "list[Callable[[], None]]") -> None:
    """Run one callable per lane on the engine's pool and join them all —
    the barrier between waves — before any lane's error propagates."""
    pool = engine._get_pool()
    futures = [pool.submit(lane) for lane in lanes]
    futures_wait(futures)
    for future in futures:
        future.result()


# -- process shipping ----------------------------------------------------------


def _absorb(ctx: RunContext, res: "dict[str, Any]") -> None:
    """Fold a worker result's side channels into the run: the kernel's
    operation counters, split durations for the profile record, and the
    worker's trace records."""
    with ctx.lock:  # attempt lanes absorb concurrently
        ctx.spec.bound.counters.add(res["counters"])
        if ctx.worker_durations is not None:
            # one RunProfile per engine run: every worker's durations fold in
            ctx.worker_durations.extend(res["durations"])
    if ctx.tracer.enabled:
        assert ctx.metrics is not None
        ctx.tracer.ingest(res["records"])
        split_seconds = ctx.metrics.histogram("engine.split_seconds")
        for seconds in res["durations"]:
            split_seconds.observe(seconds)
        if ctx.policy is None:
            contention = ctx.metrics.histogram(
                "ro.lock_acquisitions_per_split", DEFAULT_COUNT_BUCKETS
            )
            for _ in res["durations"]:
                contention.observe(0)  # replication: lock-free


def _ship_blocks(
    ctx: RunContext, engine: "FreerideEngine", wave: Any, payload: "dict[str, Any]"
) -> None:
    """Direct runs across processes: one block task per worker.

    Worker ``w`` gets the wave's ``splits[w::W]`` — the exact round-robin
    the inline lane walks — so the per-replica accumulation order (and
    therefore every float result, bit for bit) matches serial execution.
    Block granularity keeps pickling off the per-split path.  Workers
    accumulate into their replica slot of one shared reduction-object
    segment; the parent copies each slot into the matching accessor's
    private copy and ``mgr.finish`` combines as usual.
    """
    from repro.freeride import procexec

    descriptors = split_descriptors([ctx.splits[i] for i in wave])
    ro_floats = sum(n for n, _ in payload["ro_layout"])
    width = ctx.num_threads
    pool = engine._get_process_pool()
    seg = create_shm_segment(width * ro_floats * 8)
    view: "np.ndarray | None" = None
    try:
        futures = [
            pool.submit(
                procexec.run_block_task,
                {
                    **payload,
                    "slot": w,
                    "ro_floats": ro_floats,
                    "ro_shm": seg.name,
                    "splits": descriptors[w::width],
                },
            )
            for w in range(width)
        ]
        futures_wait(futures)  # no worker may outlive the segment
        results = [f.result() for f in futures]
        view = np.ndarray((width * ro_floats,), dtype=np.float64, buffer=seg.buf)
        for res in results:
            w = res["slot"]
            replica = ctx.accessors[w].ro
            replica._buffer[:] = view[w * ro_floats : (w + 1) * ro_floats]
            replica.update_count = res["update_count"]
            ctx.elems[w] += res["elements"]
            ctx.nsplits[w] += res["nsplits"]
            _absorb(ctx, res)
    finally:
        # the view must die before the mapping can be released
        del view
        close_shm_segment(seg, unlink=True)


def _attempt_remote(
    pool: Any, payload: "dict[str, Any]",
    ctx: RunContext, lane: int, split: Split, attempt: int,
) -> Attempt:
    """One scratch attempt shipped to a worker process.

    The lane blocks on the task's future, so the claim/settle loop around
    it is the very one thread lanes run; the worker traces its own attempt.
    """
    from repro.freeride import procexec

    assert ctx.policy is not None
    res = pool.submit(
        procexec.run_split_task,
        {
            **payload,
            "lane": lane,
            "split": split_descriptors([split])[0],
            "attempt": attempt,
            "injector": ctx.injector,
            "split_timeout": ctx.policy.split_timeout,
        },
    ).result()  # a worker-process crash propagates here
    _absorb(ctx, res)
    return procexec.split_task_outcome(res, payload["ro_layout"])


# -- the drive loop ------------------------------------------------------------


def drive(ctx: RunContext, engine: "FreerideEngine") -> None:
    """Run every wave of the context's schedule to completion.

    ``engine`` supplies its resources: the lane team, the persistent pools
    and, for the process executor, the shared-memory segment cache.  Serial
    execution — and any wave with a single live split — runs inline, lane = split position
    mod ``num_threads`` with retried splits served first, so the commit
    order is the split order.  One error policy for every run: a raising
    lane poisons the wave's queue, every lane is joined, then the error
    propagates.

    Batched lanes (see the module docstring) work on the plan's ``starts``
    and ``ends`` and never build a ``Split`` (:func:`_batched_wave`); they
    keep that order where it matters, and lanes that share cells never
    batch, so a shared reduction object still commits in split order.  A
    batched wave whose splits span fewer than :data:`INLINE_WAVE_ELEMENTS`
    elements runs inline under every executor: the same lanes into the same
    replicas, without the team hand-off it could not win back.  A lane team
    error is raised once every lane has left the wave.
    """
    attempt_fn = _attempt_traced if ctx.tracer.enabled else _attempt_in_process
    payload = None
    if ctx.executor == "process":
        from repro.freeride import procexec

        payload = procexec.task_payload(
            ctx.spec, ctx.base_ro.layout(), engine._res.segments,
            ctx.tracer.epoch if ctx.tracer.enabled else None,
        )
        attempt_fn = partial(_attempt_remote, engine._get_process_pool(), payload)
    width = ctx.num_threads
    batched = (
        ctx.direct
        and not ctx.tracer.enabled
        and ctx.spec.lane_wave is not None
        and ctx.plan.technique in _LANE_EXCLUSIVE
        and ctx.plan.starts is not None
    )
    for wave in ctx.waves:
        if payload is not None and ctx.direct:
            _ship_blocks(ctx, engine, wave, payload)
            continue
        if batched:
            _batched_wave(ctx, engine, wave)
            continue
        splits = ctx.splits
        live = [i for i in wave if splits[i].end > splits[i].start]
        if not live:
            continue
        queue = SplitQueue([splits[i] for i in live])
        if ctx.executor == "serial" or len(live) == 1:
            position = {id(splits[i]): i for i in live}
            _lane(ctx, queue, lambda split: position[id(split)] % width, attempt_fn)
        else:
            _on_pool(engine, [
                partial(_lane, ctx, queue, lambda _split, t=t: t, attempt_fn)
                for t in range(min(width, len(live)))
            ])
        if ctx.policy is not None:
            ctx.stats.requeues += queue.requeues
            ctx.stats.split_attempts.update(queue.attempt_table())
