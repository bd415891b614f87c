"""Worker-process side of the ``"process"`` executor.

The process executor extends FREERIDE's full-replication technique across
address spaces: the parent publishes the linearized dataset into a POSIX
shared-memory segment once per engine, and every task shipped to a worker is
just a compact picklable payload — the kernel's compile request
(:class:`~repro.compiler.cache.CompileRequest`) plus ``(segment name,
nbytes)`` and slices of the plan's ``starts``/``ends`` arrays with the
splits' ids.  Nothing element-sized ever crosses the process boundary.

Workers keep two process-local caches:

* the ordinary process-wide kernel cache (``request.compile()``): each
  worker compiles a request once, on its first task carrying it;
* a bound-kernel cache keyed by ``(request.key, data segment)``: the
  shared dataset is attached and bound once, and extras
  (e.g. k-means centroids) are re-bound only when the parent's
  ``extras_epoch`` moved — one small re-linearization per outer-loop
  iteration, exactly like the in-process executors.

Two task shapes exist, one per way :func:`repro.freeride.execute.drive`
ships a lane's work to this pool:

:func:`run_block_task`
    direct runs.  One task per worker per run; the worker processes its
    statically assigned splits (positions ``[w::W]``, the same
    deterministic round-robin the serial executor uses) and accumulates
    straight into its replica slot of a parent-created shared-memory
    reduction-object segment — the zero-copy transport of results.

:func:`run_split_task`
    runs under a fault policy.  One task per split *attempt*: the worker
    calls the engine's own :func:`~repro.freeride.execute.attempt_split`
    and returns the scratch buffer without committing — the parent owns
    the :class:`~repro.freeride.splitter.SplitQueue` and its exactly-once
    ``complete()`` gate, so speculative straggler duplicates are discarded
    there just as in thread mode.

Both reduce each split with one ``bound.reduce_ranges`` call — the entry
every in-process kernel call takes — into a per-task ledger, and return
its :class:`~repro.machine.counters.OpCounters` deltas and
(when tracing) :class:`~repro.obs.tracer.Span`/``Event`` records stamped with
the worker pid, which the parent folds into the run's ledger and trace.
:func:`task_payload` and :func:`split_task_outcome` are the parent-side
halves of the same protocol.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

import numpy as np

from repro.freeride.execute import attempt_split, traced_attempt
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import (
    SharedBufferCache,
    attach_shm_segment,
    close_shm_segment,
)
from repro.freeride.spec import ReductionSpec
from repro.machine.counters import OpCounters
from repro.obs.tracer import Event, Span, Tracer
from repro.util.errors import FaultToleranceError, FreerideError

__all__ = [
    "create_process_pool",
    "pick_start_method",
    "task_payload",
    "split_task_outcome",
    "run_block_task",
    "run_split_task",
]

#: Environment override for the pool's multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def pick_start_method() -> str:
    """``fork`` where available (fast, inherits the parent's modules), else
    ``spawn`` (Windows, macOS default); ``REPRO_MP_START_METHOD`` overrides."""
    available = multiprocessing.get_all_start_methods()
    override = os.environ.get(START_METHOD_ENV)
    if override:
        if override not in available:
            raise ValueError(
                f"{START_METHOD_ENV}={override!r} is not available here; "
                f"choose from {available}"
            )
        return override
    return "fork" if "fork" in available else "spawn"


def create_process_pool(max_workers: int) -> ProcessPoolExecutor:
    """A persistent worker-process pool for one engine."""
    ctx = multiprocessing.get_context(pick_start_method())
    pool = ProcessPoolExecutor(max_workers=max_workers, mp_context=ctx)
    # Workers are launched by the first submit.  Under a fault policy that
    # would come from a lane thread while its peers run; do it here, on the
    # thread creating the pool, so a fork never copies a mid-flight lane.
    pool.submit(os.getpid).result()
    return pool


# -- parent side of the task protocol -------------------------------------------


def task_payload(
    spec: ReductionSpec,
    ro_layout: "Sequence[tuple[int, str]]",
    segments: SharedBufferCache,
    trace_epoch: float | None,
) -> dict[str, Any]:
    """The picklable task base shared by every worker task of one run.

    Publishes the spec's linearized dataset into the engine's
    shared-memory segment cache (a no-op after the first run over the
    same buffer) and describes the spec's binding in plain fields: the
    compile request, segment *names* — never element data — and the
    extras.
    """
    bound = spec.bound
    if bound is None:
        raise FreerideError(
            "the process executor requires a compiled reduction: build "
            "the spec with BoundReduction.make_spec (a hand-written "
            "ReductionSpec closure cannot be shipped to worker processes)"
        )
    # the binding as it is now, not as it was when the spec was made; a
    # worker reads both segments as one buffer
    parts = bound.segments()
    if bound.shm_session is not None:
        # delta sessions publish into one growable session segment — a
        # pass ships only the bytes appended since the last publish.  Only
        # a full pass publishes, never an epoch in flight, so every
        # published byte belongs to a committed prefix and stays valid.
        name, nbytes = segments.publish_session(bound.shm_session, *parts)
    else:
        name, nbytes = segments.publish(*parts)
    return {
        "request": bound.compiled.request,
        "data_shm": name,
        "data_nbytes": nbytes,
        "dataset_type": bound.dataset_type,
        "n_elements": bound.n_elements,
        "extras": bound.extras_values,
        "extras_epoch": bound.extras_epoch,
        "ro_layout": list(ro_layout),
        "trace_epoch": trace_epoch,
    }


def split_task_outcome(
    res: dict[str, Any], ro_layout: list[tuple[int, str]]
) -> tuple[ReductionObject | None, BaseException | None]:
    """The ``(scratch, error)`` a :func:`run_split_task` result stands for.

    A failed attempt yields the worker's original exception (e.g.
    ``InjectedFault``, ``SplitTimeout``), so fail-fast re-raises what the
    split actually hit, exactly like the in-process executors; an
    unpicklable exception degrades to a :class:`FaultToleranceError`
    carrying its repr.
    """
    if res["buffer"] is not None:
        scratch = ReductionObject.from_layout(
            ro_layout,
            buffer=np.frombuffer(res["buffer"], dtype=np.float64).copy(),
            initialize=False,
        )
        scratch.update_count = res["update_count"]
        return scratch, None
    if res["exception"] is not None:
        try:
            exc = pickle.loads(res["exception"])
            if isinstance(exc, BaseException):
                return None, exc
        except Exception:
            pass
    return None, FaultToleranceError(
        f"split failed in worker process {res['pid']}: {res['error']}"
    )


# -- worker-side caches ---------------------------------------------------------
#
# Module globals: each worker process gets its own copies.  Entries live for
# the worker's lifetime (the pool is persistent per engine); segments the
# parent unlinks stay mapped here until the worker exits, which is safe on
# every platform with POSIX shared memory.

_DATA_SEGMENTS: dict[str, tuple[Any, np.ndarray]] = {}
_BOUND_CACHE: dict[tuple[tuple[str, int, str], str], list[Any]] = {}


def _attached_raw(name: str, nbytes: int) -> np.ndarray:
    """Attach (once) the parent's dataset segment; returns the uint8 view.

    Delta sessions grow a segment in place (the parent over-allocates and
    publishes only the appended tail), so a cached view that is shorter
    than the requested ``nbytes`` is re-taken over the same mapping — the
    attach itself still happens once per segment per worker.
    """
    entry = _DATA_SEGMENTS.get(name)
    if entry is None:
        shm = attach_shm_segment(name)
        raw = np.ndarray((nbytes,), dtype=np.uint8, buffer=shm.buf)
        _DATA_SEGMENTS[name] = entry = (shm, raw)
    elif entry[1].size < nbytes:
        shm = entry[0]
        raw = np.ndarray((nbytes,), dtype=np.uint8, buffer=shm.buf)
        _DATA_SEGMENTS[name] = entry = (shm, raw)
    return entry[1]


def _bound_for(task: dict[str, Any]):
    """The task's kernel, bound against the shared dataset (cached), with a
    fresh counter ledger for this task."""
    # Imported here, not at module top: the freeride package must stay
    # importable without pulling in the compiler (layering), and only
    # process-mode workers ever reach this path (the request in the task
    # brought ``repro.compiler.cache`` with it when it was unpickled).
    from repro.compiler.linearize import LinearizedBuffer

    key = (task["request"].key, task["data_shm"])
    entry = _BOUND_CACHE.get(key)
    if entry is None or entry[2] != task["n_elements"]:
        # first task for this program+segment, or the dataset grew in
        # place (delta session): re-take the view and re-bind.  The
        # compile itself still hits the process-wide kernel cache.
        compiled = task["request"].compile()
        raw = _attached_raw(task["data_shm"], task["data_nbytes"])
        buf = LinearizedBuffer(typ=task["dataset_type"], raw=raw)
        bound = compiled.bind(buf, task["extras"], n_elements=task["n_elements"])
        _BOUND_CACHE[key] = entry = [
            bound, task["extras_epoch"], task["n_elements"]
        ]
    elif entry[1] != task["extras_epoch"]:
        entry[0].update_extras(task["extras"])
        entry[1] = task["extras_epoch"]
    entry[0].counters = OpCounters()
    return entry[0]


def _worker_tracer(task: dict[str, Any]) -> Tracer | None:
    """A recorder in the parent tracer's timebase (``None``: tracing is off).

    ``perf_counter`` shares its clock across processes on the platforms
    the process executor supports, so adopting the parent's epoch is all it
    takes for worker timestamps to line up with the parent's.
    """
    if task["trace_epoch"] is None:
        return None
    tracer = Tracer()
    tracer.epoch = task["trace_epoch"]
    return tracer


def _worker_records(tracer: Tracer | None) -> list[Span | Event]:
    """What the worker recorded, attributed to its pid instead of a thread."""
    if tracer is None:
        return []
    pid = os.getpid()
    records = tracer.records()
    for rec in records:
        rec.tid = pid
        rec.thread = f"freeride-worker-{pid}"
        rec.args["worker_pid"] = pid
    return records


def run_block_task(task: dict[str, Any]) -> dict[str, Any]:
    """Direct runs: process this worker's splits into its replica slot.

    The parent created one shared segment holding ``num_threads``
    contiguous reduction-object replicas; this worker's accumulations land
    directly in slot ``task["slot"]`` — no result pickling, no copies.
    """
    bound = _bound_for(task)
    slot = task["slot"]
    ro_floats = task["ro_floats"]

    ro_shm = attach_shm_segment(task["ro_shm"])
    view = np.ndarray(
        (ro_floats,), dtype=np.float64, buffer=ro_shm.buf, offset=slot * ro_floats * 8
    )
    ro = ReductionObject.from_layout(task["ro_layout"], buffer=view)
    tracer = _worker_tracer(task)
    elements = 0
    durations: list[float] = []
    starts, ends = task["starts"], task["ends"]
    for i, (sid, start, stop) in enumerate(
        zip(task["ids"].tolist(), starts.tolist(), ends.tolist())
    ):
        if stop <= start:
            continue

        def direct() -> tuple[None, None]:
            bound.reduce_ranges(starts[i : i + 1], ends[i : i + 1], ro)
            return None, None

        t0 = time.perf_counter()
        if tracer is None:
            direct()
        else:
            traced_attempt(tracer, slot, sid, stop - start, None, direct)
        durations.append(time.perf_counter() - t0)
        elements += stop - start
    result = {
        "slot": slot,
        "elements": elements,
        "nsplits": len(durations),
        "update_count": ro.update_count,
        "counters": bound.counters,
        "records": _worker_records(tracer),
        "durations": durations,
        "pid": os.getpid(),
    }
    # Drop every view over the segment before closing the worker's mapping
    # (the parent still owns the segment and will unlink it after merging).
    del ro, view
    close_shm_segment(ro_shm)
    return result


def run_split_task(task: dict[str, Any]) -> dict[str, Any]:
    """Runs under a fault policy: one attempt of one split, nothing committed.

    The scratch buffer is returned and the parent merges it only if the
    split's exactly-once completion gate accepts it.  Counter deltas are
    returned for *every* outcome, matching thread mode where a failed
    attempt's kernel work still hits the ledger.
    """
    bound = _bound_for(task)
    sid, starts, ends = task["split_id"], task["starts"], task["ends"]
    attempt = task["attempt"]
    tracer = _worker_tracer(task)

    def scratch_attempt():
        return attempt_split(
            lambda scratch: bound.reduce_ranges(starts, ends, scratch),
            sid, attempt, ReductionObject.from_layout(task["ro_layout"]),
            task["injector"], task["split_timeout"],
        )

    t0 = time.perf_counter()
    if tracer is None:
        scratch, error = scratch_attempt()
    else:
        scratch, error, _ = traced_attempt(
            tracer, task["lane"], sid, int(ends[0] - starts[0]), attempt,
            scratch_attempt,
        )
    duration = time.perf_counter() - t0

    exc_bytes: bytes | None = None
    if error is not None:
        try:
            exc_bytes = pickle.dumps(error)
        except Exception:
            exc_bytes = None  # parent falls back to the repr
    return {
        "error": repr(error) if error is not None else None,
        "exception": exc_bytes,
        "buffer": scratch._buffer.tobytes() if scratch is not None else None,
        "update_count": scratch.update_count if scratch is not None else 0,
        "counters": bound.counters,
        "records": _worker_records(tracer),
        "durations": [duration],
        "pid": os.getpid(),
    }
