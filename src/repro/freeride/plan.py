"""Plan a run's pass before anything runs — as a value.

FREERIDE's loop combines locally "depending on the shared memory technique
chosen by the application developer" (§III-A); with ``technique="auto"``
and colored waves, *choosing* became a computation of its own.
:func:`plan_node` is that computation, and a pure function of the run's
own inputs — the engine's request, the spec, the run's data and the fresh
reduction object; nothing carried over from earlier runs.  It returns an
immutable :class:`ExecutionPlan`: the split layout, then the static
coloring at most once, then the technique (the order and its reasons:
``docs/PERFORMANCE.md``, "Choosing a technique"), then the run's shape
(:func:`run_shape`) and the lanes' share of an uncolored wave.  Because it
is pure, an engine's :class:`PlanCache` serves a compiled run the plan an
earlier run with the same inputs got, and plans only what it has not seen.
Nothing here runs a split, touches a
:class:`~repro.freeride.execute.RunContext` or emits a trace event; the
engine stamps its stats and reports the decision from the plan, and
``execute`` builds its context from it.

The layout is two int64 arrays of positions, and the run carries it as
positions from here to the kernel.  A
:class:`~repro.freeride.splitter.Split` is made only for a hand-written
spec's per-split callback, per attempt (:meth:`ExecutionPlan.split_at`),
and for a callable ``group_bounds`` hook.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.freeride.coloring import SplitColoring, color_splits, resolve_group_sets
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import SharedMemTechnique, num_locks
from repro.freeride.spec import ReductionSpec
from repro.freeride.splitter import (
    Layout,
    Split,
    _check_partition,
    _data_len,
    aligned_layout,
    chunked_layout,
    default_layout,
    element_ranges,
)
from repro.util.errors import SplitterError

__all__ = [
    "ExecutionPlan",
    "RunShape",
    "run_shape",
    "WaveBatches",
    "deal_wave",
    "PlanCache",
    "PLAN_CACHE_SIZE",
    "plan_node",
    "REPLICATION_BUDGET_BYTES",
]

#: ``technique="auto"``: replicating the reduction object across threads
#: beyond this many total bytes (``ro.nbytes * num_threads``) is considered
#: too expensive and the selector prefers a single-copy technique.
REPLICATION_BUDGET_BYTES = 64 * 1024 * 1024

_FR = SharedMemTechnique.FULL_REPLICATION
_COLORED = SharedMemTechnique.COLORED
_LOCKING = SharedMemTechnique.CACHE_SENSITIVE_LOCKING


class RunShape(NamedTuple):
    """What a run holds and runs (:func:`run_shape`), read alike by the
    engine's ``SharedMemStats`` and the cost model (``repro.bench``)."""

    num_locks: int  # the locking stripe, one lock per cache line; else 0
    private_copies: int  # per-thread copies (full replication); else 0
    ro_memory_bytes: int  # every private copy's bytes, or the shared copy's
    #: the split positions of each wave, run in order with a barrier between:
    #: a colored run's waves, else one wave of every split
    waves: "tuple[Sequence[int], ...]"
    wave_widths: tuple[int, ...]  # how many splits each wave runs


def run_shape(
    technique: SharedMemTechnique, num_threads: int, ro_size: int,
    num_splits: int, coloring: "SplitColoring | None" = None,
) -> RunShape:
    """The shape of a run of ``technique`` on ``num_threads`` lanes, over a
    reduction object of ``ro_size`` float64 elements cut into
    ``num_splits`` splits; ``coloring`` is a colored run's wave schedule."""
    copies = num_threads if technique is _FR else 0
    locks = num_locks(ro_size) if technique is _LOCKING else 0
    waves = coloring.waves if coloring is not None else (range(num_splits),)
    bytes_ = 8 * ro_size * max(1, copies)
    return RunShape(locks, copies, bytes_, waves, tuple(map(len, waves)))


@dataclass(frozen=True, eq=False)
class ExecutionPlan:
    """Everything decided about a run's pass before its first split."""

    #: split ``i`` reduces the element values ``[starts[i], ends[i])``:
    #: two int64 arrays, the data's ``range.start`` plus the layout's
    #: positions, set when the data is a unit-step
    #: ``range`` (what every compiled spec runs over), else ``None``
    starts: "np.ndarray | None"
    ends: "np.ndarray | None"
    #: the layout's positions into the data, set for every run: split ``i``
    #: is ``data[layout[0][i]:layout[1][i]]``
    layout: Layout
    #: how many splits the layout has, zero-length ones included
    num_splits: int
    #: the run's data, which a per-split callback's :class:`Split` views
    data: Any = field(repr=False)
    #: a custom ``splitter=``'s own list, as it was given; ``None`` for the
    #: built-in layouts, whose split ids are their positions
    given: "list[Split] | None" = field(repr=False)
    #: element alignment the default splitter snapped boundaries to (the
    #: effect summary's ``alignment``), ``None`` for unaligned splits
    split_alignment: "int | None"
    #: the technique the run executes (never the request)
    technique: SharedMemTechnique
    #: why the technique differs from the request — ``{requested, chosen,
    #: reason, inputs}`` — or ``None`` when the request was honored verbatim
    decision: "dict[str, Any] | None"
    #: the wave schedule of a colored run; ``None`` runs one wave
    coloring: "SplitColoring | None" = None
    #: an uncolored run's one wave dealt to its lanes (:func:`deal_wave`),
    #: set when ``starts`` is; a colored wave is dealt when it runs
    batches: "WaveBatches | None" = None
    #: the locks, copies, bytes and waves the run holds (:func:`run_shape`)
    shape: "RunShape | None" = None

    def split_id(self, pos: int) -> int:
        """The id of the split at ``pos`` — what spans, the injector and the
        ledgers name it by: the position, or a custom splitter's own id."""
        return pos if self.given is None else self.given[pos].split_id

    def split_at(self, pos: int) -> Split:
        """The split at ``pos`` as a per-split callback receives it: a custom
        splitter's own object, else one built for this call."""
        if self.given is not None:
            return self.given[pos]
        start, end = int(self.layout[0][pos]), int(self.layout[1][pos])
        return Split(pos, start, end, self.data[start:end])


class WaveBatches(NamedTuple):
    """A wave's live splits (those holding elements) and what each lane
    reduces of them, in position order: lane ``l`` takes the splits whose
    position is ``l`` mod the lane count — an uncolored run's
    ``splits[l::W]``, the sequence its replica sees split by split."""

    #: every live split's element range, for lanes that claim their own
    starts: np.ndarray
    ends: np.ndarray
    #: elements from the first live split's start to the last one's end:
    #: the live element count when the splits are consecutive (an uncolored
    #: run), an upper bound otherwise
    span: int
    #: ``(lane, starts, ends, elements)`` of every lane given a split
    lanes: "list[tuple[int, np.ndarray, np.ndarray, int]]"


def deal_wave(
    starts: np.ndarray, ends: np.ndarray, positions: np.ndarray, width: int
) -> WaveBatches:
    """The wave of split ``positions`` (ascending) dealt to ``width`` lanes."""
    live = positions[ends[positions] > starts[positions]]
    if not live.size:
        return WaveBatches(live, live, 0, [])
    span = int(ends[live[-1]]) - int(starts[live[0]])
    lanes = []
    owner = live % width
    for lane in range(width):
        mine = live[owner == lane]
        if mine.size:
            mine_starts, mine_ends = starts[mine], ends[mine]
            elements = int((mine_ends - mine_starts).sum())
            lanes.append((lane, mine_starts, mine_ends, elements))
    return WaveBatches(starts[live], ends[live], span, lanes)


def _validate_custom_splits(splits: "list[Split]", data: Any) -> Layout:
    """A user splitter must produce an exact, ordered partition; returns
    its layout."""
    if not isinstance(splits, list) or not all(isinstance(s, Split) for s in splits):
        raise SplitterError("custom splitter must return a list of Split")
    try:
        n = len(data)
    except TypeError:
        raise SplitterError("custom splitter data must be sized")
    return _check_partition(
        np.array([s.start for s in splits], dtype=np.int64),
        np.array([s.end for s in splits], dtype=np.int64),
        n, [s.split_id for s in splits],
    )


def _choose_auto(inputs: "dict[str, Any]") -> "tuple[SharedMemTechnique, str]":
    """The ``technique="auto"`` heuristic: ``(technique, reason)``.

    ``inputs`` is the decision's input record, every signal read here.
    """
    width = inputs["max_wave_width"]
    if inputs["executor"] == "process":
        return _FR, "process executor supports only full_replication; coercing"
    if width >= 2:
        return _COLORED, (
            "exact group bounds admit parallel lock-free waves "
            f"(max wave width {width})"
        )
    if inputs["replication_bytes"] <= REPLICATION_BUDGET_BYTES:
        return _FR, "reduction object is small enough to replicate per thread"
    return SharedMemTechnique.CACHE_SENSITIVE_LOCKING, (
        "replicating the reduction object "
        f"({inputs['replication_bytes']} bytes across "
        f"{inputs['num_threads']} threads) exceeds the "
        f"{REPLICATION_BUDGET_BYTES}-byte budget"
    )


#: plans a :class:`PlanCache` keeps, the least recently used dropped first
PLAN_CACHE_SIZE = 8


class PlanCache:
    """One engine's recent plans, by everything :func:`plan_node` reads.

    A spec from ``make_spec`` over its unit-step index range, run without a
    custom splitter, is planned from inputs that fit one key: its kernel's
    ``request.key`` (its group bounds are a pure function of the kernel,
    whatever data or extras are bound), the range, the interned layout of
    the run's reduction object (its size and group count), the engine's
    technique request, executor, thread count and chunk size, and
    :data:`REPLICATION_BUDGET_BYTES`.  Such a plan is made once per key,
    as the inspector of an inspector–executor pair is; any other run — a
    hand-written spec, whose hooks may read anything, or a custom splitter
    — is planned afresh every time.  Safe to share between threads.
    """

    def __init__(self) -> None:
        self._plans: "dict[tuple, ExecutionPlan]" = {}
        self._lock = threading.Lock()

    def plan(
        self,
        spec: ReductionSpec,
        data: Any,
        ro: ReductionObject,
        layout: Any,
        *,
        technique: "SharedMemTechnique | None",
        executor: str,
        num_threads: int,
        chunk_size: "int | None",
        splitter: "Callable[[Any, int], list[Split]] | None",
    ) -> "ExecutionPlan":
        """:func:`plan_node` of the run, served from the cache when its key
        is there; ``layout`` is ``ro``'s interned layout
        (:meth:`~repro.freeride.reduction_object.ReductionObject.freeze_layout`)."""
        bound = spec.bound
        key = None
        if (
            bound is not None
            and splitter is None
            and type(data) is range
            and data.step == 1
            and spec.group_bounds is bound.compiled.group_bounds
        ):
            key = (
                bound.compiled.request.key, data, layout, technique, executor,
                num_threads, chunk_size, REPLICATION_BUDGET_BYTES,
            )
            with self._lock:
                plan = self._plans.pop(key, None)
                if plan is not None:
                    self._plans[key] = plan  # now the newest
                    return plan
        plan = plan_node(
            spec, data, ro, technique=technique, executor=executor,
            num_threads=num_threads, chunk_size=chunk_size, splitter=splitter,
        )
        if key is not None:
            with self._lock:
                self._plans[key] = plan
                while len(self._plans) > PLAN_CACHE_SIZE:
                    del self._plans[next(iter(self._plans))]
        return plan

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()


def plan_node(
    spec: ReductionSpec,
    data: Any,
    ro: ReductionObject,
    *,
    technique: "SharedMemTechnique | None",
    executor: str,
    num_threads: int,
    chunk_size: "int | None" = None,
    splitter: "Callable[[Any, int], list[Split]] | None" = None,
) -> ExecutionPlan:
    """Plan one run's pass over ``data`` (see the module docstring).

    ``technique`` is the engine's parsed request (``None`` for ``"auto"``)
    and ``ro`` the run's fresh reduction object (read for its size only).
    A request the engine refuses (a locking or colored technique on the
    process executor) is not re-checked here.
    """
    auto = technique is None
    # can this request execute waves at all
    colorable = executor != "process" and (auto or technique is _COLORED)

    alignment = None
    given: "list[Split] | None" = None
    if splitter is not None:
        given = splitter(data, num_threads)
        layout = _validate_custom_splits(given, data)
    else:
        n = _data_len(data)
        if chunk_size is not None:
            layout = chunked_layout(n, chunk_size)
        else:
            bounds = spec.group_bounds
            hint = getattr(bounds, "alignment", None) if colorable else None
            if isinstance(hint, int) and hint > 1 and not callable(bounds):
                alignment = hint
                layout = aligned_layout(n, num_threads, alignment)
            else:
                layout = default_layout(n, num_threads)

    starts, ends = element_ranges(data, layout)
    num_splits = len(layout[0])

    chosen, reason = technique, None
    # the static wave schedule; None when a group set is inexact
    coloring: "SplitColoring | None" = None
    if auto or technique is _COLORED:
        num_groups = ro.num_groups
        if colorable:
            group_sets, source = resolve_group_sets(
                spec.group_bounds, data, layout, num_groups, given
            )
            if group_sets is not None:
                coloring = color_splits(group_sets, source=source)
        # every signal the choice reads, recorded verbatim so a decision
        # can be replayed from its stats alone
        nbytes = ro.nbytes
        inputs = {
            "ro_bytes": nbytes,
            "num_groups": num_groups,
            "num_threads": num_threads,
            "num_splits": num_splits,
            "executor": executor,
            "colorable": coloring is not None,
            "max_wave_width": coloring.max_wave_width if coloring is not None else 0,
            "replication_bytes": nbytes * num_threads,
            "replication_budget": REPLICATION_BUDGET_BYTES,
        }
        if auto:
            chosen, reason = _choose_auto(inputs)
        elif coloring is None:
            chosen = _FR
            reason = (
                "colored requires an exact plan-time group set for "
                "every split (spec.group_bounds hook or compiler "
                "bounds); none were available — falling back to "
                "full replication"
            )
    # the record behind RunStats.technique_decision and the
    # technique.decision event; a request honored verbatim leaves none
    decision = None
    if reason is not None:
        decision = {
            "requested": "auto" if auto else technique.value,
            "chosen": chosen.value,
            "reason": reason,
            "inputs": inputs,
        }

    coloring = coloring if chosen is _COLORED else None
    batches = None
    if starts is not None and coloring is None:
        batches = deal_wave(starts, ends, np.arange(num_splits), num_threads)
    return ExecutionPlan(
        starts=starts, ends=ends, layout=layout, num_splits=num_splits,
        data=data, given=given, split_alignment=alignment, technique=chosen,
        decision=decision, coloring=coloring, batches=batches,
        shape=run_shape(chosen, num_threads, ro.size, num_splits, coloring),
    )
