"""Plan a run's pass before anything runs — as a value.

FREERIDE's loop combines locally "depending on the shared memory technique
chosen by the application developer" (§III-A); with ``technique="auto"``,
colored waves and a profile store, *choosing* became a computation of its
own.  :func:`plan_node` is that computation, once per run: it
takes what it reads — the engine's request, the spec, the run's data, the
fresh reduction object, the store and the engine's one piece of cross-run
feedback — and returns an immutable :class:`ExecutionPlan`: the split
layout, then the profile key, then each coloring tier at most once, then
the technique, then whether footprints are observed (the order and its
reasons: ``docs/PERFORMANCE.md``, "Choosing a technique").  Nothing here
runs a split, touches a :class:`~repro.freeride.execute.RunContext` or
emits a trace event; the engine stamps its stats and reports the decision
from the plan, and ``execute`` builds its context from it.

The layout is two int64 arrays; :class:`~repro.freeride.splitter.Split`
objects are built from it once, and only when a consumer reads them
(coloring, ``auto``, the profile key and observation here; fault
policies, tracing, locking techniques and the process executor in
``execute``).  A batched direct run never builds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.freeride.coloring import SplitColoring, color_splits, resolve_group_sets
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionSpec
from repro.freeride.splitter import (
    Layout,
    Split,
    _check_partition,
    _data_len,
    aligned_layout,
    chunked_layout,
    default_layout,
    layout_splits,
)
from repro.obs.profilestore import ProfileKey, ProfileStore
from repro.util.errors import SplitterError

__all__ = [
    "ExecutionPlan",
    "plan_node",
    "REPLICATION_BUDGET_BYTES",
    "CONTENTION_FEEDBACK_THRESHOLD",
]

#: ``technique="auto"``: replicating the reduction object across threads
#: beyond this many total bytes (``ro.nbytes * num_threads``) is considered
#: too expensive and the selector prefers a single-copy technique.
REPLICATION_BUDGET_BYTES = 64 * 1024 * 1024

#: ``technique="auto"``: when replication is over budget and the previous
#: traced run's ``ro.lock_acquisitions_per_split`` histogram averaged more
#: than this many acquisitions per split, the selector prefers colored
#: waves (when colorable) over cache-sensitive locking.
CONTENTION_FEEDBACK_THRESHOLD = 8.0

_FR = SharedMemTechnique.FULL_REPLICATION
_COLORED = SharedMemTechnique.COLORED


@dataclass(frozen=True, eq=False)
class ExecutionPlan:
    """Everything decided about a run's pass before its first split."""

    #: split ``i`` reduces the element values ``[starts[i], ends[i])``:
    #: two int64 arrays, the data's ``range.start`` plus the layout's
    #: positions, set when the data is a unit-step
    #: ``range`` (what every compiled spec runs over), else ``None``
    starts: "np.ndarray | None"
    ends: "np.ndarray | None"
    #: how many splits the layout has, zero-length ones included
    num_splits: int
    #: builds :attr:`splits`; returns the same list every call
    build_splits: "Callable[[], list[Split]]" = field(repr=False)
    #: element alignment the default splitter snapped boundaries to
    #: (``GroupBounds.alignment``), ``None`` for unaligned splits
    split_alignment: "int | None"
    #: the technique the run executes (never the request)
    technique: SharedMemTechnique
    #: why the technique differs from the request — ``{requested, chosen,
    #: reason, inputs[, source][, profile_key]}`` — or ``None`` when the
    #: request was honored verbatim
    decision: "dict[str, Any] | None"
    #: the wave schedule of a colored run; ``None`` runs one wave
    coloring: "SplitColoring | None" = None
    #: record every split's group footprint at commit time
    observe: bool = False
    #: split id -> predicted group set, on profile-colored runs only: the
    #: schedule is then a prediction, and commits serialize on one lock
    predicted: "dict[int, frozenset[int]] | None" = None
    #: what the run's history is filed under; ``None`` without a store
    profile_key: "ProfileKey | None" = None

    @property
    def splits(self) -> "list[Split]":
        """The layout as :class:`Split` objects, built on the first read —
        on the reading thread — and kept.  Only consumers that need the
        objects read it; a batched direct run works on :attr:`starts` and
        :attr:`ends` alone."""
        return self.build_splits()


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


def _color(
    spec: "ReductionSpec | None",
    splits: "list[Split]",
    num_groups: int,
    profiled: "dict[tuple[int, int], frozenset[int]] | None" = None,
) -> Any:
    """One tier's wave schedule, or ``None`` if its group sets are inexact:
    the static tiers of ``spec``, or (``spec=None``) the profiled map alone."""
    group_sets, source = resolve_group_sets(spec, splits, num_groups, profiled)
    return color_splits(group_sets, source=source) if group_sets is not None else None


def _choose_auto(
    inputs: "dict[str, Any]",
    tier: "str | None",
    history: "list[dict[str, Any]] | None",
) -> "tuple[SharedMemTechnique, str, str]":
    """The ``technique="auto"`` heuristic: ``(technique, reason, source)``.

    ``inputs`` is the decision's input record (every signal read here),
    ``tier`` the candidate coloring's source (``None``: not colorable).
    ``source`` is ``"static"`` when only the cold-start heuristic spoke,
    ``"profiled"`` when store history (observed footprints or persisted
    contention) decided the outcome.  Contention read from ``history`` —
    consulted only when this engine has no traced run of its own to go by
    — is written back into ``inputs["lock_contention_mean"]``.
    """
    width = inputs["max_wave_width"]
    if inputs["executor"] == "process":
        reason = "process executor supports only full_replication; coercing"
        return _FR, reason, "static"
    if width >= 2:
        if tier == "profile":
            return _COLORED, (
                "observed footprints from the profile store color this "
                "split layout into parallel lock-free waves "
                f"(max wave width {width})"
            ), "profiled"
        return _COLORED, (
            "exact group bounds admit parallel lock-free waves "
            f"(max wave width {width})"
        ), "static"
    if inputs["replication_bytes"] <= REPLICATION_BUDGET_BYTES:
        return _FR, "reduction object is small enough to replicate per thread", "static"
    contention = inputs["lock_contention_mean"]
    witness = "the previous traced run"
    if contention is None and history:
        means = [
            r["lock_contention_mean"]
            for r in history
            if isinstance(r.get("lock_contention_mean"), (int, float))
        ]
        if means:
            contention = inputs["lock_contention_mean"] = sum(means) / len(means)
            witness = "persisted run history"
    if tier is not None and contention is not None and (
        contention > CONTENTION_FEEDBACK_THRESHOLD
    ):
        profiled = witness == "persisted run history" or tier == "profile"
        return _COLORED, (
            f"replication is over the memory budget and {witness} "
            f"averaged {contention:.1f} lock acquisitions per "
            "split; serialized colored waves avoid both"
        ), "profiled" if profiled else "static"
    return SharedMemTechnique.CACHE_SENSITIVE_LOCKING, (
        "replicating the reduction object "
        f"({inputs['replication_bytes']} bytes across "
        f"{inputs['num_threads']} threads) exceeds the "
        f"{REPLICATION_BUDGET_BYTES}-byte budget"
    ), "static"


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
    fault_tolerant: bool = False,
    store: "ProfileStore | None" = None,
    lock_contention: "float | None" = None,
) -> ExecutionPlan:
    """Plan one run's pass over ``data`` (see the module docstring).

    ``technique`` is the engine's parsed request (``None`` for ``"auto"``),
    ``ro`` the run's fresh reduction object (read for its size only),
    ``fault_tolerant`` whether a fault policy is in force, and
    ``lock_contention`` the engine's last traced mean of lock acquisitions
    per split.  A request the engine refuses (a locking or colored
    technique on the process executor) is not re-checked here.
    """
    auto = technique is None
    # can this request execute waves at all
    colorable = executor != "process" and (auto or technique is _COLORED)

    alignment = None
    built: "list[Split] | None" = None
    if splitter is not None:
        built = splitter(data, num_threads)
        layout = _validate_custom_splits(built, data)
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

    def splits_of() -> "list[Split]":
        """The plan's one split list, built by its first reader."""
        nonlocal built
        if built is None:
            built = layout_splits(data, *layout)
        return built

    starts, ends = layout
    if not (isinstance(data, range) and data.step == 1):
        starts = ends = None
    elif data.start:
        starts, ends = starts + data.start, ends + data.start
    num_splits = len(layout[0])

    # in-process, no fault machinery: the only runs that read profiled
    # footprints or observe new ones
    plain = executor != "process" and not fault_tolerant
    key = profiled = history = None
    consulted = False  # was the store read for this request
    if store is not None:
        bound = spec.bound
        key = ProfileKey.of(
            bound.compiled.request.digest if bound is not None else None,
            splits_of(), num_threads,
        )
        if key.digest is not None and (auto or technique is _COLORED):
            consulted = True
            if plain:
                profiled = store.latest_footprints(key.digest, key.split_fingerprint)
            if auto:  # the only reader of history
                history = store.history(key.digest, key.shape_class)
    observable = plain and key is not None and key.digest is not None

    static = candidate = None
    if colorable or (observable and technique is _FR):
        static = _color(spec, splits_of(), ro.num_groups)
    if colorable:
        candidate = static
        if profiled is not None:
            wider = _color(None, splits_of(), ro.num_groups, profiled)
            if wider is not None and (
                static is None or wider.max_wave_width > static.max_wave_width
            ):
                candidate = wider

    chosen, reason, source = technique, None, None
    if auto or technique is _COLORED:
        # every signal the choice reads, recorded verbatim so a decision
        # can be replayed from its stats alone
        nbytes = ro.nbytes
        inputs = {
            "ro_bytes": nbytes,
            "num_groups": ro.num_groups,
            "num_threads": num_threads,
            "num_splits": num_splits,
            "executor": executor,
            "colorable": candidate is not None,
            "max_wave_width": candidate.max_wave_width if candidate is not None else 0,
            "replication_bytes": nbytes * num_threads,
            "replication_budget": REPLICATION_BUDGET_BYTES,
            "lock_contention_mean": lock_contention,
        }
        tier = candidate.source if candidate is not None else None
        if auto:
            chosen, reason, source = _choose_auto(inputs, tier, history)
        elif candidate is None:
            chosen = _FR
            reason = (
                "colored requires an exact plan-time group set for "
                "every split (spec.group_bounds hook or compiler "
                "bounds); none were available — falling back to "
                "full replication"
            )
        elif tier == "profile":
            source = "profiled"
            reason = (
                "static bounds color at best serial waves, but "
                "the profile store holds observed footprints "
                "for this program and split layout — coloring "
                "wider from profiled footprints"
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
        if source is not None:
            decision["source"] = source
            if consulted:
                decision["profile_key"] = key.as_dict()
    coloring = candidate if chosen is _COLORED else None

    observe, predicted = False, None
    if observable:
        if coloring is not None and coloring.source == "profile":
            # re-recording keeps the stored footprints fresh (self-healing
            # after a data change)
            observe = True
            predicted = {
                s.split_id: coloring.group_sets[i]
                for i, s in enumerate(splits_of())
            }
        elif chosen is _COLORED:
            # a degenerate colored schedule executes one split at a time,
            # so scratch observation is race-free
            observe = coloring.max_wave_width < 2
        elif chosen is _FR:
            # a statically wide coloring never needs profiling
            observe = static is None or static.max_wave_width < 2

    return ExecutionPlan(
        starts=starts, ends=ends, num_splits=num_splits, build_splits=splits_of,
        split_alignment=alignment, technique=chosen,
        decision=decision, coloring=coloring, observe=observe,
        predicted=predicted, profile_key=key,
    )
