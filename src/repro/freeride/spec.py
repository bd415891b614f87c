"""The developer-facing FREERIDE reduction specification.

Paper §III-A: an application developer writes a *local reduction* function
(process one split, updating the reduction object) and optionally a *global
reduction* (combination) and a *finalize*.  The splitter and combination have
middleware-provided defaults, which the paper's applications use.

:class:`ReductionSpec` bundles those callables; :class:`ReductionArgs` is the
Python rendering of the C ``reduction_args_t*`` handed to the local reduction
function (the split's data plus the reduction-object handle and any
application extras such as the k-means centroids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import Lane
from repro.freeride.splitter import Split
from repro.util.errors import FreerideError

__all__ = ["ReductionArgs", "ReductionSpec"]


@dataclass
class ReductionArgs:
    """Arguments handed to the local reduction function for one split.

    Mirrors FREERIDE's ``reduction_args_t``: the split's data, the thread id,
    the reduction-object handle (whose ``accumulate`` is Table I's
    ``accumulate(int, int, void*)``), and application extras.

    ``ro`` is the lane itself on a direct run — its own
    :class:`~repro.freeride.reduction_object.ReductionObject` copy or view,
    or a :class:`~repro.freeride.sharedmem.LockingAccessor` on the shared
    copy — and a per-attempt scratch ``ReductionObject`` under a fault
    policy: the same five update methods either way.

    ``attempt`` is 1 for normal execution; under a fault policy it counts
    the processing attempts of this split (2 on the first retry, ...), so
    reduction functions and tests can observe recovery.  Reduction functions
    must stay idempotent per split — a retried attempt runs against a fresh
    scratch reduction object, but any *external* side effects would repeat.
    """

    data: Any
    split: Split
    thread_id: int
    ro: Lane
    extras: dict[str, Any] = field(default_factory=dict)
    attempt: int = 1

    def __len__(self) -> int:
        return len(self.split)


@dataclass
class ReductionSpec:
    """A complete FREERIDE application specification.

    ``setup_reduction_object``
        allocates groups on a fresh reduction object (called once per run —
        corresponds to ``reduction_object_alloc`` in the init section).
    ``reduction``
        the local reduction: processes every element of a split and updates
        the reduction object through ``args.ro.accumulate``.
    ``combination``
        optional override of the middleware's default merge of per-thread
        copies.  ``None`` selects the default combination function, which is
        what the paper's applications use.
    ``finalize``
        optional post-processing producing the run's result from the final
        reduction object (the ``generate`` of the Chapel model).
    ``extras``
        read-only application state visible to the reduction function
        (e.g. the current centroids).  Must not be mutated during a run.
    ``bound``
        the live binding, on specs built by ``BoundReduction.make_spec``
        (``None`` on a hand-written spec).  The engine reads the kernel's
        identity (``bound.compiled.request``) and counter ledger from it;
        the ``"process"`` executor, which cannot ship the closures above,
        builds each run's task payload from it *when the run starts*, so a
        rebind after ``make_spec`` reaches the workers.
    ``group_bounds``
        how the COLORED technique learns which reduction-object groups each
        split's updates can touch.  Either a callable hook
        ``(split, num_groups) -> iterable of group ids | None`` for
        reductions whose footprint varies per split, or an object with
        ``groups_for_range(start, end, num_groups) -> frozenset | None``,
        asked at element values, and optionally ``alignment`` (an ``int``
        split-boundary hint) and ``evaluations`` (footprints computed, for
        the delta replay planner's probe count) — the compiler's
        :class:`~repro.analysis.effects.EffectSummary`, which ``make_spec``
        attaches.  ``None`` means unknown — the engine then falls back from
        colored.
    ``reduce_ranges``
        ``reduce_ranges(starts, ends, ro)`` is the local reduction over the
        element ranges ``[starts[i], ends[i])`` (two int64 arrays of global
        positions), in order, into ``ro`` — the one way a list of ranges
        enters a kernel.  ``BoundReduction.make_spec`` sets it for every
        tier, over engine data that is the index range itself; a
        hand-written spec gets one over its data from :meth:`slice_ranges`.
    ``lane_wave``
        set when ``reduce_ranges`` walks its ranges without the interpreter
        (a native kernel: one GIL-released C call; ``make_spec`` sets it for
        those, ``None`` elsewhere).  Direct, untraced lanes that own their
        target (replicas, colored cells) then pass whole batches of splits
        through ``reduce_ranges`` instead of looping over them, and a
        threaded wave of them goes here: ``lane_wave(owner, starts, ends,
        lanes)`` runs the wave's ranges (ascending, as ``reduce_ranges``
        takes them) on a lane team — ``len(lanes)`` threads that claim
        batches of them without the interpreter, lane ``k`` into
        ``lanes[k]``.  ``owner.team`` keeps the team between waves (``None``
        before the first) and ``close()`` stops it.  Returns ``(elements,
        splits)`` per lane, or ``None`` when no team can exist here and the
        caller must run the lanes itself.
    """

    name: str
    setup_reduction_object: Callable[[ReductionObject], None]
    reduction: Callable[[ReductionArgs], None]
    combination: Callable[[list[ReductionObject]], ReductionObject] | None = None
    finalize: Callable[[ReductionObject], Any] | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    bound: Any = None
    group_bounds: Any = None
    reduce_ranges: Callable[[np.ndarray, np.ndarray, Lane], None] | None = None
    lane_wave: Callable[
        [Any, np.ndarray, np.ndarray, list[ReductionObject]], list[tuple[int, int]] | None
    ] | None = None

    def __post_init__(self) -> None:
        if not callable(self.setup_reduction_object):
            raise FreerideError("setup_reduction_object must be callable")
        if not callable(self.reduction):
            raise FreerideError("reduction must be callable")
        if self.combination is not None and not callable(self.combination):
            raise FreerideError("combination must be callable or None")
        if self.finalize is not None and not callable(self.finalize):
            raise FreerideError("finalize must be callable or None")

    def slice_ranges(
        self, data: Any
    ) -> Callable[[np.ndarray, np.ndarray, Lane], None]:
        """A ``reduce_ranges`` hook for this spec over sliceable ``data``:
        ``reduction`` on each range's slice and position-true split."""

        def reduce_ranges(starts: np.ndarray, ends: np.ndarray, ro: Lane) -> None:
            for start, end in zip(starts.tolist(), ends.tolist()):
                chunk = data[start:end]
                self.reduction(
                    ReductionArgs(
                        data=chunk,
                        split=Split(split_id=0, start=start, end=end, data=chunk),
                        thread_id=0,
                        ro=ro,
                        extras=self.extras,
                    )
                )

        return reduce_ranges

    def build_reduction_object(self) -> ReductionObject:
        """Allocate and initialize a fresh reduction object for a run."""
        ro = ReductionObject()
        self.setup_reduction_object(ro)
        if ro.num_groups == 0:
            raise FreerideError(
                f"spec {self.name!r} allocated no reduction-object groups"
            )
        return ro
