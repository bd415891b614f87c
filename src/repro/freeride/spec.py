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
from repro.freeride.sharedmem import ROAccessor
from repro.freeride.splitter import Split
from repro.util.errors import FreerideError

__all__ = ["ReductionArgs", "ReductionSpec", "KernelSpec"]


@dataclass
class KernelSpec:
    """A compact, picklable description of a compiled reduction kernel.

    The ``"process"`` executor cannot ship a :class:`ReductionSpec` to
    worker processes — its callables close over live numpy views and the
    parent's environment.  Instead, ``BoundReduction.make_spec`` attaches
    one of these: workers receive only the program (digest + source +
    constants + version + backend), re-key it into their own process-wide
    kernel cache (compiled once per worker on first miss), and rebind it
    against the shared-memory copy of the linearized dataset.

    ``bound`` and ``counters`` are *parent-side only* — the live
    ``BoundReduction`` whose dataset buffer, element count and extras each
    run's task payload is read from *when the run starts* (so a rebind
    after ``make_spec`` reaches the workers, as it reaches the in-process
    executors through the kernel's env), and its
    :class:`~repro.machine.counters.OpCounters` ledger into which the
    engine folds the per-split counter deltas workers ship back.  Neither
    is ever pickled; the per-task payloads carry segment descriptors and
    fresh counter objects instead.
    """

    digest: str
    source: Any
    constants: dict[str, Any]
    opt_level: int
    backend: str
    class_name: str | None
    ro_layout: tuple[tuple[int, str], ...]
    #: the backend tier the compiled kernel actually dispatches to in the
    #: parent after fallbacks (native/batch/scalar) — recorded into
    #: persisted run profiles so history lookups can tell tiers apart
    effective_backend: str = "scalar"
    #: for native-tier kernels: True when the ``.so`` came from the on-disk
    #: kernel cache, False when this process ran the C compiler; ``None``
    #: for non-native tiers (also surfaced in persisted run profiles)
    native_disk_hit: bool | None = None
    #: for delta runs: the ``[start, end)`` element range this run covers —
    #: the appended tail of an incrementally grown dataset.  ``None`` for
    #: ordinary full runs.  All kernel tiers already take ``(_start,
    #: _end)``, so executors run delta ranges unmodified; the engine uses
    #: this to split only the range and to republish only the tail of the
    #: shared-memory dataset segment.
    delta_range: tuple[int, int] | None = None
    #: stable session key for shared-memory publication.  ``None`` selects
    #: the content-addressed cache (one segment per distinct buffer);
    #: delta sessions set a key so the engine publishes into one growable
    #: segment and ships only the appended tail on each delta run.
    shm_session: str | None = None
    bound: Any = field(repr=False, default=None)
    counters: Any = field(repr=False, default=None)


@dataclass
class ReductionArgs:
    """Arguments handed to the local reduction function for one split.

    Mirrors FREERIDE's ``reduction_args_t``: the split's data, the thread id,
    the reduction-object accessor (whose ``accumulate`` is Table I's
    ``accumulate(int, int, void*)``), and application extras.

    ``ro`` is the lane's :class:`~repro.freeride.sharedmem.ROAccessor` on a
    direct run and a per-attempt scratch
    :class:`~repro.freeride.reduction_object.ReductionObject` under a fault
    policy or footprint observation: the same five update methods either way.

    ``attempt`` is 1 for normal execution; under a fault policy it counts
    the processing attempts of this split (2 on the first retry, ...), so
    reduction functions and tests can observe recovery.  Reduction functions
    must stay idempotent per split — a retried attempt runs against a fresh
    scratch reduction object, but any *external* side effects would repeat.
    """

    data: Any
    split: Split
    thread_id: int
    ro: ROAccessor | ReductionObject
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
    ``kernel_spec``
        present only on specs built by ``BoundReduction.make_spec``: the
        picklable :class:`KernelSpec` the ``"process"`` executor ships to
        worker processes instead of the closures above.
    ``group_bounds``
        how the COLORED technique learns which reduction-object groups each
        split's updates can touch.  Either a callable
        ``(split, num_groups) -> iterable of group ids | None`` for
        reductions whose footprint varies per split, or a
        :class:`~repro.compiler.groupbounds.GroupBounds` result attached by
        the compiler (``BoundReduction.make_spec`` does this automatically).
        ``None`` means unknown — the engine then falls back from colored.
    ``reduce_ranges``
        ``reduce_ranges(starts, ends, ro)`` is the local reduction over the
        element ranges ``[starts[i], ends[i])`` (two int64 arrays of global
        positions), in order, into ``ro`` — the one way a list of ranges
        enters a kernel.  ``BoundReduction.make_spec`` sets it for every
        tier, over engine data that is the index range itself; a
        hand-written spec gets one over its data from :meth:`slice_ranges`.
    ``ranges_in_one_call``
        True when ``reduce_ranges`` walks its ranges without the
        interpreter (a native kernel: one GIL-released C call).  Direct,
        untraced lanes that own their target (replicas, colored cells) then
        pass whole batches of splits through it instead of looping over them.
    """

    name: str
    setup_reduction_object: Callable[[ReductionObject], None]
    reduction: Callable[[ReductionArgs], None]
    combination: Callable[[list[ReductionObject]], ReductionObject] | None = None
    finalize: Callable[[ReductionObject], Any] | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    kernel_spec: KernelSpec | None = None
    group_bounds: Any = None
    reduce_ranges: Callable[[np.ndarray, np.ndarray, ROAccessor], None] | None = None
    ranges_in_one_call: bool = False

    def __post_init__(self) -> None:
        if not callable(self.setup_reduction_object):
            raise FreerideError("setup_reduction_object must be callable")
        if not callable(self.reduction):
            raise FreerideError("reduction must be callable")
        if self.combination is not None and not callable(self.combination):
            raise FreerideError("combination must be callable or None")
        if self.finalize is not None and not callable(self.finalize):
            raise FreerideError("finalize must be callable or None")
        if self.kernel_spec is not None and not isinstance(self.kernel_spec, KernelSpec):
            raise FreerideError("kernel_spec must be a KernelSpec or None")

    def slice_ranges(
        self, data: Any
    ) -> Callable[[np.ndarray, np.ndarray, ROAccessor], None]:
        """A ``reduce_ranges`` hook for this spec over sliceable ``data``:
        ``reduction`` on each range's slice and position-true split."""

        def reduce_ranges(starts: np.ndarray, ends: np.ndarray, ro: ROAccessor) -> None:
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
