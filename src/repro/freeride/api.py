"""The Table I FREERIDE API, as a procedural facade.

The paper's Table I lists the functions an application developer writes
(``reduction_t``, ``combination_t``, ``finalize_t``) and the functions the
middleware provides (``splitter_t`` default, ``reduction_object_alloc``,
``accumulate``, ``get_intermediate_result``).  This module reproduces that
surface on top of :class:`~repro.freeride.runtime.FreerideEngine`, preserving
the C usage pattern:

.. code-block:: python

    ctx = FreerideContext(num_threads=4)
    g = ctx.reduction_object_alloc(num_elems=3)          # init section

    def reduction(args):                                 # reduction_t
        for x in args.data:
            ctx.accumulate(g, 0, x)                      # Table I accumulate

    ctx.register_reduction(reduction)
    result = ctx.run(data)
    total = ctx.get_intermediate_result(g, 0)            # after the run

``accumulate`` inside a reduction routes to the calling thread's lane —
its own reduction-object copy or view, or its locking handle on the shared
copy — through thread-local state, exactly as the C implementation routes
through the per-thread handle.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Protocol

from repro.freeride.faults import FaultInjector, FaultPolicy
from repro.freeride.reduction_object import AccumulateOp, ReductionObject
from repro.freeride.runtime import FreerideEngine, ReductionResult
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.freeride.splitter import Split
from repro.util.errors import FreerideError

__all__ = [
    "reduction_t",
    "combination_t",
    "finalize_t",
    "splitter_t",
    "FreerideContext",
]


class reduction_t(Protocol):
    """``void (*reduction_t)(reduction_args_t*)`` — the local reduction."""

    def __call__(self, args: ReductionArgs) -> None: ...


class combination_t(Protocol):
    """``void (*combination_t)(void*)`` — custom copy combination."""

    def __call__(self, copies: list[ReductionObject]) -> ReductionObject: ...


class finalize_t(Protocol):
    """``(*finalize_t)(void*)`` — post-reduction output step."""

    def __call__(self, ro: ReductionObject) -> Any: ...


class splitter_t(Protocol):
    """``int (*splitter_t)(void*, int, reduction_args_t*)`` — data splitter."""

    def __call__(self, data: Any, req_units: int) -> list[Split]: ...


class FreerideContext:
    """A procedural FREERIDE session (init / register / run / read)."""

    def __init__(
        self,
        num_threads: int = 1,
        technique: SharedMemTechnique | str = SharedMemTechnique.FULL_REPLICATION,
        executor: str = "serial",
        chunk_size: int | None = None,
        extras: dict[str, Any] | None = None,
        fault_policy: "FaultPolicy | None" = None,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self._engine_kwargs: dict[str, Any] = dict(
            num_threads=num_threads,
            technique=technique,
            executor=executor,
            chunk_size=chunk_size,
            fault_policy=fault_policy,
            fault_injector=fault_injector,
        )
        self._engine = FreerideEngine(**self._engine_kwargs)
        self._allocs: list[tuple[int, AccumulateOp]] = []
        self._reduction: Callable[[ReductionArgs], None] | None = None
        self._combination: Callable[[list[ReductionObject]], ReductionObject] | None = None
        self._finalize: Callable[[ReductionObject], Any] | None = None
        self._extras: dict[str, Any] = dict(extras or {})
        self._tls = threading.local()
        self._last: ReductionResult | None = None

    # -- init section -----------------------------------------------------------

    def reduction_object_alloc(self, num_elems: int, op: AccumulateOp = "add") -> int:
        """Declare a reduction-object group; returns its unique group id.

        "Initialize the reduction object and assign a unique ID for each
        element of the reduction object as the index." (Table I)
        """
        if self._last is not None:
            raise FreerideError("cannot allocate after a run; create a new context")
        gid = len(self._allocs)
        self._allocs.append((num_elems, op))
        return gid

    def register_reduction(self, fn: reduction_t) -> None:
        """Register the user's ``reduction_t``."""
        self._reduction = fn

    def register_combination(self, fn: combination_t) -> None:
        """Register a custom ``combination_t`` (default: middleware merge)."""
        self._combination = fn

    def register_finalize(self, fn: finalize_t) -> None:
        """Register the ``finalize_t`` output step."""
        self._finalize = fn

    def register_splitter(self, fn: splitter_t) -> None:
        """Override the middleware's default ``splitter_t``.

        The splitter must return an exact ordered partition of the input;
        the engine validates it on every run.
        """
        self._engine = FreerideEngine(**self._engine_kwargs, splitter=fn)

    # -- reduction-time API -------------------------------------------------------

    def accumulate(self, group: int, elem: int, value: float) -> None:
        """Table I ``accumulate``: update the reduction object.

        Valid only inside a running reduction function; routes to the calling
        thread's lane (``ReductionArgs.ro``).
        """
        lane = getattr(self._tls, "lane", None)
        if lane is None:
            raise FreerideError("accumulate() is only valid inside a reduction")
        lane.accumulate(group, elem, value)

    # -- run ---------------------------------------------------------------------

    def run(self, data: Any) -> ReductionResult:
        """Execute the reduction over ``data`` (one reduction-loop pass)."""
        if self._reduction is None:
            raise FreerideError("no reduction function registered")
        if not self._allocs:
            raise FreerideError("no reduction-object groups allocated")

        allocs = list(self._allocs)

        def setup(ro: ReductionObject) -> None:
            ro.alloc_many(allocs)

        user_reduction = self._reduction
        tls = self._tls

        def wrapped_reduction(args: ReductionArgs) -> None:
            tls.lane = args.ro
            try:
                user_reduction(args)
            finally:
                tls.lane = None

        spec = ReductionSpec(
            name="freeride-context",
            setup_reduction_object=setup,
            reduction=wrapped_reduction,
            combination=self._combination,
            finalize=self._finalize,
            extras=self._extras,
        )
        self._last = self._engine.run(spec, data)
        return self._last

    # -- post-run reads -------------------------------------------------------------

    def get_intermediate_result(self, group: int, elem: int) -> float:
        """Table I ``get_intermediate_result``: read a combined element."""
        if self._last is None:
            raise FreerideError("no run has completed yet")
        return self._last.ro.get(group, elem)

    @property
    def result(self) -> ReductionResult:
        if self._last is None:
            raise FreerideError("no run has completed yet")
        return self._last
