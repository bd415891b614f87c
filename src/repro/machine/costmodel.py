"""The cycle-cost model pricing :class:`~repro.machine.counters.OpCounters`.

The constants model the paper's testbed: an 8-core (2x quad) Intel Xeon
E5345 at 2.33 GHz running compiled C code.  They were calibrated once
against the paper's Figure 9 ratios (see ``tests/bench/test_calibration.py``)
and are then held fixed for every other figure:

* ``generated``/``opt-1`` gap ~ 10 percent (computeIndex hoisting),
* ``opt-1``/``opt-2`` gap ~ 8x (nested Chapel accesses vs linear buffer),
* ``opt-2``/``manual`` gap < 20 percent at one thread (mapping residue and
  sequential linearization).

Rationale for the big constants:

``cycles_per_nested_access`` (2) + ``cycles_per_nested_deep_step`` (23)
    An access through an un-linearized Chapel structure costs a cheap base
    (the outer descriptor stays cached — a flat array read like PCA's
    ``mean[b]`` is barely worse than a linear read, which is why the paper
    sees no opt-2 benefit for PCA) plus ~23 cycles for every *additional*
    chain step: ``centroids[c].coord[d]`` is 3 steps (~48 cycles), each
    a wide-pointer indirection with poor locality on a 2007 Xeon —
    consistent with the ~8x opt-2 gain the paper measures for k-means.
``cycles_per_byte_linearized`` (6.25, i.e. ~50 cycles per 8-byte scalar)
    Algorithm 2 is a recursive, type-dispatching walk that touches every
    scalar of the nested structure once.
``cycles_per_index_call``/``level`` (3.3 / 1)
    ``computeIndex`` for the 2-3 level structures of the paper is a short
    call plus a multiply-add per level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.machine.counters import OpCounters
from repro.util.errors import MachineError

__all__ = ["CostModel", "XEON_E5345"]


@dataclass(frozen=True)
class CostModel:
    """Per-operation cycle costs plus the machine clock."""

    clock_hz: float = 2.33e9  # paper's Xeon E5345
    cycles_per_flop: float = 1.0
    cycles_per_linear_read: float = 1.5
    cycles_per_linear_write: float = 2.0
    cycles_per_nested_access: float = 2.0
    cycles_per_nested_deep_step: float = 23.0
    cycles_per_nested_write: float = 4.0
    cycles_per_index_call: float = 3.3
    cycles_per_index_level: float = 1.0
    cycles_per_ro_update: float = 2.0
    cycles_per_byte_linearized: float = 6.25
    cycles_per_merge_element: float = 2.0
    #: uncontended lock acquire+release cost under cache-sensitive locking,
    #: the one technique whose runs take locks (``RunShape.num_locks``)
    cycles_per_lock_cache_sensitive: float = 24.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise MachineError("clock_hz must be positive")

    def cycles(self, counters: OpCounters) -> float:
        """Price a counter ledger in cycles."""
        c = counters
        return (
            c.flops * self.cycles_per_flop
            + c.linear_reads * self.cycles_per_linear_read
            + c.linear_writes * self.cycles_per_linear_write
            + c.nested_reads * self.cycles_per_nested_access
            + max(0.0, c.nested_steps - c.nested_reads)
            * self.cycles_per_nested_deep_step
            + c.nested_writes * self.cycles_per_nested_write
            + c.index_calls * self.cycles_per_index_call
            + c.index_levels * self.cycles_per_index_level
            + c.ro_updates * self.cycles_per_ro_update
            + c.bytes_linearized * self.cycles_per_byte_linearized
            + c.merge_elements * self.cycles_per_merge_element
            + c.lock_acquisitions * self.cycles_per_lock_cache_sensitive
        )

    def seconds(self, counters: OpCounters) -> float:
        """Price a counter ledger in seconds on this machine's clock."""
        return self.cycles(counters) / self.clock_hz

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """A copy with some constants replaced (for ablation studies)."""
        return replace(self, **kwargs)


#: The calibrated default model (paper's testbed).
XEON_E5345 = CostModel()
