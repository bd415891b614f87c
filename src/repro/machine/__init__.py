"""Simulated multicore machine: operation counters, cost model, scheduler.

This substrate substitutes for the paper's 8-core Xeon E5345 testbed (see
DESIGN.md §2): instrumented kernels count abstract operations, the cost
model prices them in cycles, and the simulated machine schedules chunked
work over threads to produce deterministic wall-clock estimates whose
*shapes* reproduce the paper's figures.
"""

from repro.machine.costmodel import XEON_E5345, CostModel
from repro.machine.counters import OpCounters
from repro.machine.simmachine import (
    CombinePhase,
    OverlapPhase,
    ParallelPhase,
    Phase,
    PhaseResult,
    SequentialPhase,
    SimMachine,
    SimReport,
    lock_contention_factor,
)

__all__ = [
    "OpCounters",
    "CostModel",
    "XEON_E5345",
    "SimMachine",
    "SimReport",
    "Phase",
    "PhaseResult",
    "ParallelPhase",
    "SequentialPhase",
    "CombinePhase",
    "OverlapPhase",
    "lock_contention_factor",
]
