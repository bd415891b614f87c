"""FREERIDE middleware substrate.

A faithful Python rendering of the FREERIDE (FRamework for Rapid
Implementation of Datamining Engines) multicore API the paper targets
(Jiang, Ravi & Agrawal, CCGRID 2010 — the Phoenix-based implementation):
an explicit, dense *reduction object*; fused process+reduce over splits of
the input (no intermediate key/value pairs); per-technique shared-memory
combination; and the all-to-one combination that folds the per-thread
copies into the run's reduction object.
"""

from repro.freeride.api import FreerideContext
from repro.freeride.faults import (
    FAIL_FAST,
    SKIP_AND_REPORT,
    FaultInjector,
    FaultPolicy,
    InjectedFault,
    SplitFailureRecord,
    SplitTimeout,
)
from repro.freeride.combination import (
    CombinationStats,
    all_to_one_combine,
    combine,
    parallel_merge_combine,
)
from repro.freeride.reduction_object import ACCUMULATE_OPS, ReductionObject
from repro.freeride.runtime import FreerideEngine, ReductionResult, RunStats
from repro.freeride.sharedmem import (
    ELEMS_PER_CACHE_LINE,
    LockingAccessor,
    SharedMemManager,
    SharedMemStats,
    SharedMemTechnique,
)
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.freeride.splitter import Split, SplitQueue, chunked_splitter, default_splitter

__all__ = [
    "FreerideContext",
    "FreerideEngine",
    "ReductionResult",
    "RunStats",
    "ReductionObject",
    "ACCUMULATE_OPS",
    "ReductionArgs",
    "ReductionSpec",
    "Split",
    "SplitQueue",
    "default_splitter",
    "chunked_splitter",
    "SharedMemTechnique",
    "SharedMemManager",
    "SharedMemStats",
    "LockingAccessor",
    "ELEMS_PER_CACHE_LINE",
    "FaultPolicy",
    "FaultInjector",
    "InjectedFault",
    "SplitTimeout",
    "SplitFailureRecord",
    "FAIL_FAST",
    "SKIP_AND_REPORT",
    "CombinationStats",
    "combine",
    "all_to_one_combine",
    "parallel_merge_combine",
]
