"""A deterministic simulated multicore machine.

Executes *phase descriptions* — not code — against per-thread clocks, which
is how the benchmarks turn counted work into the paper's thread-scaling
curves.  The machine models exactly the effects the paper's §V discusses:

* the **local reduction** phase is a set of chunks scheduled dynamically
  (Phoenix-style work queue) or statically onto ``num_threads`` threads;
  makespan = the latest thread, so skewed chunk costs produce the load
  imbalance the paper sees for PCA at 8 threads;
* **linearization** is a sequential phase (the paper: "linearization is done
  sequentially.  This points to the need for performing linearization in
  parallel ..."), so its share of runtime grows with threads;
* **combination** phases pay per-merge costs on a critical path of
  ``p - 1`` (all-to-one) or ``ceil(log2 p)`` (parallel merge) rounds.

The simulator is deterministic: identical phases and thread counts always
produce identical times.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.machine.costmodel import CostModel
from repro.util.errors import MachineError
from repro.util.validation import check_one_of, check_positive_int

__all__ = [
    "ParallelPhase",
    "SequentialPhase",
    "CombinePhase",
    "OverlapPhase",
    "Phase",
    "PhaseResult",
    "SimReport",
    "SimMachine",
    "lock_contention_factor",
]


@dataclass(frozen=True)
class ParallelPhase:
    """Chunked work scheduled across threads; ``chunk_costs`` are cycles
    per chunk."""

    name: str
    chunk_costs: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.chunk_costs):
            raise MachineError(f"phase {self.name}: negative chunk cost")


@dataclass(frozen=True)
class SequentialPhase:
    """Work performed by a single thread while the others wait."""

    name: str
    cost_cycles: float

    def __post_init__(self) -> None:
        if self.cost_cycles < 0:
            raise MachineError(f"phase {self.name}: negative cost")


@dataclass(frozen=True)
class CombinePhase:
    """Merging ``num_copies`` reduction-object copies of ``elements`` cells
    (none when the run shares one copy).

    ``strategy``: ``"all_to_one"``, ``"parallel_merge"``, or ``"auto"``
    (parallel merge when the object is at least ``auto_threshold_elements``).
    """

    name: str
    num_copies: int
    elements: int
    cycles_per_element: float
    strategy: str = "auto"
    auto_threshold_elements: int = 8192

    def __post_init__(self) -> None:
        check_one_of(self.strategy, ("auto", "all_to_one", "parallel_merge"), "strategy")
        if self.num_copies < 0 or self.elements < 0:
            raise MachineError(f"phase {self.name}: invalid copies/elements")

    def resolved_strategy(self) -> str:
        if self.strategy != "auto":
            return self.strategy
        return (
            "parallel_merge"
            if self.elements >= self.auto_threshold_elements
            else "all_to_one"
        )

    def critical_path_cycles(self, num_threads: int) -> float:
        """Cycles on the critical path of the merge schedule."""
        if self.num_copies <= 1:
            return 0.0
        merge_cost = self.elements * self.cycles_per_element
        if self.resolved_strategy() == "all_to_one":
            return (self.num_copies - 1) * merge_cost
        # Parallel merge: each round halves the copies; merges within a
        # round run concurrently as far as threads allow.
        copies = self.num_copies
        total = 0.0
        while copies > 1:
            merges = copies // 2
            waves = math.ceil(merges / max(1, num_threads))
            total += waves * merge_cost
            copies = copies - merges
        return total


@dataclass(frozen=True)
class OverlapPhase:
    """Sequential work pipelined with chunked parallel work.

    Models the paper's proposed "pipelining strategy ... overlapping
    linearization with processing of data": one thread streams the
    sequential work (linearizing ahead of the consumers) while the
    remaining ``p - 1`` threads process chunks; once the sequential stream
    finishes, all ``p`` threads process.  With one thread there is nothing
    to overlap with and the phase degenerates to the plain sum.
    """

    name: str
    sequential_cycles: float
    chunk_costs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.sequential_cycles < 0 or any(c < 0 for c in self.chunk_costs):
            raise MachineError(f"phase {self.name}: negative cost")

    def makespan_cycles(self, num_threads: int) -> float:
        total_parallel = sum(self.chunk_costs)
        if num_threads <= 1:
            return self.sequential_cycles + total_parallel
        seq = self.sequential_cycles
        # Phase A: p-1 workers while the producer streams.
        workers = num_threads - 1
        capacity_during_seq = seq * workers
        if capacity_during_seq >= total_parallel:
            # consumers finish under the producer's shadow; the producer
            # bounds the phase (consumers can't outrun the data, but the
            # work fits regardless)
            return max(seq, total_parallel / workers)
        # Phase B: remaining work on all p threads after the producer ends.
        remaining = total_parallel - capacity_during_seq
        return seq + remaining / num_threads


Phase = ParallelPhase | SequentialPhase | CombinePhase | OverlapPhase


@dataclass
class PhaseResult:
    """Simulated outcome of one phase."""

    name: str
    seconds: float
    #: each thread's busy time in a parallel phase; empty for the others
    thread_busy_seconds: list[float] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Busy fraction across threads during this phase (1.0 = perfect)."""
        if not self.thread_busy_seconds or self.seconds == 0:
            return 1.0
        p = len(self.thread_busy_seconds)
        return sum(self.thread_busy_seconds) / (p * self.seconds)


@dataclass
class SimReport:
    """Full simulated run: per-phase and total times."""

    num_threads: int
    phases: list[PhaseResult]

    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases)

    def phase_seconds(self, name: str) -> float:
        return sum(p.seconds for p in self.phases if p.name == name)


class SimMachine:
    """Prices phase lists into wall-clock seconds on the modeled machine."""

    def __init__(
        self, cost_model: CostModel, num_threads: int = 1, scheduling: str = "dynamic"
    ) -> None:
        self.cost_model = cost_model
        self.num_threads = check_positive_int(num_threads, "num_threads")
        #: one policy for every parallel phase of a run
        self.scheduling = check_one_of(scheduling, ("dynamic", "static"), "scheduling")

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, costs: Sequence[float]) -> list[float]:
        """Assign chunks to threads; returns per-thread busy cycles."""
        busy = [0.0] * self.num_threads
        if self.scheduling == "static":
            for i, c in enumerate(costs):
                busy[i % self.num_threads] += c
            return busy
        # Dynamic: a work queue in chunk order; the next chunk goes to the
        # thread that frees up first (deterministic tie-break by thread id).
        heap = [(0.0, t) for t in range(self.num_threads)]
        heapq.heapify(heap)
        for c in costs:
            clock, t = heapq.heappop(heap)
            busy[t] += c
            heapq.heappush(heap, (clock + c, t))
        return busy

    # -- simulation ----------------------------------------------------------

    def run(self, phases: Sequence[Phase]) -> SimReport:
        """Simulate a run as a barrier-separated sequence of phases."""
        hz = self.cost_model.clock_hz
        results: list[PhaseResult] = []
        for phase in phases:
            busy: list[float] = []
            if isinstance(phase, ParallelPhase):
                busy = self._schedule(phase.chunk_costs)
                cycles = max(busy)
            elif isinstance(phase, SequentialPhase):
                cycles = phase.cost_cycles
            elif isinstance(phase, CombinePhase):
                cycles = phase.critical_path_cycles(self.num_threads)
            elif isinstance(phase, OverlapPhase):
                cycles = phase.makespan_cycles(self.num_threads)
            else:
                raise MachineError(f"unknown phase type {type(phase)!r}")
            results.append(PhaseResult(phase.name, cycles / hz, [b / hz for b in busy]))
        return SimReport(num_threads=self.num_threads, phases=results)


def lock_contention_factor(num_threads: int, num_locks: int) -> float:
    """Expected inflation of lock cost under uniform contention.

    With ``p`` threads hashing updates uniformly into ``L`` locks, the
    expected number of waiters ahead of an acquirer grows like
    ``(p - 1) / L``; the factor inflates the uncontended acquisition cost.
    A coarse M/M/1-flavored model — adequate for the shared-memory ablation,
    which only needs the *ordering* of techniques to be right.
    """
    check_positive_int(num_threads, "num_threads")
    if num_locks < 1:
        raise MachineError("num_locks must be >= 1")
    return 1.0 + (num_threads - 1) / num_locks
