"""Simulation harness: profiles x dataset scale x threads -> seconds.

Builds the phase sequence one version executes (sequential linearization,
dynamic chunked local reduction per iteration, per-iteration extras
linearization for opt-2, replication combination) and prices it on the
simulated machine.  Each phase name stands for the engine spans in
``ENGINE_SPANS``; only the *costs* come from the model, except where
``model_only`` says the engine runs nothing like the priced schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.profiles import WorkloadProfile
from repro.freeride.sharedmem import SharedMemTechnique, num_locks
from repro.machine.costmodel import XEON_E5345, CostModel
from repro.machine.counters import OpCounters
from repro.machine.simmachine import (
    CombinePhase,
    OverlapPhase,
    ParallelPhase,
    Phase,
    SequentialPhase,
    SimMachine,
    SimReport,
    lock_contention_factor,
)
from repro.util.errors import BenchmarkError
from repro.util.validation import check_positive_int

__all__ = [
    "SimulationConfig",
    "ENGINE_SPANS",
    "model_only",
    "model_phases",
    "simulate_profile",
    "sweep_threads",
    "ThreadSweep",
]

#: The engine spans each phase the harness emits prices: a traced engine run
#: names the work behind a modeled phase by these spans.  This is the one
#: place the model's phase names meet the engine's.
ENGINE_SPANS: dict[str, tuple[str, ...]] = {
    "linearization": ("linearize_data", "linearize_extras"),
    "local reduction": ("local",),
    "combination": ("local_combination",),
}


def model_only(phase: Phase) -> str | None:
    """Why no engine run does what ``phase`` prices, or None if one does."""
    if isinstance(phase, ParallelPhase) and phase.name == "linearization":
        return "the engine linearizes on one thread (Ablation B's parallel mode)"
    if isinstance(phase, OverlapPhase):
        return "the engine linearizes before it reduces; no run overlaps the two"
    if isinstance(phase, CombinePhase) and phase.resolved_strategy() == "parallel_merge":
        return "the engine merges all-to-one on one thread; no run merges as a tree"
    return None


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for one simulated run."""

    cost_model: CostModel = XEON_E5345
    #: chunks per thread for dynamic scheduling (k-means uses many small
    #: chunks; Phoenix-style work queues balance them well)
    chunks_per_thread: int = 4
    #: fixed total chunk count (overrides chunks_per_thread) — PCA's large
    #: elements give it a small, fixed number of splits, which is the
    #: paper's "difficulty in achieving perfect load balance"
    num_chunks: int | None = None
    technique: SharedMemTechnique = SharedMemTechnique.FULL_REPLICATION
    scheduling: str = "dynamic"
    #: "sequential" is what the paper's implementation does ("linearization
    #: is done sequentially"); "parallel" models the future work it proposes
    #: ("performing linearization in parallel"), splitting the copy across
    #: threads; "overlap" models the other proposal ("overlapping
    #: linearization with processing of data" / the "pipelining strategy"):
    #: one thread streams the copy while the others start reducing.
    linearization_mode: str = "sequential"


def _chunk_sizes(n: int, num_chunks: int) -> list[int]:
    base, extra = divmod(n, num_chunks)
    return [base + (1 if i < extra else 0) for i in range(num_chunks)]


def model_phases(
    profile: WorkloadProfile,
    n_elements: int,
    iterations: int,
    num_threads: int,
    config: SimulationConfig = SimulationConfig(),
) -> list[Phase]:
    """The phases one version runs at one thread count, unpriced."""
    check_positive_int(n_elements, "n_elements")
    check_positive_int(iterations, "iterations")
    check_positive_int(num_threads, "num_threads")
    cm = config.cost_model
    phases: list[Phase] = []

    if config.linearization_mode not in ("sequential", "parallel", "overlap"):
        raise BenchmarkError(
            f"unknown linearization_mode {config.linearization_mode!r}"
        )
    overlap_cycles = 0.0
    if profile.linearize_data:
        bytes_ = n_elements * profile.elem_bytes
        cycles = cm.cycles(OpCounters(bytes_linearized=bytes_))
        if config.linearization_mode == "parallel":
            per_thread = cycles / num_threads
            phases.append(
                ParallelPhase(
                    "linearization", tuple([per_thread] * num_threads)
                )
            )
        elif config.linearization_mode == "overlap":
            overlap_cycles = cycles  # fused into the first reduction phase
        else:
            phases.append(SequentialPhase("linearization", cycles))

    num_chunks = config.num_chunks or config.chunks_per_thread * num_threads
    if num_chunks < 1:
        raise BenchmarkError("need at least one chunk")
    sizes = _chunk_sizes(n_elements, num_chunks)

    replication = config.technique is SharedMemTechnique.FULL_REPLICATION
    # colored waves update the shared RO lock-free (like replication) but
    # keep a single copy (like locking), so the two gates below are
    # deliberately distinct
    lock_free = replication or config.technique is SharedMemTechnique.COLORED

    for _ in range(iterations):
        if profile.extras_bytes_per_iteration:
            phases.append(
                SequentialPhase(
                    "linearization",
                    cm.cycles(
                        OpCounters(
                            bytes_linearized=profile.extras_bytes_per_iteration
                        )
                    ),
                )
            )
        for pw in profile.phases:
            per_elem = pw.per_element.copy()
            if not lock_free:
                # every reduction-object update takes a (possibly contended)
                # cache-line lock
                factor = lock_contention_factor(
                    num_threads, num_locks(pw.ro_elements)
                )
                per_elem.lock_acquisitions = per_elem.ro_updates * factor
            cycles_per_element = cm.cycles(per_elem, config.technique)
            chunk_costs = tuple(s * cycles_per_element for s in sizes)
            if overlap_cycles > 0.0:
                # pipeline the one-time linearization with the first pass
                phases.append(
                    OverlapPhase(
                        "local reduction",
                        sequential_cycles=overlap_cycles,
                        chunk_costs=chunk_costs,
                        scheduling=config.scheduling,
                    )
                )
                overlap_cycles = 0.0
            else:
                phases.append(
                    ParallelPhase(
                        "local reduction",
                        chunk_costs,
                        scheduling=config.scheduling,
                    )
                )
            copies = num_threads if replication else 1
            phases.append(
                CombinePhase(
                    "combination",
                    num_copies=copies,
                    elements=pw.ro_elements,
                    cycles_per_element=cm.cycles_per_merge_element,
                )
            )
    return phases


def simulate_profile(
    profile: WorkloadProfile,
    n_elements: int,
    iterations: int,
    num_threads: int,
    config: SimulationConfig = SimulationConfig(),
) -> SimReport:
    """Price one version at one thread count."""
    phases = model_phases(profile, n_elements, iterations, num_threads, config)
    machine = SimMachine(config.cost_model, num_threads, scheduling=config.scheduling)
    return machine.run(phases)


@dataclass
class ThreadSweep:
    """One version's simulated times across thread counts."""

    version: str
    seconds: dict[int, float] = field(default_factory=dict)
    reports: dict[int, SimReport] = field(default_factory=dict)

    def speedup(self, threads: int) -> float:
        return self.seconds[min(self.seconds)] / self.seconds[threads]

    def phase_seconds(self, threads: int, name: str) -> float:
        return self.reports[threads].phase_seconds(name)


def sweep_threads(
    profile: WorkloadProfile,
    n_elements: int,
    iterations: int,
    thread_counts: tuple[int, ...] = (1, 2, 4, 8),
    config: SimulationConfig = SimulationConfig(),
) -> ThreadSweep:
    """Price one version across the paper's thread counts."""
    sweep = ThreadSweep(version=profile.version)
    for p in thread_counts:
        report = simulate_profile(profile, n_elements, iterations, p, config)
        sweep.seconds[p] = report.total_seconds
        sweep.reports[p] = report
    return sweep
