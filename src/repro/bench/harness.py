"""Simulation harness: profiles x dataset scale x threads -> seconds.

Builds the phase sequence one version executes (sequential linearization,
dynamic chunked local reduction per iteration, per-iteration extras
linearization for opt-2, replication combination) and prices it on the
simulated machine.  Each phase name stands for the engine spans in
``ENGINE_SPANS``; only the *costs* come from the model, except where
``model_only`` says the engine runs nothing like the priced schedule.  The
locks, copies and waves priced are the engine's own: :func:`model_shape`
colors the priced chunk layout as the engine's planner does and reads
:func:`repro.freeride.plan.run_shape`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.profiles import PhaseWork, WorkloadProfile
from repro.freeride.coloring import color_splits, resolve_group_sets
from repro.freeride.plan import RunShape, run_shape
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.splitter import default_layout
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
    "model_shape",
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


#: chunks per thread for dynamic scheduling (k-means uses many small
#: chunks; Phoenix-style work queues balance them well)
CHUNKS_PER_THREAD = 4


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for one simulated run."""

    cost_model: CostModel = XEON_E5345
    #: fixed total chunk count (overrides :data:`CHUNKS_PER_THREAD`) — PCA's
    #: large elements give it a small, fixed number of splits, which is the
    #: paper's "difficulty in achieving perfect load balance"
    num_chunks: int | None = None
    technique: SharedMemTechnique = SharedMemTechnique.FULL_REPLICATION
    #: "sequential" is what the paper's implementation does ("linearization
    #: is done sequentially"); "parallel" models the future work it proposes
    #: ("performing linearization in parallel"), splitting the copy across
    #: threads; "overlap" models the other proposal ("overlapping
    #: linearization with processing of data" / the "pipelining strategy"):
    #: one thread streams the copy while the others start reducing.
    linearization_mode: str = "sequential"


def _layout(n_elements: int, num_threads: int, config: SimulationConfig):
    """The chunk layout the model prices: FREERIDE's default splitter."""
    return default_layout(
        n_elements, config.num_chunks or CHUNKS_PER_THREAD * num_threads
    )


def model_shape(
    pw: PhaseWork,
    n_elements: int,
    num_threads: int,
    config: SimulationConfig = SimulationConfig(),
) -> RunShape:
    """The shape the engine plans for one pass of ``pw`` over the priced
    layout: a colored run's waves come from the kernel's bounds, colored
    with the planner's own calls, and without bounds the run falls back to
    full replication, as the planner does."""
    layout = _layout(n_elements, num_threads, config)
    technique, coloring = config.technique, None
    if technique is SharedMemTechnique.COLORED:
        sets, source = resolve_group_sets(
            pw.bounds, range(n_elements), layout, pw.num_groups
        )
        if sets is None:
            technique = SharedMemTechnique.FULL_REPLICATION
        else:
            coloring = color_splits(sets, source)
    return run_shape(technique, num_threads, pw.ro_elements, len(layout[0]), coloring)


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
            per_thread = (cycles / num_threads,) * num_threads
            phases.append(ParallelPhase("linearization", per_thread))
        elif config.linearization_mode == "overlap":
            overlap_cycles = cycles  # fused into the first reduction phase
        else:
            phases.append(SequentialPhase("linearization", cycles))

    starts, ends = _layout(n_elements, num_threads, config)
    sizes = (ends - starts).tolist()
    # one iteration's phases, the same every iteration
    passes: list[Phase] = []
    if profile.extras_bytes_per_iteration:
        extras = OpCounters(bytes_linearized=profile.extras_bytes_per_iteration)
        passes.append(SequentialPhase("linearization", cm.cycles(extras)))
    for pw in profile.phases:
        shape = model_shape(pw, n_elements, num_threads, config)
        per_elem = pw.per_element.copy()
        if shape.num_locks:
            # every reduction-object update takes a (possibly contended)
            # cache-line lock
            factor = lock_contention_factor(num_threads, shape.num_locks)
            per_elem.lock_acquisitions = per_elem.ro_updates * factor
        cycles_per_element = cm.cycles(per_elem)
        # one phase per wave: a barrier separates the waves
        passes += [
            ParallelPhase(
                "local reduction", tuple(sizes[i] * cycles_per_element for i in wave)
            )
            for wave in shape.waves
        ]
        passes.append(
            CombinePhase(
                "combination", shape.private_copies, pw.ro_elements,
                cm.cycles_per_merge_element,
            )
        )
    phases += passes * iterations
    if overlap_cycles:
        # pipeline the one-time linearization with the first reduction wave
        i = next(i for i, p in enumerate(phases) if isinstance(p, ParallelPhase))
        phases[i] = OverlapPhase("local reduction", overlap_cycles, phases[i].chunk_costs)
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
    machine = SimMachine(config.cost_model, num_threads)
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
