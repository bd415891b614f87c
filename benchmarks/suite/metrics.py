"""The benchmark's metric and workload declarations.

``BENCHMARK.json`` at the repo root repeats the names, units and
directions declared here (the self-test checks the two agree); this module
adds what that file has no room for: the layer each per-layer metric
belongs to and the end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

from typing import NamedTuple

# Why each workload exists (one line each; BENCHMARK.json repeats them).
WORKLOADS: dict[str, str] = {
    "dense_steady": (
        "k-means, PCA and histogram over large flat arrays in <= W splits: the "
        "paper's Fig 9-13 regime, the generated kernel does nearly all the work"
    ),
    "fine_splits": (
        "the same programs cut into hundreds to thousands of splits, one with a "
        "1,024-group reduction object: per-split launch and commit dominate"
    ),
    "nested_linearize": (
        "datasets that are nested Chapel records, so every pass runs "
        "Algorithm 1-2: sequential linearization dominates (Fig 11, i = 1)"
    ),
    "delta_epochs": (
        "append/retract epochs at 0.5 % churn on a checkpointed reduction "
        "object: the commit, checkpoint and replay paths, not the full pass"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    bound: float  # share of the parent's median the metric may worsen by
    what: str


# All lower-is-better.  ``failed_share`` is the fifth user-visible number;
# it is 0 on a healthy run, so it travels as ``attempted``/``failed`` in
# the result line instead of as a bounded metric.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", 0.25,
             "median in-process cold start: empty kernel cache, source text -> "
             "compile every case -> bind -> engines -> first verified pass"),
    EndToEnd("pass_s", "s", 0.20,
             "median steady-state pass over the case list, serial executor"),
    EndToEnd("pass_threads_s", "s", 0.25,
             "the same pass on executor='threads', W workers, full replication"),
    EndToEnd("peak_rss_mb", "MB", 0.10,
             "ru_maxrss of the workload's process"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    moves: str   # end-to-end metric @ workload this should move ("-" = none)


_ALL = "all four"

PER_LAYER: tuple[PerLayer, ...] = (
    # -- chapel ---------------------------------------------------------------
    PerLayer("chapel.parse_s", "s", "lower", f"setup_s @ {_ALL} (small)"),
    PerLayer("chapel.from_python_s", "s", "lower",
             "- (input construction on nested_linearize; cost moved here shows)"),
    # -- compiler, front/middle -------------------------------------------------
    PerLayer("compiler.lower_s", "s", "lower", f"setup_s @ {_ALL}"),
    PerLayer("compiler.plan_s", "s", "lower", f"setup_s @ {_ALL}"),
    PerLayer("compiler.compile_scalar_s", "s", "lower", f"setup_s @ {_ALL}"),
    PerLayer("compiler.compile_batch_s", "s", "lower", f"setup_s @ {_ALL}"),
    PerLayer("compiler.compile_native_cold_s", "s", "lower", f"setup_s @ {_ALL}"),
    PerLayer("compiler.compile_native_warm_s", "s", "lower",
             "- (a warm start is not in setup_s; guards the disk cache)"),
    PerLayer("compiler.cache_hit_us", "us", "lower", "- (guards the memo cache)"),
    PerLayer("compiler.generated_py_bytes", "count", "lower", "-"),
    PerLayer("compiler.generated_c_bytes", "count", "lower", "-"),
    PerLayer("compiler.native_fallbacks", "count", "lower", f"failed ops @ {_ALL}"),
    PerLayer("compiler.batch_fallbacks", "count", "lower", "-"),
    # -- compiler, linearize ----------------------------------------------------
    PerLayer("compiler.linearize_s", "s", "lower",
             "pass_s, pass_threads_s, setup_s @ nested_linearize only"),
    PerLayer("compiler.linearize_mb_per_s", "MB/s", "higher",
             "pass_s @ nested_linearize"),
    PerLayer("compiler.bytes_linearized", "count", "lower", "-"),
    PerLayer("compiler.bind_s", "s", "lower",
             "setup_s @ dense_steady; pass_s @ nested_linearize"),
    PerLayer("compiler.update_extras_s", "s", "lower",
             "pass_s @ dense_steady, fine_splits (small)"),
    PerLayer("compiler.make_spec_us", "us", "lower", "pass_s @ fine_splits (small)"),
    # -- compiler, kernel -------------------------------------------------------
    PerLayer("compiler.kernel_s", "s", "lower",
             "pass_s, pass_threads_s @ dense_steady (share >= 0.8); <= 0.35 of "
             "fine_splits; ~0 of the other two"),
    PerLayer("compiler.kernel_ns_per_elem", "ns", "lower", "pass_s @ dense_steady"),
    PerLayer("compiler.kernel_ops", "count", "lower", "-"),
    PerLayer("compiler.batch_opt2_s", "s", "lower", "- (guards the batch tier)"),
    PerLayer("compiler.scalar_opt2_s", "s", "lower", "- (guards the scalar tier)"),
    PerLayer("compiler.scalar_opt1_s", "s", "lower", "- (paper's opt-1)"),
    PerLayer("compiler.scalar_generated_s", "s", "lower", "- (paper's generated)"),
    # -- freeride, dispatch/commit ----------------------------------------------
    PerLayer("freeride.ro_setup_s", "s", "lower", "pass_s @ fine_splits (wide RO)"),
    PerLayer("freeride.run_fixed_s", "s", "lower",
             "pass_s @ fine_splits; none @ dense_steady"),
    PerLayer("freeride.per_split_us", "us", "lower",
             "pass_s, pass_threads_s @ fine_splits"),
    PerLayer("freeride.per_split_wide_us", "us", "lower",
             "pass_s, pass_threads_s @ fine_splits (1,024-group case)"),
    PerLayer("freeride.splits", "count", "lower", "-"),
    PerLayer("freeride.ro_replica_bytes", "count", "lower", "peak_rss_mb (small)"),
    # -- freeride, combine/parallel ---------------------------------------------
    PerLayer("freeride.combine_s", "s", "lower",
             "pass_threads_s @ fine_splits (wide case)"),
    PerLayer("freeride.parallel_merge_s", "s", "lower", "-"),
    PerLayer("freeride.elements_merged", "count", "lower", "-"),
    PerLayer("freeride.threads_speedup", "ratio", "higher",
             "pass_threads_s @ dense_steady"),
    PerLayer("freeride.process_pass_s", "s", "lower", "- (gates nothing yet)"),
    PerLayer("freeride.process_speedup", "ratio", "higher", "-"),
    PerLayer("freeride.process_first_pass_s", "s", "lower",
             "- (pool spin-up + shared-memory publish)"),
    PerLayer("freeride.shm_leaked", "count", "lower", "-"),
    # -- freeride, techniques / fault tolerance ---------------------------------
    PerLayer("freeride.tech_locking_pass_s", "s", "lower", "-"),
    PerLayer("freeride.tech_colored_pass_s", "s", "lower", "-"),
    PerLayer("freeride.tech_auto_pass_s", "s", "lower", "-"),
    PerLayer("freeride.lock_acquisitions", "count", "lower", "-"),
    PerLayer("freeride.ft_pass_s", "s", "lower", "-"),
    PerLayer("freeride.retries", "count", "lower", "-"),
    PerLayer("freeride.failed_splits", "count", "lower", "-"),
    # -- freeride, delta --------------------------------------------------------
    PerLayer("freeride.baseline_s", "s", "lower",
             "- (untimed in delta_epochs; should track pass_s @ dense_steady)"),
    PerLayer("freeride.delta_append_s", "s", "lower",
             "pass_s, pass_threads_s @ delta_epochs"),
    PerLayer("freeride.delta_retract_s", "s", "lower",
             "pass_s, pass_threads_s @ delta_epochs"),
    PerLayer("freeride.delta_replay_elements", "count", "lower",
             "pass_s @ delta_epochs (window-min)"),
    PerLayer("freeride.delta_groups_replayed", "count", "lower",
             "pass_s @ delta_epochs (window-min)"),
    PerLayer("freeride.delta_checkpoint_saves", "count", "lower",
             "pass_s @ delta_epochs"),
    PerLayer("freeride.delta_speedup_invertible", "ratio", "higher",
             "pass_s @ delta_epochs"),
    PerLayer("freeride.delta_speedup_winmin", "ratio", "higher",
             "pass_s @ delta_epochs"),
    PerLayer("freeride.ro_at_s", "s", "lower", "-"),
    # -- apps -------------------------------------------------------------------
    PerLayer("apps.kmeans_runner_s", "s", "lower", "-"),
    PerLayer("apps.pca_runner_s", "s", "lower", "-"),
    PerLayer("apps.runner_overhead_ratio", "ratio", "lower", "-"),
    # -- analysis ---------------------------------------------------------------
    PerLayer("analysis.group_bounds_s", "s", "lower", f"setup_s @ {_ALL} (small)"),
    PerLayer("analysis.analyze_source_s", "s", "lower", "- (not on the compile path)"),
    PerLayer("analysis.diagnostics", "count", "lower", "-"),
    # -- obs --------------------------------------------------------------------
    PerLayer("obs.trace_overhead_ratio", "ratio", "lower",
             "- (end-to-end runs keep the program's tracer off)"),
    PerLayer("obs.spans_per_pass", "count", "lower", "-"),
    PerLayer("obs.profile_store_overhead_ratio", "ratio", "lower", "-"),
    # -- the benchmark itself -----------------------------------------------------
    PerLayer("bench.parallel_capacity", "ratio", "higher", "-"),
    PerLayer("bench.rounds_discarded", "count", "lower", "-"),
    PerLayer("bench.slow_layouts", "count", "lower",
             "- (left out of pass_threads_s; a program whose threads' buffers "
             "never share a cache line reads 0)"),
    PerLayer("bench.capacity_ok", "count", "higher", "-"),
    PerLayer("bench.trace_overhead_ratio", "ratio", "lower", "-"),
    PerLayer("bench.nproc", "count", "higher", "-"),
)

#: per-layer metrics that are counts made by the program or the benchmark
#: and must repeat exactly from run to run at a fixed seed
EXACT_COUNTS: frozenset[str] = frozenset({
    "compiler.generated_py_bytes", "compiler.generated_c_bytes",
    "compiler.native_fallbacks", "compiler.batch_fallbacks",
    "compiler.bytes_linearized", "compiler.kernel_ops",
    "freeride.splits", "freeride.ro_replica_bytes", "freeride.elements_merged",
    "freeride.lock_acquisitions", "freeride.retries", "freeride.failed_splits",
    "freeride.shm_leaked",
    "freeride.delta_replay_elements", "freeride.delta_groups_replayed",
    "freeride.delta_checkpoint_saves",
    "analysis.diagnostics", "bench.nproc",
})

UNITS: dict[str, str] = {m.name: m.unit for m in END_TO_END}
UNITS.update({m.name: m.unit for m in PER_LAYER})


def benchmark_json(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these declarations correspond to."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": "lower", "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
