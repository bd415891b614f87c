"""Every table EXPERIMENTS.md records, as one registry of reports.

Figures 9-13 are ``FIGURES`` (``run_figure`` / ``full_report`` /
``shape_checks``).  The other tables — the Figure 4 structure comparison,
Figure 11's linearization share and ablations A-C — are ``REPORTS`` entries
of the same shape: ``run`` computes a result, ``text`` prints the table and
``checks`` evaluates the claims it supports as named booleans.  Report ids
are the stems of the ``benchmarks/results/*.txt`` files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.bench.figures import FIGURES, THREADS, run_figure, shape_checks
from repro.bench.harness import SimulationConfig, model_shape, sweep_threads
from repro.bench.profiles import WorkloadProfile, measure_kmeans_profiles
from repro.bench.report import full_report
from repro.data.datasets import KMEANS_LARGE_K100_I1, KMEANS_SMALL, KmeansConfig
from repro.freeride.sharedmem import SharedMemTechnique
from repro.machine.costmodel import CostModel
from repro.machine.simmachine import ParallelPhase, SimMachine
from repro.mapreduce import GeneralizedReduction, compare_structures
from repro.util.errors import BenchmarkError

__all__ = ["Report", "REPORTS", "REPORT_IDS", "run_report"]


@dataclass(frozen=True)
class Report:
    """One table beyond Figures 9-13: run it, print it, check it."""

    run: Callable[[], Any]
    text: Callable[[Any], str]
    checks: Callable[[Any], dict[str, bool]]


def _kmeans_profile(cfg: KmeansConfig, version: str) -> WorkloadProfile:
    return measure_kmeans_profiles(cfg.k, cfg.dim, versions=(version,))[version]


# ----------------------------------------------- Figure 4: processing structure

FIG4_ELEMENTS = 20_000
FIG4_BINS = 64


def _histogram_reduction() -> GeneralizedReduction:
    width = 1.0 / FIG4_BINS

    def process(x):
        b = min(int(x / width), FIG4_BINS - 1)
        return b, np.array([1.0, float(x)])

    return GeneralizedReduction(
        name="histogram", process=process, num_groups=FIG4_BINS, num_elems=2
    )


def _run_fig4():
    data = np.random.default_rng(11).uniform(0, 1, FIG4_ELEMENTS)
    return compare_structures(_histogram_reduction(), data, num_threads=2)


def _text_fig4(cmp) -> str:
    return "\n".join(
        [
            "FIG4 — processing-structure comparison (histogram, "
            f"n={FIG4_ELEMENTS:,}, {FIG4_BINS} bins)",
            f"  FREERIDE reduction-object updates : {cmp.freeride_ro_updates:,}",
            f"  FREERIDE intermediate pairs       : {cmp.freeride_intermediate_pairs:,}",
            f"  Map-Reduce intermediate pairs     : {cmp.mapreduce_pairs:,}",
            f"  Map-Reduce intermediate bytes     : {cmp.mapreduce_intermediate_bytes:,}",
            f"  Map-Reduce sort comparisons       : {cmp.mapreduce_sort_comparisons:,}",
        ]
    )


def _checks_fig4(cmp) -> dict[str, bool]:
    return {
        "results_match": cmp.results_match,
        "mapreduce_stores_one_pair_per_element": cmp.mapreduce_pairs == FIG4_ELEMENTS,
        "freeride_stores_no_pairs": cmp.freeride_intermediate_pairs == 0,
        "mapreduce_sort_superlinear": cmp.mapreduce_sort_comparisons > FIG4_ELEMENTS,
    }


# ------------------------------- Figure 11: linearization share without reuse


def _run_fig11_share() -> float:
    """Sequential linearization's share of opt-2's 1-thread Figure 11 time."""
    spec = FIGURES["fig11"]
    cfg = spec.config
    sweep = sweep_threads(
        _kmeans_profile(cfg, "opt-2"), cfg.n_points, spec.iterations, (1,), spec.sim
    )
    return sweep.phase_seconds(1, "linearization") / sweep.seconds[1]


# ------------------------------------- Ablation A: shared-memory techniques

TECHNIQUES = tuple(SharedMemTechnique)


def _run_sharedmem():
    """Each technique's seconds per thread count, and its shape at 8."""
    cfg = KMEANS_SMALL
    profile = _kmeans_profile(cfg, "opt-2")
    seconds, shapes = {}, {}
    for tech in TECHNIQUES:
        sim = SimulationConfig(technique=tech)
        seconds[tech] = sweep_threads(
            profile, cfg.n_points, cfg.iterations, config=sim
        ).seconds
        shapes[tech] = model_shape(profile.phases[0], cfg.n_points, 8, sim)
    return seconds, shapes


def _text_sharedmem(result) -> str:
    results, shapes = result
    lines = ["ABLATION A — shared-memory techniques (k-means 12 MB, opt-2)"]
    lines.append(f"{'threads':>7}  " + "  ".join(f"{t.value:>24}" for t in TECHNIQUES))
    for p in THREADS:
        lines.append(
            f"{p:>7}  " + "  ".join(f"{results[t][p]:>24.3f}" for t in TECHNIQUES)
        )
    # the tradeoff's other axis
    repl = shapes[SharedMemTechnique.FULL_REPLICATION]
    locking = shapes[SharedMemTechnique.CACHE_SENSITIVE_LOCKING]
    lines.append(
        f"reduction-object memory at 8 threads: replication "
        f"{repl.ro_memory_bytes:,} B ({repl.private_copies} private copies) "
        f"vs locking {locking.ro_memory_bytes:,} B (shared)"
    )
    return "\n".join(lines)


def _checks_sharedmem(result) -> dict[str, bool]:
    results, _ = result
    repl = results[SharedMemTechnique.FULL_REPLICATION]
    locking = results[SharedMemTechnique.CACHE_SENSITIVE_LOCKING]
    colored = results[SharedMemTechnique.COLORED]
    return {
        # with a small reduction object, no per-update synchronization wins
        "replication_beats_locking": all(locking[p] > repl[p] for p in THREADS),
        # every k-means split touches every centroid: one split per wave
        "colored_kmeans_runs_one_split_at_a_time": all(
            math.isclose(colored[p], colored[1]) for p in THREADS
        ),
    }


# ------------------------------------- Ablation B: parallel linearization

LINEARIZATION_MODES = ("sequential", "parallel", "overlap")


def _run_linearization() -> dict[str, dict[int, float]]:
    cfg = KMEANS_LARGE_K100_I1
    opt2 = _kmeans_profile(cfg, "opt-2")
    out = {
        mode: sweep_threads(
            opt2,
            cfg.n_points,
            cfg.iterations,
            config=SimulationConfig(linearization_mode=mode),
        ).seconds
        for mode in LINEARIZATION_MODES
    }
    out["manual"] = sweep_threads(
        _kmeans_profile(cfg, "manual"), cfg.n_points, cfg.iterations
    ).seconds
    return out


def _text_linearization(r) -> str:
    seq, par, ovl, man = r["sequential"], r["parallel"], r["overlap"], r["manual"]
    lines = [
        "ABLATION B — linearization strategies (k-means 1.2 GB, k=100, i=1, opt-2)",
        f"{'threads':>7}  {'sequential':>12}  {'parallel':>12}  "
        f"{'pipelined':>12}  {'manual':>10}",
    ]
    for p in THREADS:
        lines.append(
            f"{p:>7}  {seq[p]:>12.3f}  {par[p]:>12.3f}  "
            f"{ovl[p]:>12.3f}  {man[p]:>10.3f}"
        )
    lines.append(
        f"opt-2/manual gap at 8 threads: {seq[8] / man[8]:.3f} (sequential) -> "
        f"{par[8] / man[8]:.3f} (parallel) / {ovl[8] / man[8]:.3f} (pipelined)"
    )
    return "\n".join(lines)


def _checks_linearization(r) -> dict[str, bool]:
    seq, par, ovl, man = r["sequential"], r["parallel"], r["overlap"], r["manual"]
    return {
        "pipelined_beats_sequential_at_8": ovl[8] < seq[8],
        "parallel_beats_sequential_at_8": par[8] < seq[8],
        # Amdahl: the sequential phase is what stops scaling
        "parallel_gain_grows_with_threads": seq[8] / par[8] > seq[1] / par[1],
        "parallel_closes_gap_to_manual": par[8] / man[8] < seq[8] / man[8],
    }


# ------------------------------------- Ablation C: chunking and scheduling

CHUNK_COUNTS = (8, 12, 32, 256)


def _run_scheduling() -> dict[int, dict[int, float]]:
    cfg = KMEANS_SMALL
    profile = _kmeans_profile(cfg, "manual")
    return {
        num_chunks: sweep_threads(
            profile,
            cfg.n_points,
            cfg.iterations,
            config=SimulationConfig(num_chunks=num_chunks),
        ).seconds
        for num_chunks in CHUNK_COUNTS
    }


def _text_scheduling(results) -> str:
    lines = ["ABLATION C — chunk granularity (k-means 12 MB, manual FR, 8 threads)"]
    lines.append(f"{'chunks':>8}  {'seconds@8':>10}  {'speedup@8':>10}")
    for nc, secs in results.items():
        lines.append(f"{nc:>8}  {secs[8]:>10.3f}  {secs[1] / secs[8]:>9.2f}x")
    return "\n".join(lines)


def _checks_scheduling(results) -> dict[str, bool]:
    at8 = {nc: secs[8] for nc, secs in results.items()}
    return {
        # 8 chunks on 8 threads is balanced; 12 is the worst quantization
        # (2 waves, 4 threads idle in the second)
        "12_chunks_slower_than_8": at8[12] > at8[8],
        "12_chunks_slower_than_256": at8[12] > at8[256],
        "256_chunks_within_5pct_of_8": abs(at8[256] - at8[8]) <= 0.05 * at8[8],
    }


def _run_dynamic_vs_static() -> tuple[float, float]:
    """Dynamic work queue vs static round-robin, every 16th chunk 10x heavier."""
    costs = tuple(1000.0 if i % 16 == 0 else 100.0 for i in range(128))
    cm = CostModel(clock_hz=1e6)
    return tuple(
        SimMachine(cm, 8, scheduling=policy)
        .run([ParallelPhase("w", costs)])
        .total_seconds
        for policy in ("dynamic", "static")
    )


REPORTS: dict[str, Report] = {
    "fig4_structure": Report(_run_fig4, _text_fig4, _checks_fig4),
    "fig11_linearization_share": Report(
        _run_fig11_share,
        lambda share: f"linearization share at i=1: {share:.3f}",
        # one-time linearization on a single pass is a visible share
        lambda share: {"visible_without_amortization": share > 0.04},
    ),
    "ablation_sharedmem": Report(_run_sharedmem, _text_sharedmem, _checks_sharedmem),
    "ablation_linearization": Report(
        _run_linearization, _text_linearization, _checks_linearization
    ),
    "ablation_scheduling": Report(
        _run_scheduling, _text_scheduling, _checks_scheduling
    ),
    "ablation_dynamic_vs_static": Report(
        _run_dynamic_vs_static,
        lambda r: f"skewed chunks, 8 threads: dynamic {r[0]:.6f}s vs static {r[1]:.6f}s",
        lambda r: {"dynamic_no_slower_than_static": r[0] <= r[1]},
    ),
}

#: every report, in the order ``python -m repro.bench`` runs them
REPORT_IDS: tuple[str, ...] = (*FIGURES, *REPORTS)


def run_report(
    report_id: str,
    thread_counts: tuple[int, ...] = THREADS,
    scale: float = 1.0,
) -> tuple[str, dict[str, bool]]:
    """One report's text and named checks.

    ``thread_counts`` and ``scale`` apply to Figures 9-13; the other
    reports run at the fixed configuration their tables describe.
    """
    if report_id in FIGURES:
        result = run_figure(report_id, thread_counts, scale)
        return full_report(result), shape_checks(result)
    try:
        report = REPORTS[report_id]
    except KeyError:
        raise BenchmarkError(f"unknown report {report_id!r}; have {list(REPORT_IDS)}")
    result = report.run()
    return report.text(result), report.checks(result)
