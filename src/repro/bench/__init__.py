"""Benchmark harness: measured profiles, simulation, the paper's tables."""

from repro.bench.figures import (
    FIGURES,
    FigureResult,
    FigureSpec,
    run_figure,
    shape_checks,
)
from repro.bench.harness import (
    SimulationConfig,
    ThreadSweep,
    simulate_profile,
    sweep_threads,
)
from repro.bench.profiles import (
    KMEANS_VERSIONS,
    PCA_VERSIONS,
    PhaseWork,
    WorkloadProfile,
    measure_kmeans_profiles,
    measure_pca_profiles,
)
from repro.bench.report import format_checks, format_figure, format_speedups, full_report
from repro.bench.reports import REPORT_IDS, REPORTS, Report, run_report

__all__ = [
    "FIGURES",
    "FigureSpec",
    "FigureResult",
    "run_figure",
    "shape_checks",
    "SimulationConfig",
    "simulate_profile",
    "sweep_threads",
    "ThreadSweep",
    "WorkloadProfile",
    "PhaseWork",
    "measure_kmeans_profiles",
    "measure_pca_profiles",
    "KMEANS_VERSIONS",
    "PCA_VERSIONS",
    "format_figure",
    "format_speedups",
    "format_checks",
    "full_report",
    "REPORTS",
    "REPORT_IDS",
    "Report",
    "run_report",
]
