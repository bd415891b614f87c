"""Real wall-clock execution of the figure workloads (CI scale).

The simulated harness regenerates the paper's *shapes*; this module runs
the same four-version workloads for real — actual threads, actual kernels —
at a configurable scale, and reports measured seconds.

Interpretation caveat, documented here because it is where users will trip:
:func:`run_figure_real` builds its runners with the default
``backend="scalar"``, whose compiled kernels are interpreted Python, so the
GIL serializes them and real thread-scaling is poor *on that tier*, while
the ``manual`` version's numpy kernels release the GIL in C loops and scale
somewhat.  This is why EXPERIMENTS.md uses the counter+simulator method for
the paper's figures; the real mode exists for sanity (the workloads run,
results verify).  The native tier, whose kernels release the GIL, is timed
by ``benchmarks/suite`` (``freeride.threads_speedup``), not here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.apps.kmeans import KmeansRunner
from repro.apps.pca import PcaRunner
from repro.bench.figures import FIGURES
from repro.data.datasets import KmeansConfig, PcaConfig
from repro.util.errors import BenchmarkError
from repro.util.validation import check_positive_int

__all__ = ["RealSweep", "run_figure_real", "format_real"]


@dataclass
class RealSweep:
    """Measured wall-clock seconds for one version across thread counts."""

    version: str
    seconds: dict[int, float] = field(default_factory=dict)
    verified: bool = True


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_figure_real(
    fig_id: str,
    scale: float = 1 / 2048,
    thread_counts: Sequence[int] = (1, 2, 4),
    repeats: int = 1,
    executor: str = "threads",
) -> dict[str, RealSweep]:
    """Actually run one figure's workload at ``scale`` of the paper size."""
    check_positive_int(repeats, "repeats")
    try:
        spec = FIGURES[fig_id]
    except KeyError:
        raise BenchmarkError(f"unknown figure {fig_id!r}; have {sorted(FIGURES)}")

    sweeps: dict[str, RealSweep] = {}
    if spec.app == "kmeans":
        cfg = spec.config
        assert isinstance(cfg, KmeansConfig)
        scaled = cfg.scaled(scale)
        points = scaled.generate()
        from repro.data.generators import initial_centroids

        cents = initial_centroids(points, scaled.k, seed=7)
        iterations = min(scaled.iterations, 2)  # CI-friendly
        reference = None
        for version in spec.versions:
            sweep = RealSweep(version=version)
            for p in thread_counts:
                runner = KmeansRunner(
                    scaled.k,
                    scaled.dim,
                    version=version,
                    num_threads=p,
                    executor=executor,
                    chunk_size=max(16, scaled.n_points // (4 * p)),
                )
                best = min(
                    _time_once(lambda: runner.run(points, cents, iterations))
                    for _ in range(repeats)
                )
                sweep.seconds[p] = best
            final = KmeansRunner(scaled.k, scaled.dim, version=version).run(
                points, cents, iterations
            )
            if reference is None:
                reference = final.centroids
            sweep.verified = bool(np.allclose(final.centroids, reference))
            sweeps[version] = sweep
        return sweeps

    assert isinstance(spec.config, PcaConfig)
    scaled_pca = spec.config.scaled_rows(0.02).scaled(scale * 20)
    matrix = scaled_pca.generate()
    reference = None
    for version in spec.versions:
        sweep = RealSweep(version=version)
        for p in thread_counts:
            runner = PcaRunner(
                scaled_pca.rows, version=version, num_threads=p, executor=executor,
                chunk_size=max(8, scaled_pca.cols // (4 * p)),
            )
            best = min(
                _time_once(lambda: runner.run(matrix)) for _ in range(repeats)
            )
            sweep.seconds[p] = best
        result = PcaRunner(scaled_pca.rows, version=version).run(matrix)
        if reference is None:
            reference = result.covariance
        sweep.verified = bool(np.allclose(result.covariance, reference))
        sweeps[version] = sweep
    return sweeps


def format_real(fig_id: str, sweeps: dict[str, RealSweep]) -> str:
    """Render the measured table (seconds; lower is better)."""
    versions = list(sweeps)
    thread_counts = sorted(next(iter(sweeps.values())).seconds)
    lines = [
        f"{fig_id.upper()} — REAL execution (Python wall-clock, CI scale; "
        "see module docstring for GIL caveats)",
        f"{'threads':>7}  " + "  ".join(f"{v:>12}" for v in versions),
    ]
    for p in thread_counts:
        cells = [f"{sweeps[v].seconds[p]:>12.4f}" for v in versions]
        lines.append(f"{p:>7}  " + "  ".join(cells))
    lines.append(
        "verified: "
        + ", ".join(f"{v}={'yes' if sweeps[v].verified else 'NO'}" for v in versions)
    )
    return "\n".join(lines)
