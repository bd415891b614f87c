"""Measured per-element operation profiles for the paper's versions.

The benchmarks never hardcode per-version cost formulas: each version's
instrumented kernel is **executed on a small sample** and its counter
ledger, normalized per element, becomes the version's profile.  The
simulated machine then scales the profile to the paper's dataset sizes.

For PCA the per-element counts grow quadratically with the dimensionality
``m`` (the covariance loop is triangular), so running the kernels at
``m = 1000`` on a sample would already take minutes in Python.  Instead we
measure at three small dimensionalities and fit the exact polynomial
``count(m) = a + b*m + c*m(m+1)/2`` per counter field — exact because every
counter of the loop nest is a polynomial of precisely that form — then
evaluate at the target ``m``.  Tests verify the fit reproduces a held-out
fourth measurement exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields
from typing import Any

import numpy as np

from repro.apps.kmeans import KmeansRunner, kmeans_ro_layout
from repro.apps.pca import PcaRunner
from repro.data.generators import initial_centroids, kmeans_points, pca_matrix
from repro.machine.counters import OpCounters
from repro.util.errors import BenchmarkError

__all__ = [
    "PhaseWork",
    "WorkloadProfile",
    "measure_kmeans_profiles",
    "measure_pca_profiles",
    "KMEANS_VERSIONS",
    "PCA_VERSIONS",
]

KMEANS_VERSIONS = ("generated", "opt-1", "opt-2", "manual")
#: The paper's Figures 12/13 compare only these two for PCA.
PCA_VERSIONS = ("opt-2", "manual")


@dataclass
class PhaseWork:
    """One reduction pass: per-element compute + its reduction-object size."""

    name: str
    per_element: OpCounters
    ro_elements: int
    #: the object's group count, and the compiled kernel's effect summary
    #: that colors its splits (``None``: a colored run replicates instead)
    num_groups: int = 0
    bounds: Any = None


@dataclass
class WorkloadProfile:
    """Everything the simulator needs to price one version of one app."""

    app: str
    version: str
    elem_bytes: int
    #: compiled versions linearize the input dataset once (sequentially)
    linearize_data: bool
    #: bytes of auxiliary structures linearized per outer iteration (opt-2)
    extras_bytes_per_iteration: int
    phases: list[PhaseWork] = field(default_factory=list)


def _compute_only(counters: OpCounters, n: int) -> OpCounters:
    """Per-element compute counters: linearization charges stripped."""
    c = counters.copy()
    c.bytes_linearized = 0.0
    c.elements_processed = n
    return c.per_element()


# --------------------------------------------------------------------- k-means


def measure_kmeans_profiles(
    k: int,
    dim: int,
    versions: tuple[str, ...] = KMEANS_VERSIONS,
    sample_n: int | None = None,
    seed: int = 101,
) -> dict[str, WorkloadProfile]:
    """Execute every version on a sample and return measured profiles."""
    n = sample_n or max(2 * k, 128)
    points = kmeans_points(n, dim, seed=seed)
    cents = initial_centroids(points, k, seed=seed + 1)
    ro_elements = sum(e for e, _ in kmeans_ro_layout(k, dim))
    profiles: dict[str, WorkloadProfile] = {}
    for version in versions:
        runner = KmeansRunner(k, dim, version=version, num_threads=1)
        result = runner.run(points, cents, iterations=1)
        per_elem = _compute_only(result.counters, n)
        bounds = runner.compiled.group_bounds if runner.compiled else None
        profiles[version] = WorkloadProfile(
            app="kmeans",
            version=version,
            elem_bytes=dim * 8,
            linearize_data=version != "manual",
            extras_bytes_per_iteration=(k * dim * 8 if version == "opt-2" else 0),
            phases=[PhaseWork("local reduction", per_elem, ro_elements, k, bounds)],
        )
    return profiles


# ------------------------------------------------------------------------- PCA


def _measure_pca_at(version: str, m: int, sample_n: int, seed: int) -> tuple[OpCounters, OpCounters]:
    """Measured per-element counters for (mean phase, cov phase) at one m."""
    matrix = pca_matrix(m, sample_n, rank=min(4, m), seed=seed)
    with PcaRunner(m, version=version) as runner:
        result = runner.run(matrix)
    return (
        _compute_only(result.mean_counters, sample_n),
        _compute_only(result.cov_counters, sample_n),
    )


def _fit_and_eval(ms: list[int], samples: list[OpCounters], target_m: int) -> OpCounters:
    """Fit count(m) = a + b*m + c*m(m+1)/2 per field; evaluate at target."""
    basis = np.array([[1.0, m, m * (m + 1) / 2.0] for m in ms])
    out = OpCounters()
    for f in dc_fields(OpCounters):
        y = np.array([getattr(s, f.name) for s in samples])
        coef = np.linalg.solve(basis, y)
        value = float(
            coef[0] + coef[1] * target_m + coef[2] * target_m * (target_m + 1) / 2.0
        )
        setattr(out, f.name, max(0.0, value))
    out.elements_processed = 1.0
    return out


def measure_pca_profiles(
    m: int,
    versions: tuple[str, ...] = PCA_VERSIONS,
    sample_n: int = 24,
    fit_ms: tuple[int, int, int] = (12, 20, 32),
    seed: int = 202,
) -> dict[str, WorkloadProfile]:
    """Measured-and-extrapolated PCA profiles at dimensionality ``m``."""
    if len(set(fit_ms)) != 3:
        raise BenchmarkError("need three distinct fit dimensionalities")
    profiles: dict[str, WorkloadProfile] = {}
    for version in versions:
        means, covs = [], []
        for fm in fit_ms:
            c_mean, c_cov = _measure_pca_at(version, fm, sample_n, seed)
            means.append(c_mean)
            covs.append(c_cov)
        per_mean = _fit_and_eval(list(fit_ms), means, m)
        per_cov = _fit_and_eval(list(fit_ms), covs, m)
        profiles[version] = WorkloadProfile(
            app="pca",
            version=version,
            elem_bytes=m * 8,
            linearize_data=version != "manual",
            # opt-2 linearizes the mean vector before the covariance phase
            extras_bytes_per_iteration=(m * 8 if version != "manual" else 0),
            phases=[
                PhaseWork("mean phase", per_mean, m + 1),
                PhaseWork("covariance phase", per_cov, m * m),
            ],
        )
    return profiles
