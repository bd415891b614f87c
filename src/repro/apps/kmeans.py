"""K-means clustering — the paper's first application (Figures 3, 5, 9-11).

Four versions, as in §V:

* ``generated`` / ``opt-1`` / ``opt-2`` — the mini-Chapel reduction class
  below (the paper's Figure 3) compiled by :mod:`repro.compiler` at the
  corresponding optimization level;
* ``manual`` — a hand-written FREERIDE application (the paper's Figure 5),
  implemented as a vectorized kernel over the raw numpy data with the same
  counter instrumentation, standing in for the authors' hand-tuned C.

All versions share the outer sequential loop (assign points, merge, update
centroids, repeat — optionally "until the centroids are stable", the
paper's step 4) and produce identical centroids for identical inputs.

Reduction-object layout: one group per centroid with ``dim + 2`` elements —
``[count, sum_1, ..., sum_dim, sum_min_distance]`` — all additive, hence
order-independent.  The last cell is Figure 3's "update RO[min_disposition]
by min_distance"; its per-iteration total is the clustering inertia.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chapel.domains import Domain
from repro.chapel.types import REAL, ArrayType, array_of, record
from repro.chapel.values import ChapelArray, from_python
from repro.compiler.cache import compile_cached
from repro.compiler.translate import (
    BACKENDS,
    BoundReduction,
    CompiledReduction,
)
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine, RunStats
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.obs.profilestore import ProfileStore
from repro.obs.tracer import Tracer
from repro.machine.counters import OpCounters
from repro.util.errors import ReproError
from repro.util.validation import check_one_of, check_positive_int

__all__ = [
    "KMEANS_CHAPEL_SOURCE",
    "KmeansResult",
    "KmeansRunner",
    "kmeans_ro_layout",
    "centroids_to_chapel",
    "centroids_from_ro",
    "kmeans_numpy_reference",
    "manual_fr_spec",
    "VERSIONS",
]

VERSIONS = ("generated", "opt-1", "opt-2", "manual")

#: The paper's Figure 3 reduction, in the mini-Chapel subset.  During the
#: accumulate phase each point is assigned to the closest centroid and the
#: explicit reduction object is updated; combine is the middleware default.
KMEANS_CHAPEL_SOURCE = """
record Centroid {
  var coord: [1..dim] real;
}

class kmeansReduction : ReduceScanOp {
  var k: int;
  var dim: int;
  var centroids: [1..k] Centroid;

  def accumulate(point: [1..dim] real) {
    var minDist: real = 1.0e300;
    var minIdx: int = 1;
    for c in 1..k {
      var dist: real = 0.0;
      for d in 1..dim {
        var diff: real = point[d] - centroids[c].coord[d];
        dist = dist + diff * diff;
      }
      if (dist < minDist) {
        minDist = dist;
        minIdx = c;
      }
    }
    roAdd(minIdx - 1, 0, 1.0);
    for d in 1..dim {
      roAdd(minIdx - 1, d, point[d]);
    }
    roAdd(minIdx - 1, dim + 1, minDist);
  }

  def combine(other: kmeansReduction) { }

  def generate() { return 0; }
}
"""


def kmeans_ro_layout(k: int, dim: int) -> list[tuple[int, str]]:
    """One additive group per centroid:
    [count, sum_1..sum_dim, sum_min_distance]."""
    return [(dim + 2, "add")] * k


def centroids_to_chapel(centroids: np.ndarray) -> ChapelArray:
    """Build the nested Chapel value for the ``centroids`` class field."""
    k, dim = centroids.shape
    Centroid = record("Centroid", coord=array_of(REAL, dim))
    cent_t = ArrayType(Domain(k), Centroid)
    return from_python(
        cent_t, [{"coord": list(map(float, row))} for row in centroids]
    )


def centroids_from_ro(
    ro: ReductionObject, old_centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The paper's step 3: "update the centroid of each cluster according to
    their current points".  Empty clusters keep their old centroid.

    Returns (new_centroids, counts, inertia) — inertia being the summed
    min-distances Figure 3 accumulates in the reduction object.
    """
    k, dim = old_centroids.shape
    new = old_centroids.copy()
    counts = np.zeros(k)
    inertia = 0.0
    for g in range(k):
        vals = ro.get_group(g)
        counts[g] = vals[0]
        if vals[0] > 0:
            new[g] = vals[1 : 1 + dim] / vals[0]
        inertia += vals[1 + dim]
    return new, counts, inertia


def kmeans_numpy_reference(
    points: np.ndarray, centroids: np.ndarray, iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-numpy oracle for the whole algorithm (same tie-breaking:
    the lowest-index nearest centroid wins)."""
    cents = centroids.copy()
    counts = np.zeros(len(cents))
    for _ in range(iterations):
        d2 = ((points[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)  # argmin takes the first minimum
        new = cents.copy()
        counts = np.bincount(assign, minlength=len(cents)).astype(float)
        for g in range(len(cents)):
            if counts[g] > 0:
                new[g] = points[assign == g].mean(axis=0)
        cents = new
    return cents, counts


def manual_fr_spec(
    centroids: np.ndarray, counters: OpCounters | None = None
) -> ReductionSpec:
    """The hand-written FREERIDE k-means (paper Figure 5).

    The reduction processes a chunk of raw points (numpy view) with
    vectorized distance computation and updates the reduction object
    directly — the structure a C programmer writes against the Table I API.
    Operation counts (all linear accesses; no index mapping, no nested
    structures, no linearization) are charged to ``counters``.
    """
    cents = np.ascontiguousarray(centroids, dtype=np.float64)
    k, dim = cents.shape
    counters = counters if counters is not None else OpCounters()

    def setup(ro: ReductionObject) -> None:
        for _ in range(k):
            ro.alloc(dim + 2, "add")

    def reduction(args: ReductionArgs) -> None:
        chunk = np.asarray(args.data, dtype=np.float64)
        if chunk.size == 0:
            return
        n = chunk.shape[0]
        # squared distances to every centroid; argmin per point
        d2 = ((chunk[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        best = d2[np.arange(n), assign]
        for g in np.unique(assign):
            mask = assign == g
            vals = np.empty(dim + 2)
            vals[0] = float(mask.sum())
            vals[1 : 1 + dim] = chunk[mask].sum(axis=0)
            vals[1 + dim] = float(best[mask].sum())
            args.ro.accumulate_group(int(g), vals)
        # Cost accounting for the modeled C implementation:
        #   per point: k*dim point+centroid reads, 3 flops per (c, d),
        #   k min-comparisons, dim+2 reduction-object updates.
        counters.elements_processed += n
        counters.linear_reads += n * k * dim * 2
        counters.flops += n * (3 * k * dim + k)
        counters.ro_updates += n * (dim + 2)

    return ReductionSpec(
        name="kmeans-manual-FR",
        setup_reduction_object=setup,
        reduction=reduction,
    )


@dataclass
class KmeansResult:
    """Outcome of a full k-means run."""

    centroids: np.ndarray
    counts: np.ndarray
    iterations: int  # iterations actually executed (may stop early on tol)
    version: str
    counters: OpCounters
    per_iteration_stats: list[RunStats] = field(default_factory=list)
    inertia: float = 0.0
    #: per-iteration summed min-distances, read from the reduction object
    #: (Figure 3's RO contents); measured against that iteration's input
    #: centroids, so the sequence is non-increasing
    inertia_trace: list[float] = field(default_factory=list)
    converged: bool = False


class KmeansRunner:
    """Runs the full k-means outer loop for any of the four versions."""

    def __init__(
        self,
        k: int,
        dim: int,
        version: str = "opt-2",
        num_threads: int = 1,
        executor: str = "serial",
        chunk_size: int | None = None,
        technique: str = "full_replication",
        backend: str = "scalar",
        tracer: "Tracer | None" = None,
        profile_store: "ProfileStore | str | bool | None" = None,
    ) -> None:
        check_positive_int(k, "k")
        check_positive_int(dim, "dim")
        self.version = check_one_of(version, VERSIONS, "version")
        self.backend = check_one_of(backend, BACKENDS, "backend")
        self.k, self.dim = k, dim
        self.engine = FreerideEngine(
            num_threads=num_threads,
            executor=executor,
            chunk_size=chunk_size,
            technique=technique,
            tracer=tracer,
            profile_store=profile_store,
        )
        self.compiled: CompiledReduction | None = None
        if version != "manual":
            opt_level = {"generated": 0, "opt-1": 1, "opt-2": 2}[version]
            self.compiled = compile_cached(
                KMEANS_CHAPEL_SOURCE,
                {"k": k, "dim": dim},
                opt_level=opt_level,
                backend=backend,
            )

    def close(self) -> None:
        """Release the engine's worker pools and shared-memory segments."""
        self.engine.close()

    def __enter__(self) -> "KmeansRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(
        self,
        points: np.ndarray,
        initial_centroids: np.ndarray,
        iterations: int,
        tol: float | None = None,
    ) -> KmeansResult:
        """Run up to ``iterations`` passes.

        With ``tol`` set, stop early once no centroid moves more than
        ``tol`` — the paper's step 4, "repeat ... until the centroids are
        stable".
        """
        check_positive_int(iterations, "iterations")
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ReproError(f"points must be (n, {self.dim}), got {points.shape}")
        cents = np.ascontiguousarray(initial_centroids, dtype=np.float64)
        if cents.shape != (self.k, self.dim):
            raise ReproError(
                f"initial centroids must be ({self.k}, {self.dim}), got {cents.shape}"
            )
        if self.version == "manual":
            return self._run_manual(points, cents, iterations, tol)
        return self._run_compiled(points, cents, iterations, tol)

    @staticmethod
    def _stable(old: np.ndarray, new: np.ndarray, tol: float | None) -> bool:
        return tol is not None and float(np.abs(new - old).max()) <= tol

    # -- compiled versions ------------------------------------------------------

    def _run_compiled(
        self,
        points: np.ndarray,
        cents: np.ndarray,
        iterations: int,
        tol: float | None,
    ) -> KmeansResult:
        assert self.compiled is not None
        layout = kmeans_ro_layout(self.k, self.dim)
        # The dataset is linearized ONCE; centroids re-linearize per
        # iteration inside update_extras (the opt-2 per-iteration cost).
        bound: BoundReduction = self.compiled.bind(
            points, {"centroids": centroids_to_chapel(cents)}
        )
        stats: list[RunStats] = []
        trace: list[float] = []
        counts = np.zeros(self.k)
        converged = False
        executed = 0
        for _ in range(iterations):
            spec, idx = bound.make_spec(layout)
            result = self.engine.run(spec, idx)
            new_cents, counts, inertia = centroids_from_ro(result.ro, cents)
            stats.append(result.stats)
            trace.append(inertia)
            executed += 1
            stable = self._stable(cents, new_cents, tol)
            cents = new_cents
            bound.update_extras({"centroids": centroids_to_chapel(cents)})
            if stable:
                converged = True
                break
        return KmeansResult(
            centroids=cents,
            counts=counts,
            iterations=executed,
            version=self.version,
            counters=bound.counters,
            per_iteration_stats=stats,
            inertia=_inertia(points, cents),
            inertia_trace=trace,
            converged=converged,
        )

    # -- manual FR ------------------------------------------------------------------

    def _run_manual(
        self,
        points: np.ndarray,
        cents: np.ndarray,
        iterations: int,
        tol: float | None,
    ) -> KmeansResult:
        counters = OpCounters()
        stats: list[RunStats] = []
        trace: list[float] = []
        counts = np.zeros(self.k)
        converged = False
        executed = 0
        for _ in range(iterations):
            spec = manual_fr_spec(cents, counters)
            result = self.engine.run(spec, points)
            new_cents, counts, inertia = centroids_from_ro(result.ro, cents)
            stats.append(result.stats)
            trace.append(inertia)
            executed += 1
            stable = self._stable(cents, new_cents, tol)
            cents = new_cents
            if stable:
                converged = True
                break
        return KmeansResult(
            centroids=cents,
            counts=counts,
            iterations=executed,
            version="manual",
            counters=counters,
            per_iteration_stats=stats,
            inertia=_inertia(points, cents),
            inertia_trace=trace,
            converged=converged,
        )


def _inertia(points: np.ndarray, cents: np.ndarray) -> float:
    """Sum of squared distances to the nearest centroid (quality metric)."""
    d2 = ((points[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())
