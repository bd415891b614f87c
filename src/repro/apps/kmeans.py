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
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.apps.base import VERSIONS, ReductionApp
from repro.chapel.domains import Domain
from repro.chapel.types import REAL, ArrayType, array_of, record
from repro.chapel.values import ChapelArray, from_python
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import ReductionResult, RunStats
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.machine.counters import OpCounters
from repro.util.errors import ReproError
from repro.util.validation import check_positive_int

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


class _Loop(NamedTuple):
    """What one k-means iteration hands the next (``run_iterative``'s state)."""

    centroids: np.ndarray
    counts: np.ndarray
    inertia_trace: tuple[float, ...] = ()
    stable: bool = False


class KmeansRunner(ReductionApp):
    """Runs the full k-means outer loop for any of the four versions.

    ``options`` are :class:`~repro.apps.base.ReductionApp`'s keyword
    arguments (engine configuration and compiler ``backend``).
    """

    def __init__(
        self, k: int, dim: int, version: str = "opt-2", **options: Any
    ) -> None:
        check_positive_int(k, "k")
        check_positive_int(dim, "dim")
        super().__init__(version, **options)
        self.k, self.dim = k, dim
        self.compiled = self.compile(KMEANS_CHAPEL_SOURCE, {"k": k, "dim": dim})

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
        make_spec, data, counters = self._passes(points, cents)

        def update(result: ReductionResult, state: _Loop) -> _Loop:
            old = state.centroids
            new, counts, inertia = centroids_from_ro(result.ro, old)
            stable = tol is not None and float(np.abs(new - old).max()) <= tol
            return _Loop(new, counts, (*state.inertia_trace, inertia), stable)

        final, results = self.engine.run_iterative(
            make_spec,
            data,
            iterations,
            update,
            _Loop(cents, np.zeros(self.k)),
            converged=lambda _, new: new.stable,
        )
        self.note_pass(results[-1])
        return KmeansResult(
            centroids=final.centroids,
            counts=final.counts,
            iterations=len(results),
            version=self.version,
            counters=counters,
            per_iteration_stats=[r.stats for r in results],
            inertia=_inertia(points, final.centroids),
            inertia_trace=list(final.inertia_trace),
            converged=final.stable,
        )

    def _passes(
        self, points: np.ndarray, cents: np.ndarray
    ) -> tuple[Callable[[_Loop], ReductionSpec], Any, OpCounters]:
        """This version's ``(make_spec(state), engine data, counter ledger)``."""
        if self.compiled is None:
            counters = OpCounters()
            return lambda s: manual_fr_spec(s.centroids, counters), points, counters
        # The dataset is linearized ONCE, here; the centroids re-linearize
        # per iteration inside update_extras (the opt-2 per-iteration cost).
        bound = self.compiled.bind(points, {"centroids": centroids_to_chapel(cents)})
        layout = kmeans_ro_layout(self.k, self.dim)

        def make_spec(state: _Loop) -> ReductionSpec:
            bound.update_extras({"centroids": centroids_to_chapel(state.centroids)})
            return bound.make_spec(layout)[0]

        return make_spec, range(bound.n_elements), bound.counters


#: rows per block of :func:`_inertia`: the (rows, k, dim) temporaries stay a
#: few MB where the whole-array form needs k x the dataset, twice
_INERTIA_BLOCK = 8192


def _inertia(points: np.ndarray, cents: np.ndarray) -> float:
    """Sum of squared distances to the nearest centroid (quality metric)."""
    total = 0.0
    for start in range(0, len(points), _INERTIA_BLOCK):
        block = points[start : start + _INERTIA_BLOCK]
        d2 = ((block[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        total += float(d2.min(axis=1).sum())
    return total
