"""Principal Component Analysis — the paper's second application (Figs 12-13).

"PCA converts high-dimension data into the low-dimension one by calculating
the mean vector and the covariance matrix. ... There are two reduction
phases in PCA: calculating the mean vector and computing the covariance
matrix."

Each data *element* is one column of the data matrix (the paper: columns =
number of data elements, rows = dimensionality).  Phase 1 reduces columns
into per-dimension sums (the mean vector); phase 2 reduces centered outer
products into the (upper-triangular) covariance matrix.

The paper compares only ``opt-2`` and ``manual FR`` for PCA ("PCA ... does
not use complex or nested data structures in Chapel.  As a result, the
benefits of the two levels of optimizations ... are not significant"); we
nevertheless support all four versions — the benchmarks use the two the
paper shows, and the ablation tests confirm the paper's claim that the
levels barely differ here.

Reduction-object layouts:

* mean phase — group 0: ``m`` sums; group 1: 1 count;
* covariance phase — ``m`` groups of ``m`` elements (row ``a`` of the
  upper-triangular accumulation; entries below the diagonal stay zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.base import VERSIONS, ReductionApp
from repro.chapel.types import REAL, array_of
from repro.chapel.values import from_python
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import RunStats
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.machine.counters import OpCounters
from repro.util.errors import ReproError
from repro.util.validation import check_positive_int

__all__ = [
    "PCA_MEAN_SOURCE",
    "PCA_COV_SOURCE",
    "PcaResult",
    "PcaRunner",
    "pca_numpy_reference",
    "manual_mean_spec",
    "manual_cov_spec",
    "VERSIONS",
]

#: Phase 1: the mean vector, as a Chapel reduction over columns.
PCA_MEAN_SOURCE = """
class pcaMeanReduction : ReduceScanOp {
  var m: int;

  def accumulate(col: [1..m] real) {
    for r in 1..m {
      roAdd(0, r - 1, col[r]);
    }
    roAdd(1, 0, 1.0);
  }
}
"""

#: Phase 2: the upper-triangular covariance accumulation.  The mean vector
#: computed by phase 1 is a class field (an *extra* for the translator).
PCA_COV_SOURCE = """
class pcaCovReduction : ReduceScanOp {
  var m: int;
  var mean: [1..m] real;

  def accumulate(col: [1..m] real) {
    for a in 1..m {
      var ca: real = col[a] - mean[a];
      for b in a..m {
        var cb: real = col[b] - mean[b];
        roAdd(a - 1, b - 1, ca * cb);
      }
    }
  }
}
"""


def mean_ro_layout(m: int) -> list[tuple[int, str]]:
    return [(m, "add"), (1, "add")]


def cov_ro_layout(m: int) -> list[tuple[int, str]]:
    return [(m, "add")] * m


def pca_numpy_reference(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (mean vector, covariance matrix) over columns as elements."""
    mean = matrix.mean(axis=1)
    centered = matrix - mean[:, None]
    n = matrix.shape[1]
    cov = (centered @ centered.T) / (n - 1 if n > 1 else 1)
    return mean, cov


def manual_mean_spec(m: int, counters: OpCounters) -> ReductionSpec:
    """Hand-written FREERIDE mean-vector phase (vectorized over chunks)."""

    def setup(ro: ReductionObject) -> None:
        ro.alloc(m, "add")
        ro.alloc(1, "add")

    def reduction(args: ReductionArgs) -> None:
        chunk = np.asarray(args.data, dtype=np.float64)  # (n, m) columns-as-rows
        if chunk.size == 0:
            return
        args.ro.accumulate_group(0, chunk.sum(axis=0))
        args.ro.accumulate(1, 0, float(chunk.shape[0]))
        # Modeled C cost: per element, read and fold every dimension into
        # the reduction object (one update per dimension).
        n = chunk.shape[0]
        counters.elements_processed += n
        counters.linear_reads += n * m
        counters.flops += n * m
        counters.ro_updates += n * m

    return ReductionSpec(
        name="pca-mean-manual", setup_reduction_object=setup, reduction=reduction
    )


def manual_cov_spec(m: int, mean: np.ndarray, counters: OpCounters) -> ReductionSpec:
    """Hand-written FREERIDE covariance phase.

    Vectorized as a blocked ``centered @ centered.T``; cost is counted as the
    triangular per-column work a C implementation performs
    (``m*(m+1)/2`` multiply-adds plus the centering pass).
    """
    mean = np.ascontiguousarray(mean, dtype=np.float64)

    def setup(ro: ReductionObject) -> None:
        for _ in range(m):
            ro.alloc(m, "add")

    tri = m * (m + 1) // 2

    def reduction(args: ReductionArgs) -> None:
        chunk = np.asarray(args.data, dtype=np.float64)
        if chunk.size == 0:
            return
        centered = chunk - mean[None, :]
        block = centered.T @ centered  # (m, m) contribution of this chunk
        for a in range(m):
            vals = np.zeros(m)
            vals[a:] = block[a, a:]  # upper triangle only
            args.ro.accumulate_group(a, vals)
        # Modeled C cost per element: center every dimension (m reads +
        # m subtractions), then for each of the tri = m(m+1)/2 upper-triangle
        # pairs: two reads, multiply + add, one reduction-object update.
        n = chunk.shape[0]
        counters.elements_processed += n
        counters.linear_reads += n * (m + 2 * tri)
        counters.flops += n * (m + 3 * tri)
        counters.ro_updates += n * tri
    return ReductionSpec(
        name="pca-cov-manual", setup_reduction_object=setup, reduction=reduction
    )


@dataclass
class PcaResult:
    """Outcome of a full PCA run (both reduction phases)."""

    mean: np.ndarray
    covariance: np.ndarray
    version: str
    #: both phases' ledgers merged
    counters: OpCounters
    mean_stats: RunStats | None = None
    cov_stats: RunStats | None = None
    #: each phase's own ledger; field for field they sum to ``counters``
    mean_counters: OpCounters | None = None
    cov_counters: OpCounters | None = None

    def principal_components(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k eigenpairs of the covariance (descending eigenvalues)."""
        vals, vecs = np.linalg.eigh(self.covariance)
        order = np.argsort(vals)[::-1][:k]
        return vals[order], vecs[:, order]

    def project(self, matrix: np.ndarray, k: int) -> np.ndarray:
        """Dimensionality reduction: project columns onto the top-k PCs."""
        _, vecs = self.principal_components(k)
        return vecs.T @ (matrix - self.mean[:, None])


class PcaRunner(ReductionApp):
    """Runs both PCA reduction phases for any version.

    ``options`` are :class:`~repro.apps.base.ReductionApp`'s keyword
    arguments (engine configuration and compiler ``backend``).
    """

    def __init__(self, m: int, version: str = "opt-2", **options: Any) -> None:
        check_positive_int(m, "m")
        super().__init__(version, **options)
        self.m = m
        self.mean_compiled = self.compile(PCA_MEAN_SOURCE, {"m": m})
        self.cov_compiled = self.compile(PCA_COV_SOURCE, {"m": m})

    def run(self, matrix: np.ndarray) -> PcaResult:
        """``matrix`` is (rows=m, cols=n); elements are columns."""
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != self.m:
            raise ReproError(f"matrix must be ({self.m}, n), got {matrix.shape}")
        columns = np.ascontiguousarray(matrix.T)  # (n, m): one row per element
        n = columns.shape[0]

        spec, data, mean_counters, dataset = self._mean_pass(columns)
        mean_res = self.run_pass(spec, data)
        mean = mean_res.ro.get_group(0) / max(mean_res.ro.get(1, 0), 1.0)
        spec, data, cov_counters = self._cov_pass(dataset, n, mean)
        cov_res = self.run_pass(spec, data)

        cov = np.zeros((self.m, self.m))
        for a in range(self.m):
            cov[a] = cov_res.ro.get_group(a)
        cov = cov / max(n - 1, 1)
        cov = cov + np.triu(cov, 1).T  # mirror the upper triangle down
        counters = OpCounters()
        counters.add(mean_counters)
        counters.add(cov_counters)
        return PcaResult(
            mean=mean,
            covariance=cov,
            version=self.version,
            counters=counters,
            mean_stats=mean_res.stats,
            cov_stats=cov_res.stats,
            mean_counters=mean_counters,
            cov_counters=cov_counters,
        )

    def _mean_pass(
        self, columns: np.ndarray
    ) -> tuple[ReductionSpec, Any, OpCounters, Any]:
        """Phase 1's ``(spec, engine data, ledger)`` and the dataset phase 2
        reads: the buffer linearized here, so no version linearizes twice."""
        if self.mean_compiled is None:
            counters = OpCounters()
            return manual_mean_spec(self.m, counters), columns, counters, columns
        bound = self.mean_compiled.bind(columns)
        spec, idx = bound.make_spec(mean_ro_layout(self.m))
        return spec, idx, bound.counters, bound.data_buf

    def _cov_pass(
        self, dataset: Any, n: int, mean: np.ndarray
    ) -> tuple[ReductionSpec, Any, OpCounters]:
        """Phase 2's ``(spec, engine data, ledger)`` around phase 1's mean."""
        if self.cov_compiled is None:
            counters = OpCounters()
            return manual_cov_spec(self.m, mean, counters), dataset, counters
        mean_value = from_python(array_of(REAL, self.m), list(map(float, mean)))
        bound = self.cov_compiled.bind(dataset, {"mean": mean_value}, n_elements=n)
        spec, idx = bound.make_spec(cov_ro_layout(self.m))
        return spec, idx, bound.counters
