"""Histogram — an extension app from FREERIDE's generalized-reduction family.

Binned counting is the simplest generalized reduction ("the iterations of
the for-each loop can be performed in any order"): each element maps to one
bin (a reduction-object group) and folds in a count and a value sum.  It is
also the canonical workload for the Figure 4 structural comparison, because
Map-Reduce must materialize one (bin, value) pair per element while
FREERIDE updates the bins in place.

Like the paper's apps, it comes as a mini-Chapel reduction (compiled at any
opt level) and a hand-written manual FR version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.base import VERSIONS, ReductionApp
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.machine.counters import OpCounters
from repro.util.errors import ReproError
from repro.util.validation import check_positive_int

__all__ = ["HISTOGRAM_CHAPEL_SOURCE", "HistogramResult", "HistogramRunner", "VERSIONS"]

#: Binning as a Chapel reduction.  ``lo``/``width``/``bins`` are
#: compile-time constants; the clamp keeps x == hi in the last bin.
HISTOGRAM_CHAPEL_SOURCE = """
class histogramReduction : ReduceScanOp {
  var bins: int;
  var lo: real;
  var width: real;

  def accumulate(x: real) {
    var b: int = toInt((x - lo) / width);
    if (b < 0) { b = 0; }
    if (b > bins - 1) { b = bins - 1; }
    roAdd(b, 0, 1.0);
    roAdd(b, 1, x);
  }
}
"""


@dataclass
class HistogramResult:
    """Per-bin counts and sums."""

    counts: np.ndarray
    sums: np.ndarray
    edges: np.ndarray
    version: str
    counters: OpCounters

    @property
    def means(self) -> np.ndarray:
        """Per-bin mean value (NaN for empty bins)."""
        with np.errstate(invalid="ignore"):
            return np.where(self.counts > 0, self.sums / self.counts, np.nan)


class HistogramRunner(ReductionApp):
    """Histogram over ``bins`` equal-width bins of [lo, hi].

    ``options`` are :class:`~repro.apps.base.ReductionApp`'s keyword
    arguments (engine configuration and compiler ``backend``).
    """

    def __init__(
        self, bins: int, lo: float, hi: float, version: str = "opt-2", **options: Any
    ) -> None:
        check_positive_int(bins, "bins")
        if not hi > lo:
            raise ReproError(f"need hi > lo, got [{lo}, {hi}]")
        super().__init__(version, **options)
        self.bins, self.lo, self.hi = bins, float(lo), float(hi)
        self.width = (self.hi - self.lo) / bins
        self.compiled = self.compile(
            HISTOGRAM_CHAPEL_SOURCE,
            {"bins": bins, "lo": self.lo, "width": self.width},
        )

    def ro_layout(self) -> list[tuple[int, str]]:
        return [(2, "add")] * self.bins  # [count, sum] per bin

    def run(self, data: np.ndarray) -> HistogramResult:
        data = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
        if self.compiled is None:
            counters = OpCounters()
            spec, engine_data = self._manual_spec(counters), data
        else:
            bound = self.compiled.bind(data)
            counters = bound.counters
            spec, engine_data = bound.make_spec(self.ro_layout())
        ro = self.run_pass(spec, engine_data).ro
        return HistogramResult(
            counts=np.array([ro.get(g, 0) for g in range(self.bins)]),
            sums=np.array([ro.get(g, 1) for g in range(self.bins)]),
            edges=np.linspace(self.lo, self.hi, self.bins + 1),
            version=self.version,
            counters=counters,
        )

    def _manual_spec(self, counters: OpCounters) -> ReductionSpec:
        bins, lo, width = self.bins, self.lo, self.width

        def setup(ro: ReductionObject) -> None:
            for _ in range(bins):
                ro.alloc(2, "add")

        def reduction(args: ReductionArgs) -> None:
            chunk = np.asarray(args.data, dtype=np.float64)
            if chunk.size == 0:
                return
            b = np.clip(((chunk - lo) / width).astype(np.int64), 0, bins - 1)
            counts = np.bincount(b, minlength=bins).astype(float)
            sums = np.bincount(b, weights=chunk, minlength=bins)
            for g in np.nonzero(counts)[0]:
                args.ro.accumulate_group(int(g), np.array([counts[g], sums[g]]))
            n = chunk.size
            counters.elements_processed += n
            counters.linear_reads += n
            counters.flops += n * 4  # sub, div, clamp x2
            counters.ro_updates += n * 2

        return ReductionSpec(
            name="histogram-manual", setup_reduction_object=setup, reduction=reduction
        )
