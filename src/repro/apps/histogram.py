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

from repro.compiler.cache import compile_cached
from repro.compiler.translate import BACKENDS
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.machine.counters import OpCounters
from repro.obs.profilestore import ProfileStore
from repro.obs.tracer import Tracer
from repro.util.errors import ReproError
from repro.util.validation import check_one_of, check_positive_int

__all__ = ["HISTOGRAM_CHAPEL_SOURCE", "HistogramResult", "HistogramRunner", "VERSIONS"]

VERSIONS = ("generated", "opt-1", "opt-2", "manual")

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


class HistogramRunner:
    """Histogram over ``bins`` equal-width bins of [lo, hi]."""

    def __init__(
        self,
        bins: int,
        lo: float,
        hi: float,
        version: str = "opt-2",
        num_threads: int = 1,
        executor: str = "serial",
        chunk_size: int | None = None,
        technique: str = "full_replication",
        backend: str = "scalar",
        tracer: "Tracer | None" = None,
        profile_store: "ProfileStore | str | bool | None" = None,
    ) -> None:
        check_positive_int(bins, "bins")
        if not hi > lo:
            raise ReproError(f"need hi > lo, got [{lo}, {hi}]")
        self.bins, self.lo, self.hi = bins, float(lo), float(hi)
        self.width = (self.hi - self.lo) / bins
        self.version = check_one_of(version, VERSIONS, "version")
        self.backend = check_one_of(backend, BACKENDS, "backend")
        self.engine = FreerideEngine(
            num_threads=num_threads, executor=executor, chunk_size=chunk_size,
            technique=technique, tracer=tracer,
            profile_store=profile_store,
        )
        #: RunStats of the most recent engine run (None before the first)
        self.last_run_stats = None
        self.compiled = None
        if version != "manual":
            level = {"generated": 0, "opt-1": 1, "opt-2": 2}[version]
            self.compiled = compile_cached(
                HISTOGRAM_CHAPEL_SOURCE,
                {"bins": bins, "lo": self.lo, "width": self.width},
                opt_level=level,
                backend=backend,
            )

    def ro_layout(self) -> list[tuple[int, str]]:
        return [(2, "add")] * self.bins  # [count, sum] per bin

    def close(self) -> None:
        """Release the engine's worker pools and shared-memory segments."""
        self.engine.close()

    def __enter__(self) -> "HistogramRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(self, data: np.ndarray) -> HistogramResult:
        data = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
        if self.version == "manual":
            return self._run_manual(data)
        bound = self.compiled.bind(data)
        spec, idx = bound.make_spec(self.ro_layout())
        result = self.engine.run(spec, idx)
        self.last_run_stats = result.stats
        return self._collect(result.ro, self.version, bound.counters)

    def _run_manual(self, data: np.ndarray) -> HistogramResult:
        counters = OpCounters()
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

        spec = ReductionSpec(
            name="histogram-manual", setup_reduction_object=setup, reduction=reduction
        )
        result = self.engine.run(spec, data)
        self.last_run_stats = result.stats
        return self._collect(result.ro, "manual", counters)

    def _collect(
        self, ro: ReductionObject, version: str, counters: OpCounters
    ) -> HistogramResult:
        counts = np.array([ro.get(g, 0) for g in range(self.bins)])
        sums = np.array([ro.get(g, 1) for g in range(self.bins)])
        edges = np.linspace(self.lo, self.hi, self.bins + 1)
        return HistogramResult(
            counts=counts, sums=sums, edges=edges, version=version, counters=counters
        )
