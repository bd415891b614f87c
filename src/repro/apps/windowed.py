"""Windowed scaled statistics — the effect-analysis showcase app.

Time-series style generalized reduction: the input is a stream of samples
partitioned into fixed-width *windows* of ``win`` consecutive elements;
each window is one reduction-object group accumulating a sample count and
a sum of samples reweighted through a small per-bin ``scale`` lookup
table.  Two properties make it the stress test for the unified symbolic
effect analysis (:mod:`repro.analysis.effects`):

* the **group index is a function of the element position** —
  ``toInt(elemIdx() / win)`` clamped to the last window.  A whole-run
  interval analysis sees every split touching every window, so the
  COLORED technique degenerates to one split per wave (or, without
  min/max reasoning, falls back to replication outright).  The
  split-parametric summary instead evaluates the group form over each
  split's element range: splits on ``win``-aligned boundaries have
  provably disjoint footprints and color into one fully parallel wave;
* the **scale lookup is a bounded gather** — ``scale[b + 1]`` with a
  data-dependent ``b``.  Plain batch taint analysis rejects any
  lane-varying access-site index and falls back to the scalar kernel;
  the effect summary proves ``b + 1 ∈ [1 .. nb]`` from the clamp chain,
  so the batch backend vectorizes the access with a grouped ``np.take``.

Results are bit-identical to the serial scalar run under both backends
and under colored threads — counts are integral, each element contributes
one float product, and ``win``-aligned splits keep every window inside a
single split so no sum is ever reassociated.  Replica-merging techniques
with unaligned splits (e.g. the process executor's full replication) may
reassociate the one window a split boundary straddles — the usual RS020
floating-point rounding noise, numerically but not bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.base import ReductionApp
from repro.chapel.values import from_python
from repro.compiler.pipeline import OPT_LEVELS
from repro.machine.counters import OpCounters
from repro.util.errors import ReproError
from repro.util.validation import check_positive_int

__all__ = ["WINDOWED_CHAPEL_SOURCE", "WindowedResult", "WindowedRunner", "VERSIONS"]

#: compiled only: there is no hand-written windowed reduction
VERSIONS = tuple(OPT_LEVELS)

#: Per-window count and scaled sum.  ``w`` depends only on the element
#: position (an affine form of ``elemIdx()``); ``b`` is the value's bin,
#: clamped into the ``scale`` table's domain before the lookup.
WINDOWED_CHAPEL_SOURCE = """
class windowedReduction : ReduceScanOp {
  var win: int;
  var nw: int;
  var nb: int;
  var lo: real;
  var width: real;
  var scale: [1..nb] real;

  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > nw - 1) { w = nw - 1; }
    var b: int = toInt((x - lo) / width);
    if (b < 0) { b = 0; }
    if (b > nb - 1) { b = nb - 1; }
    roAdd(w, 0, 1.0);
    roAdd(w, 1, x * scale[b + 1]);
  }
}
"""


@dataclass
class WindowedResult:
    """Per-window sample counts and scale-weighted sums."""

    counts: np.ndarray
    sums: np.ndarray
    version: str
    counters: OpCounters

    @property
    def means(self) -> np.ndarray:
        """Per-window mean weighted value (NaN for empty windows)."""
        with np.errstate(invalid="ignore"):
            return np.where(self.counts > 0, self.sums / self.counts, np.nan)


class WindowedRunner(ReductionApp):
    """Windowed statistics over ``num_windows`` windows of ``window`` samples.

    ``scale`` maps each of ``bins`` equal-width value bins of ``[lo, hi]``
    to a weight; elements past ``num_windows * window`` fold into the last
    window (the kernel's clamp).  ``options`` are
    :class:`~repro.apps.base.ReductionApp`'s keyword arguments (engine
    configuration and compiler ``backend``).
    """

    VERSIONS = VERSIONS

    def __init__(
        self,
        window: int,
        num_windows: int,
        scale: "np.ndarray | list[float]",
        lo: float,
        hi: float,
        version: str = "opt-2",
        **options: Any,
    ) -> None:
        check_positive_int(window, "window")
        check_positive_int(num_windows, "num_windows")
        if not hi > lo:
            raise ReproError(f"need hi > lo, got [{lo}, {hi}]")
        self.scale = np.ascontiguousarray(scale, dtype=np.float64).reshape(-1)
        if self.scale.size == 0:
            raise ReproError("scale table must have at least one bin")
        super().__init__(version, **options)
        self.window, self.num_windows = window, num_windows
        self.lo, self.hi = float(lo), float(hi)
        self.width = (self.hi - self.lo) / self.scale.size
        self.compiled = self.compile(
            WINDOWED_CHAPEL_SOURCE,
            {
                "win": window,
                "nw": num_windows,
                "nb": int(self.scale.size),
                "lo": self.lo,
                "width": self.width,
            },
        )

    def ro_layout(self) -> list[tuple[int, str]]:
        return [(2, "add")] * self.num_windows  # [count, sum] per window

    def run(self, data: np.ndarray) -> WindowedResult:
        data = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
        scale_t = self.compiled.lowered.extra_types["scale"]
        bound = self.compiled.bind(
            data, {"scale": from_python(scale_t, self.scale.tolist())}
        )
        spec, idx = bound.make_spec(self.ro_layout())
        result = self.run_pass(spec, idx)
        counts = np.array(
            [result.ro.get(g, 0) for g in range(self.num_windows)]
        )
        sums = np.array(
            [result.ro.get(g, 1) for g in range(self.num_windows)]
        )
        return WindowedResult(
            counts=counts, sums=sums, version=self.version,
            counters=bound.counters,
        )

    def reference(self, data: np.ndarray) -> WindowedResult:
        """Plain-numpy oracle (same clamp semantics as the kernel)."""
        data = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
        nb = self.scale.size
        w = np.minimum(np.arange(data.size) // self.window, self.num_windows - 1)
        b = np.clip(((data - self.lo) / self.width).astype(np.int64), 0, nb - 1)
        weighted = data * self.scale[b]
        counts = np.bincount(w, minlength=self.num_windows).astype(float)
        sums = np.bincount(w, weights=weighted, minlength=self.num_windows)
        return WindowedResult(
            counts=counts[: self.num_windows], sums=sums[: self.num_windows],
            version="reference", counters=OpCounters(),
        )
