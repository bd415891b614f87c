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

from repro.chapel.values import from_python
from repro.compiler.cache import compile_cached
from repro.compiler.translate import BACKENDS
from repro.freeride.runtime import FreerideEngine
from repro.machine.counters import OpCounters
from repro.obs.profilestore import ProfileStore
from repro.obs.tracer import Tracer
from repro.util.errors import ReproError
from repro.util.validation import check_one_of, check_positive_int

__all__ = ["WINDOWED_CHAPEL_SOURCE", "WindowedResult", "WindowedRunner", "VERSIONS"]

VERSIONS = ("generated", "opt-1", "opt-2")

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


class WindowedRunner:
    """Windowed statistics over ``num_windows`` windows of ``window`` samples.

    ``scale`` maps each of ``bins`` equal-width value bins of ``[lo, hi]``
    to a weight; elements past ``num_windows * window`` fold into the last
    window (the kernel's clamp).
    """

    def __init__(
        self,
        window: int,
        num_windows: int,
        scale: "np.ndarray | list[float]",
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
        check_positive_int(window, "window")
        check_positive_int(num_windows, "num_windows")
        if not hi > lo:
            raise ReproError(f"need hi > lo, got [{lo}, {hi}]")
        self.scale = np.ascontiguousarray(scale, dtype=np.float64).reshape(-1)
        if self.scale.size == 0:
            raise ReproError("scale table must have at least one bin")
        self.window, self.num_windows = window, num_windows
        self.lo, self.hi = float(lo), float(hi)
        self.width = (self.hi - self.lo) / self.scale.size
        self.version = check_one_of(version, VERSIONS, "version")
        self.backend = check_one_of(backend, BACKENDS, "backend")
        self.engine = FreerideEngine(
            num_threads=num_threads, executor=executor, chunk_size=chunk_size,
            technique=technique, tracer=tracer,
            profile_store=profile_store,
        )
        #: RunStats of the most recent engine run (None before the first)
        self.last_run_stats = None
        level = {"generated": 0, "opt-1": 1, "opt-2": 2}[version]
        self.compiled = compile_cached(
            WINDOWED_CHAPEL_SOURCE,
            {
                "win": window,
                "nw": num_windows,
                "nb": int(self.scale.size),
                "lo": self.lo,
                "width": self.width,
            },
            opt_level=level,
            backend=backend,
        )

    def ro_layout(self) -> list[tuple[int, str]]:
        return [(2, "add")] * self.num_windows  # [count, sum] per window

    def close(self) -> None:
        """Release the engine's worker pools and shared-memory segments."""
        self.engine.close()

    def __enter__(self) -> "WindowedRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(self, data: np.ndarray) -> WindowedResult:
        data = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
        scale_t = self.compiled.lowered.extra_types["scale"]
        bound = self.compiled.bind(
            data, {"scale": from_python(scale_t, self.scale.tolist())}
        )
        spec, idx = bound.make_spec(self.ro_layout())
        result = self.engine.run(spec, idx)
        self.last_run_stats = result.stats
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
