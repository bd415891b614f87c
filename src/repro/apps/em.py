"""Expectation-Maximization for Gaussian mixtures — an extension app.

EM is the classic "harder k-means" of the FREERIDE application family:
each iteration is still one generalized reduction (per point: compute
responsibilities against every cluster, fold weighted sufficient statistics
into the reduction object), followed by a closed-form M-step on the
combined object.  Diagonal covariances keep the reduction object dense:
one group per cluster with ``1 + 2*dim`` elements —
``[sum_r, sum_r*x_d ..., sum_r*x_d^2 ...]``.

The mini-Chapel rendering computes the responsibility normalizer with a
first cluster loop and re-derives each density in a second (locals are
scalars in the DSL) — same arithmetic, expressible without array locals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

__all__ = ["EM_CHAPEL_SOURCE", "EmResult", "EmRunner", "VERSIONS"]

VERSIONS = ("generated", "opt-1", "opt-2", "manual")

_VAR_FLOOR = 1e-6

EM_CHAPEL_SOURCE = """
class emReduction : ReduceScanOp {
  var k: int;
  var dim: int;
  var weights: [1..k] real;
  var means: [1..k][1..dim] real;
  var variances: [1..k][1..dim] real;

  def accumulate(x: [1..dim] real) {
    var total: real = 0.0;
    for c in 1..k {
      var e: real = 0.0;
      for d in 1..dim {
        var diff: real = x[d] - means[c][d];
        e = e + diff * diff / variances[c][d] + log(variances[c][d]);
      }
      total = total + weights[c] * exp(-0.5 * e);
    }
    for c in 1..k {
      var e2: real = 0.0;
      for d in 1..dim {
        var diff2: real = x[d] - means[c][d];
        e2 = e2 + diff2 * diff2 / variances[c][d] + log(variances[c][d]);
      }
      var r: real = weights[c] * exp(-0.5 * e2) / total;
      roAdd(c - 1, 0, r);
      for d in 1..dim {
        roAdd(c - 1, d, r * x[d]);
        roAdd(c - 1, dim + d, r * x[d] * x[d]);
      }
    }
  }
}
"""


def _densities(
    points: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """Unnormalized responsibilities, matching the DSL's arithmetic.

    Uses the same "exponent includes log-variance" form so compiled and
    manual versions agree to floating-point noise.
    """
    diff = points[:, None, :] - means[None, :, :]  # (n, k, d)
    e = (diff**2 / variances[None, :, :] + np.log(variances)[None, :, :]).sum(axis=2)
    return weights[None, :] * np.exp(-0.5 * e)  # (n, k)


@dataclass
class EmResult:
    """Fitted mixture parameters."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float
    iterations: int
    version: str
    counters: OpCounters

    def responsibilities(self, points: np.ndarray) -> np.ndarray:
        dens = _densities(points, self.weights, self.means, self.variances)
        return dens / dens.sum(axis=1, keepdims=True)


class EmRunner:
    """Fits a k-component diagonal Gaussian mixture via FREERIDE passes."""

    def __init__(
        self,
        k: int,
        dim: int,
        version: str = "manual",
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
        self.k, self.dim = k, dim
        self.version = check_one_of(version, VERSIONS, "version")
        self.backend = check_one_of(backend, BACKENDS, "backend")
        self.engine = FreerideEngine(
            num_threads=num_threads, executor=executor, chunk_size=chunk_size,
            technique=technique, tracer=tracer,
            profile_store=profile_store,
        )
        #: RunStats of the most recent engine pass (None before the first)
        self.last_run_stats = None
        self.compiled = None
        if version != "manual":
            level = {"generated": 0, "opt-1": 1, "opt-2": 2}[version]
            self.compiled = compile_cached(
                EM_CHAPEL_SOURCE,
                {"k": k, "dim": dim},
                opt_level=level,
                backend=backend,
            )

    def ro_layout(self) -> list[tuple[int, str]]:
        return [(1 + 2 * self.dim, "add")] * self.k

    # -- one E+M pass --------------------------------------------------------

    def _pass_compiled(self, bound, weights, means, variances):
        from repro.chapel.domains import Domain
        from repro.chapel.types import REAL, ArrayType, array_of
        from repro.chapel.values import from_python

        w_val = from_python(array_of(REAL, self.k), list(map(float, weights)))
        m_t = ArrayType(Domain(self.k), array_of(REAL, self.dim))
        m_val = from_python(m_t, [list(map(float, row)) for row in means])
        v_val = from_python(m_t, [list(map(float, row)) for row in variances])
        bound.update_extras({"weights": w_val, "means": m_val, "variances": v_val})
        spec, idx = bound.make_spec(self.ro_layout())
        result = self.engine.run(spec, idx)
        self.last_run_stats = result.stats
        return result.ro

    def _pass_manual(self, points, weights, means, variances, counters):
        k, dim = self.k, self.dim

        def setup(ro: ReductionObject) -> None:
            for _ in range(k):
                ro.alloc(1 + 2 * dim, "add")

        def reduction(args: ReductionArgs) -> None:
            chunk = np.asarray(args.data, dtype=np.float64)
            if chunk.size == 0:
                return
            dens = _densities(chunk, weights, means, variances)
            r = dens / dens.sum(axis=1, keepdims=True)  # (n, k)
            for c in range(k):
                vals = np.empty(1 + 2 * dim)
                vals[0] = r[:, c].sum()
                vals[1 : 1 + dim] = (r[:, c : c + 1] * chunk).sum(axis=0)
                vals[1 + dim :] = (r[:, c : c + 1] * chunk**2).sum(axis=0)
                args.ro.accumulate_group(c, vals)
            n = chunk.shape[0]
            counters.elements_processed += n
            counters.linear_reads += n * k * dim * 2
            counters.flops += n * k * (6 * dim + 4)
            counters.ro_updates += n * k * (1 + 2 * dim)

        spec = ReductionSpec(
            name="em-manual", setup_reduction_object=setup, reduction=reduction
        )
        result = self.engine.run(spec, points)
        self.last_run_stats = result.stats
        return result.ro

    def close(self) -> None:
        """Release the engine's worker pools and shared-memory segments."""
        self.engine.close()

    def __enter__(self) -> "EmRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the outer sequential loop ------------------------------------------------

    def run(
        self,
        points: np.ndarray,
        iterations: int = 10,
        seed: int = 0,
    ) -> EmResult:
        check_positive_int(iterations, "iterations")
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ReproError(f"points must be (n, {self.dim}), got {points.shape}")
        n = points.shape[0]
        if n < self.k:
            raise ReproError("need at least k points")

        rng = np.random.default_rng(seed)
        weights = np.full(self.k, 1.0 / self.k)
        means = points[rng.choice(n, self.k, replace=False)].copy()
        variances = np.full((self.k, self.dim), points.var(axis=0) + _VAR_FLOOR)

        counters = OpCounters()
        bound = None
        if self.compiled is not None:
            # dataset linearized once; parameters re-linearized per pass
            from repro.chapel.domains import Domain
            from repro.chapel.types import REAL, ArrayType, array_of
            from repro.chapel.values import from_python

            w_val = from_python(array_of(REAL, self.k), list(map(float, weights)))
            m_t = ArrayType(Domain(self.k), array_of(REAL, self.dim))
            m_val = from_python(m_t, [list(map(float, r)) for r in means])
            v_val = from_python(m_t, [list(map(float, r)) for r in variances])
            bound = self.compiled.bind(
                points, {"weights": w_val, "means": m_val, "variances": v_val}
            )

        for _ in range(iterations):
            if bound is not None:
                ro = self._pass_compiled(bound, weights, means, variances)
            else:
                ro = self._pass_manual(points, weights, means, variances, counters)
            # M-step from the combined sufficient statistics
            for c in range(self.k):
                vals = ro.get_group(c)
                sr = max(vals[0], 1e-12)
                mu = vals[1 : 1 + self.dim] / sr
                var = vals[1 + self.dim :] / sr - mu**2
                weights[c] = sr / n
                means[c] = mu
                variances[c] = np.maximum(var, _VAR_FLOOR)
            weights = weights / weights.sum()

        if bound is not None:
            counters.add(bound.counters)
        dens = _densities(points, weights, means, variances)
        ll = float(np.log(np.maximum(dens.sum(axis=1), 1e-300)).sum())
        return EmResult(
            weights=weights,
            means=means,
            variances=variances,
            log_likelihood=ll,
            iterations=iterations,
            version=self.version,
            counters=counters,
        )
