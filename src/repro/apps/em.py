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

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.apps.base import VERSIONS, ReductionApp
from repro.chapel.domains import Domain
from repro.chapel.types import REAL, ArrayType, array_of
from repro.chapel.values import from_python
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import ReductionResult
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.machine.counters import OpCounters
from repro.util.errors import ReproError
from repro.util.validation import check_positive_int

__all__ = ["EM_CHAPEL_SOURCE", "EmResult", "EmRunner", "VERSIONS"]

#: the mixture between passes: (weights, means, variances)
_Params = tuple[np.ndarray, np.ndarray, np.ndarray]

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


class EmRunner(ReductionApp):
    """Fits a k-component diagonal Gaussian mixture via FREERIDE passes.

    ``options`` are :class:`~repro.apps.base.ReductionApp`'s keyword
    arguments (engine configuration and compiler ``backend``).
    """

    def __init__(
        self, k: int, dim: int, version: str = "manual", **options: Any
    ) -> None:
        check_positive_int(k, "k")
        check_positive_int(dim, "dim")
        super().__init__(version, **options)
        self.k, self.dim = k, dim
        self.compiled = self.compile(EM_CHAPEL_SOURCE, {"k": k, "dim": dim})

    def ro_layout(self) -> list[tuple[int, str]]:
        return [(1 + 2 * self.dim, "add")] * self.k

    # -- the E-step reduction, per version ----------------------------------------

    def _extras(
        self, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
    ) -> dict[str, Any]:
        """The mixture as the Chapel values of the class fields."""
        m_t = ArrayType(Domain(self.k), array_of(REAL, self.dim))
        return {
            "weights": from_python(array_of(REAL, self.k), list(map(float, weights))),
            "means": from_python(m_t, [list(map(float, row)) for row in means]),
            "variances": from_python(m_t, [list(map(float, row)) for row in variances]),
        }

    def _manual_spec(
        self,
        weights: np.ndarray,
        means: np.ndarray,
        variances: np.ndarray,
        counters: OpCounters,
    ) -> ReductionSpec:
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

        return ReductionSpec(
            name="em-manual", setup_reduction_object=setup, reduction=reduction
        )

    def _passes(
        self, points: np.ndarray, params: _Params
    ) -> tuple[Callable[[_Params], ReductionSpec], Any, OpCounters]:
        """This version's ``(make_spec(params), engine data, counter ledger)``."""
        if self.compiled is None:
            counters = OpCounters()
            return lambda p: self._manual_spec(*p, counters), points, counters
        # dataset linearized once; parameters re-linearized per pass
        bound = self.compiled.bind(points, self._extras(*params))

        def make_spec(p: _Params) -> ReductionSpec:
            bound.update_extras(self._extras(*p))
            return bound.make_spec(self.ro_layout())[0]

        return make_spec, range(bound.n_elements), bound.counters

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
        initial = (
            np.full(self.k, 1.0 / self.k),
            points[rng.choice(n, self.k, replace=False)].copy(),
            np.full((self.k, self.dim), points.var(axis=0) + _VAR_FLOOR),
        )

        def m_step(result: ReductionResult, params: _Params) -> _Params:
            # closed form, from the combined sufficient statistics
            weights, means, variances = (np.empty_like(a) for a in params)
            for c in range(self.k):
                vals = result.ro.get_group(c)
                sr = max(vals[0], 1e-12)
                mu = vals[1 : 1 + self.dim] / sr
                var = vals[1 + self.dim :] / sr - mu**2
                weights[c] = sr / n
                means[c] = mu
                variances[c] = np.maximum(var, _VAR_FLOOR)
            return weights / weights.sum(), means, variances

        make_spec, data, counters = self._passes(points, initial)
        (weights, means, variances), results = self.engine.run_iterative(
            make_spec, data, iterations, m_step, initial
        )
        self.note_pass(results[-1])
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
