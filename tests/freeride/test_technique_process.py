"""Process-executor technique honesty + shared-segment dedupe.

Two bugfix regressions ride together here:

* the process executor can only run full replication.  An explicit
  conflicting request must raise — at construction *and* at run time (an
  engine whose ``.technique`` was mutated after init used to run
  replication while stamping the stats with the technique it did not
  use) — and ``technique="auto"`` must coerce *honestly*, recording the
  coercion in ``RunStats.technique_decision``;
* published dataset segments are deduped by content digest, so binding
  the same matrix in two phases (PCA) or re-running with fresh extras
  every iteration (k-means) keeps exactly one segment alive.
"""

import numpy as np
import pytest

from repro.apps.kmeans import KmeansRunner
from repro.apps.pca import PcaRunner
from repro.compiler.cache import compile_cached
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedMemTechnique
from repro.util.errors import FreerideError

rng = np.random.default_rng(42)
KM_POINTS = rng.integers(-40, 40, size=(240, 3)).astype(np.float64)
KM_INIT = KM_POINTS[:4].copy()
PCA_MATRIX = rng.integers(-9, 9, size=(5, 64)).astype(np.float64)


def _hist_spec():
    compiled = compile_cached(
        HISTOGRAM_CHAPEL_SOURCE, {"bins": 8, "lo": 0.0, "width": 8.0},
        opt_level=2,
    )
    bound = compiled.bind((np.arange(200, dtype=np.float64) * 3) % 64)
    return bound.make_spec([(2, "add")] * 8)


class TestProcessTechniqueHonesty:
    @pytest.mark.parametrize("technique", ["cache_sensitive_locking", "colored"])
    def test_explicit_conflicting_technique_raises_at_init(self, technique):
        with pytest.raises(FreerideError, match="full_replication"):
            FreerideEngine(executor="process", technique=technique)

    def test_mutated_technique_raises_at_run_not_mislabeled(self):
        """The regression: a post-init mutation used to run full replication
        while RunStats.technique_effective claimed the mutated technique."""
        engine = FreerideEngine(num_threads=2, executor="process")
        engine.technique = SharedMemTechnique.CACHE_SENSITIVE_LOCKING
        spec, idx = _hist_spec()
        try:
            with pytest.raises(FreerideError, match="cache_sensitive_locking"):
                engine.run(spec, idx)
        finally:
            engine.close()

    def test_auto_coerces_to_replication_and_records_it(self):
        spec, idx = _hist_spec()
        with FreerideEngine(
            num_threads=2, executor="process", technique="auto"
        ) as engine:
            res = engine.run(spec, idx)
        s = res.stats
        assert s.technique_requested == "auto"
        assert s.technique_effective is SharedMemTechnique.FULL_REPLICATION
        d = s.technique_decision
        assert d is not None
        assert d["chosen"] == "full_replication"
        assert "process" in d["reason"]
        assert d["inputs"]["executor"] == "process"

    def test_auto_process_matches_serial_bitwise(self):
        spec, idx = _hist_spec()
        with FreerideEngine(num_threads=2) as serial_engine:
            base = serial_engine.run(*_hist_spec())
        with FreerideEngine(
            num_threads=2, executor="process", technique="auto"
        ) as engine:
            res = engine.run(spec, idx)
        assert np.array_equal(base.ro.snapshot(), res.ro.snapshot())


class TestSegmentDedupe:
    def test_pca_phases_share_one_segment(self):
        """Mean and covariance passes bind the same matrix; publishing by
        content digest must keep a single segment, not one per phase."""
        with PcaRunner(m=5, num_threads=2, executor="process") as runner:
            runner.run(PCA_MATRIX)
            assert len(runner.engine._res.segments) == 1

    def test_kmeans_iterations_share_one_segment(self):
        """run_iterative republishes per pass (fresh centroids as extras);
        the unchanged point data must not grow the segment cache."""
        with KmeansRunner(
            k=4, dim=3, num_threads=2, executor="process"
        ) as runner:
            runner.run(KM_POINTS, KM_INIT, iterations=3)
            assert len(runner.engine._res.segments) == 1

    def test_distinct_datasets_get_distinct_segments(self):
        spec_a, idx_a = _hist_spec()
        compiled = compile_cached(
            HISTOGRAM_CHAPEL_SOURCE, {"bins": 8, "lo": 0.0, "width": 8.0},
            opt_level=2,
        )
        bound_b = compiled.bind((np.arange(300, dtype=np.float64) * 5) % 64)
        spec_b, idx_b = bound_b.make_spec([(2, "add")] * 8)
        with FreerideEngine(num_threads=2, executor="process") as engine:
            a = engine.run(spec_a, idx_a)
            b = engine.run(spec_b, idx_b)
            assert len(engine._res.segments) == 2
        assert a.ro.snapshot().sum() != b.ro.snapshot().sum()
