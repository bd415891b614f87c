"""Cross-module integration: the whole paper pipeline, many configurations.

Every path through the system must agree on results: mini-Chapel source ->
interpreter oracle == compiled versions (all opt levels) x engines (all
shared-memory techniques x executors x chunkings) == pure
Chapel reduce semantics == numpy.
"""

import numpy as np
import pytest

from repro.apps import KmeansRunner, kmeans_numpy_reference, PcaRunner, pca_numpy_reference
from repro.chapel.forall import reduce_expr
from repro.compiler import compile_all_versions, compile_reduction, interpret_over
from repro.data import initial_centroids, kmeans_points, pca_matrix, open_dataset, write_dataset
from repro.freeride.combination import combine
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.splitter import default_splitter

SUM_SOURCE = """
class sumReduction : ReduceScanOp {
  def accumulate(x: real) { roAdd(0, 0, x); }
}
"""

MINMAX_SOURCE = """
class rangeReduction : ReduceScanOp {
  def accumulate(x: real) {
    roMin(0, 0, x);
    roMax(1, 0, x);
  }
}
"""


class TestSumAgreesEverywhere:
    """One scalar reduction through every execution strategy."""

    DATA = np.linspace(-5, 5, 777)

    def expected(self):
        return float(self.DATA.sum())

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    @pytest.mark.parametrize("technique", ["auto", *SharedMemTechnique])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_compiled_on_engine(self, opt_level, technique, threads):
        comp = compile_reduction(SUM_SOURCE, {}, opt_level=opt_level)
        bound = comp.bind(self.DATA)
        spec, idx = bound.make_spec([(1, "add")])
        engine = FreerideEngine(num_threads=threads, technique=technique)
        result = engine.run(spec, idx)
        assert result.ro.get(0, 0) == pytest.approx(self.expected())

    def test_threads_executor_chunked(self):
        comp = compile_reduction(SUM_SOURCE, {}, opt_level=2)
        bound = comp.bind(self.DATA)
        spec, idx = bound.make_spec([(1, "add")])
        engine = FreerideEngine(num_threads=4, executor="threads", chunk_size=50)
        assert engine.run(spec, idx).ro.get(0, 0) == pytest.approx(self.expected())

    def test_multi_node_cluster(self):
        """A cluster is one engine run per node's block, then ``combine``;
        every block but the first is a ``range`` that does not start at 0."""
        comp = compile_reduction(SUM_SOURCE, {}, opt_level=1)
        bound = comp.bind(self.DATA)
        spec, idx = bound.make_spec([(1, "add")])
        with FreerideEngine(num_threads=2) as engine:
            ros = [engine.run(spec, b.data).ro for b in default_splitter(idx, 3)]
        assert combine(ros)[0].get(0, 0) == pytest.approx(self.expected())

    def test_chapel_reduce_semantics_agree(self):
        assert reduce_expr("+", self.DATA, num_tasks=5) == pytest.approx(
            self.expected()
        )

    def test_interpreter_agrees(self):
        comp = compile_reduction(SUM_SOURCE, {}, opt_level=0)
        ro = interpret_over(comp.lowered, list(self.DATA), {}, [(1, "add")])
        assert ro.get(0, 0) == pytest.approx(self.expected())


class TestMinMaxGroups:
    def test_min_max_ops_through_pipeline(self):
        data = np.array([3.0, -7.5, 12.25, 0.0])
        for level in (0, 1, 2):
            comp = compile_reduction(MINMAX_SOURCE, {}, opt_level=level)
            bound = comp.bind(data)
            spec, idx = bound.make_spec([(1, "min"), (1, "max")])
            result = FreerideEngine(num_threads=2).run(spec, idx)
            assert result.ro.get(0, 0) == -7.5
            assert result.ro.get(1, 0) == 12.25


class TestKmeansFromDisk:
    def test_full_pipeline_with_disk_dataset(self, tmp_path):
        """Generate -> write to disk -> memmap -> manual FR k-means."""
        k, dim = 4, 3
        points = kmeans_points(400, dim, num_blobs=k, seed=55)
        path = write_dataset(tmp_path / "points.npy", points)
        mm = open_dataset(path)
        cents = initial_centroids(points, k, seed=56)
        expected, _ = kmeans_numpy_reference(points, cents, 3)
        runner = KmeansRunner(k, dim, version="manual", num_threads=4, chunk_size=64)
        result = runner.run(np.asarray(mm), cents, 3)
        assert np.allclose(result.centroids, expected)


class TestCrossAppConsistency:
    def test_kmeans_all_versions_identical_trajectories(self):
        """Not just final centroids: per-iteration counts must agree, so
        every version assigns every point to the same cluster at every
        step (same tie-breaking everywhere)."""
        k, dim, iters = 7, 2, 3
        points = kmeans_points(250, dim, num_blobs=k, seed=57)
        cents = initial_centroids(points, k, seed=58)
        counts = {}
        for version in ("generated", "opt-1", "opt-2", "manual"):
            r = KmeansRunner(k, dim, version=version, num_threads=3).run(
                points, cents, iters
            )
            counts[version] = r.counts.tolist()
        assert len({tuple(c) for c in counts.values()}) == 1

    def test_pca_then_kmeans_composition(self):
        """A realistic workflow: reduce dimensionality with PCA, then
        cluster in the projected space — both on this library."""
        matrix = pca_matrix(16, 300, rank=2, noise=0.01, seed=59)
        pca = PcaRunner(16, version="opt-2", num_threads=2).run(matrix)
        projected = pca.project(matrix, k=2).T  # (300, 2) points
        cents = initial_centroids(projected, 3, seed=60)
        result = KmeansRunner(3, 2, version="opt-2").run(projected, cents, 5)
        expected, _ = kmeans_numpy_reference(projected, cents, 5)
        assert np.allclose(result.centroids, expected)


class TestStatsConsistency:
    def test_engine_counts_match_kernel_counts(self):
        comp = compile_reduction(SUM_SOURCE, {}, opt_level=2)
        data = np.arange(500, dtype=np.float64)
        bound = comp.bind(data)
        spec, idx = bound.make_spec([(1, "add")])
        result = FreerideEngine(num_threads=4).run(spec, idx)
        assert result.stats.total_elements == 500
        assert bound.counters.elements_processed == 500
        assert bound.counters.ro_updates == 500
        # engine-side reduction-object accounting agrees
        assert result.stats.ro_updates >= 500
