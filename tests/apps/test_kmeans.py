"""Tests for the k-means application (all four §V versions)."""

import numpy as np
import pytest

from repro.apps.kmeans import (
    KmeansRunner,
    centroids_from_ro,
    centroids_to_chapel,
    kmeans_numpy_reference,
    kmeans_ro_layout,
    manual_fr_spec,
)
from repro.data import initial_centroids, kmeans_points
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.machine.counters import OpCounters
from repro.util.errors import ReproError

K, DIM, N, ITERS = 5, 3, 300, 4


@pytest.fixture(scope="module")
def workload():
    points = kmeans_points(N, DIM, num_blobs=K, seed=31)
    cents = initial_centroids(points, K, seed=32)
    expected, counts = kmeans_numpy_reference(points, cents, ITERS)
    return points, cents, expected, counts


class TestAllVersionsAgree:
    @pytest.mark.parametrize("version", ["generated", "opt-1", "opt-2", "manual"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_matches_numpy_reference(self, workload, version, threads):
        points, cents, expected, counts = workload
        runner = KmeansRunner(K, DIM, version=version, num_threads=threads)
        result = runner.run(points, cents, ITERS)
        assert np.allclose(result.centroids, expected)
        assert np.array_equal(result.counts, counts)
        assert result.iterations == ITERS
        assert result.version == version

    def test_real_thread_executor(self, workload):
        points, cents, expected, _ = workload
        runner = KmeansRunner(
            K, DIM, version="manual", num_threads=4, executor="threads",
            chunk_size=32,
        )
        result = runner.run(points, cents, ITERS)
        assert np.allclose(result.centroids, expected)

    @pytest.mark.parametrize(
        "technique",
        ["full_replication", "cache_sensitive_locking"],
    )
    def test_techniques_agree(self, workload, technique):
        points, cents, expected, _ = workload
        runner = KmeansRunner(
            K, DIM, version="opt-2", num_threads=2, technique=technique
        )
        assert np.allclose(runner.run(points, cents, ITERS).centroids, expected)


class TestConvergenceBehaviour:
    def test_inertia_non_increasing(self, workload):
        """K-means inertia must not increase with more iterations."""
        points, cents, _, _ = workload
        inertias = []
        for iters in (1, 2, 4, 8):
            r = KmeansRunner(K, DIM, version="manual").run(points, cents, iters)
            inertias.append(r.inertia)
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_empty_cluster_keeps_centroid(self):
        points = np.zeros((10, 2))  # everything lands on centroid 0
        cents = np.array([[0.0, 0.0], [100.0, 100.0]])
        r = KmeansRunner(2, 2, version="manual").run(points, cents, 2)
        assert np.array_equal(r.centroids[1], [100.0, 100.0])
        assert r.counts[1] == 0


class TestHelpers:
    def test_ro_layout(self):
        # [count, sum_1..sum_dim, sum_min_distance] per centroid
        assert kmeans_ro_layout(3, 4) == [(6, "add")] * 3

    def test_centroids_roundtrip_through_chapel(self):
        cents = np.array([[1.0, 2.0], [3.0, 4.0]])
        value = centroids_to_chapel(cents)
        assert value[1].coord[1] == 1.0
        assert value[2].coord[2] == 4.0

    def test_centroids_from_ro(self):
        ro = ReductionObject()
        ro.alloc_matrix(2, 4)  # [count, sum_x, sum_y, sum_min_dist]
        ro.accumulate_group(0, np.array([2.0, 4.0, 6.0, 1.25]))
        old = np.array([[9.0, 9.0], [7.0, 7.0]])
        new, counts, inertia = centroids_from_ro(ro, old)
        assert np.allclose(new[0], [2.0, 3.0])
        assert np.array_equal(new[1], [7.0, 7.0])  # empty cluster unchanged
        assert counts.tolist() == [2.0, 0.0]
        assert inertia == 1.25

    def test_manual_spec_counters(self):
        counters = OpCounters()
        spec = manual_fr_spec(np.zeros((2, 3)), counters)
        FreerideEngine().run(spec, np.ones((10, 3)))
        assert counters.elements_processed == 10
        assert counters.linear_reads == 10 * 2 * 3 * 2
        assert counters.ro_updates == 10 * 5  # count + 3 sums + min-dist


class TestValidation:
    def test_bad_version(self):
        with pytest.raises(ValueError):
            KmeansRunner(2, 2, version="opt-3")

    def test_wrong_point_shape(self):
        with pytest.raises(ReproError):
            KmeansRunner(2, 2).run(np.zeros((10, 3)), np.zeros((2, 2)), 1)

    def test_wrong_centroid_shape(self):
        with pytest.raises(ReproError):
            KmeansRunner(2, 2).run(np.zeros((10, 2)), np.zeros((3, 2)), 1)

    def test_zero_iterations(self):
        with pytest.raises(ValueError):
            KmeansRunner(2, 2).run(np.zeros((10, 2)), np.zeros((2, 2)), 0)


class TestConvergenceCriterion:
    """The paper's step 4: repeat until the centroids are stable."""

    def test_tol_stops_early(self, workload):
        points, cents, _, _ = workload
        result = KmeansRunner(K, DIM, version="manual").run(
            points, cents, iterations=50, tol=1e-12
        )
        assert result.converged
        assert result.iterations < 50

    def test_converged_centroids_are_fixed_point(self, workload):
        points, cents, _, _ = workload
        result = KmeansRunner(K, DIM, version="manual").run(
            points, cents, iterations=100, tol=1e-12
        )
        again = KmeansRunner(K, DIM, version="manual").run(
            points, result.centroids, iterations=1
        )
        assert np.allclose(again.centroids, result.centroids)

    def test_compiled_version_converges_identically(self, workload):
        points, cents, _, _ = workload
        a = KmeansRunner(K, DIM, version="manual").run(
            points, cents, 50, tol=1e-12
        )
        b = KmeansRunner(K, DIM, version="opt-2").run(
            points, cents, 50, tol=1e-12
        )
        assert a.iterations == b.iterations
        assert np.allclose(a.centroids, b.centroids)

    def test_inertia_trace_non_increasing(self, workload):
        points, cents, _, _ = workload
        result = KmeansRunner(K, DIM, version="manual").run(points, cents, 6)
        trace = result.inertia_trace
        assert len(trace) == 6
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_trace_matches_across_versions(self, workload):
        points, cents, _, _ = workload
        traces = {
            v: KmeansRunner(K, DIM, version=v).run(points, cents, 3).inertia_trace
            for v in ("generated", "opt-2", "manual")
        }
        base = traces["manual"]
        for v, t in traces.items():
            assert np.allclose(t, base), v

    def test_no_tol_runs_all_iterations(self, workload):
        points, cents, _, _ = workload
        result = KmeansRunner(K, DIM, version="manual").run(points, cents, 4)
        assert result.iterations == 4 and not result.converged
