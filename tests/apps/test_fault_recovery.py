"""Acceptance: every app recovers transparently from injected split failures.

Each app runs fault-free, then re-runs with a seeded injector failing ~5% of
splits under a retry policy.  Results must be identical, with nonzero retries
and zero abandoned splits.
"""

import math

import numpy as np
import pytest

from repro.apps.apriori import AprioriRunner, generate_transactions
from repro.apps.em import EmRunner
from repro.apps.histogram import HistogramRunner
from repro.apps.kmeans import KmeansRunner
from repro.apps.pca import PcaRunner
from repro.freeride.faults import FaultInjector, FaultPolicy
from repro.freeride.runtime import FreerideEngine, RunStats

FAIL_RATE = 0.05
CHUNK = 10


class RecordingEngine(FreerideEngine):
    """FreerideEngine that keeps every pass's RunStats for assertions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.all_stats: list[RunStats] = []

    def run(self, spec, data):
        result = super().run(spec, data)
        self.all_stats.append(result.stats)
        return result


def pick_seed(num_splits: int) -> int:
    """Smallest seed whose 5% selection hits at least one of num_splits ids."""
    for seed in range(1000):
        if FaultInjector(fail_rate=FAIL_RATE, seed=seed).selected_failures(num_splits):
            return seed
    raise AssertionError("no seed selects a failure — widen the search")


def engine_pair(
    n_elements: int, technique: str = "full_replication"
) -> tuple[RecordingEngine, RecordingEngine]:
    """A fault-free baseline engine and a fault-injecting twin.

    Both share the scheduling configuration (threads, chunking, technique,
    retry policy) so every accumulation happens in the same order — recovery
    must reproduce the baseline bitwise, not merely approximately.
    """
    num_splits = math.ceil(n_elements / CHUNK)
    common = dict(
        num_threads=2,
        chunk_size=CHUNK,
        technique=technique,
        fault_policy=FaultPolicy(max_retries=3),
    )
    baseline = RecordingEngine(**common)
    faulty = RecordingEngine(
        **common,
        fault_injector=FaultInjector(
            fail_rate=FAIL_RATE, seed=pick_seed(num_splits)
        ),
    )
    return baseline, faulty


def assert_recovered(engine: RecordingEngine) -> None:
    assert sum(s.retries for s in engine.all_stats) > 0
    assert sum(s.injected_faults for s in engine.all_stats) > 0
    assert sum(s.failed_splits for s in engine.all_stats) == 0


class TestAppsRecover:
    def test_kmeans(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(120, 2)).round(3)
        init = points[:3].copy()
        clean, faulty = engine_pair(len(points))

        def make_runner():
            return KmeansRunner(k=3, dim=2, version="manual", num_threads=2)

        base_runner = make_runner()
        base_runner.engine = clean
        base = base_runner.run(points, init, iterations=4)
        runner = make_runner()
        runner.engine = faulty
        got = runner.run(points, init, iterations=4)

        assert np.array_equal(got.centroids, base.centroids)
        assert np.array_equal(got.counts, base.counts)
        assert got.iterations == base.iterations
        assert_recovered(runner.engine)

    def test_pca(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(4, 90)).round(3)

        clean, faulty = engine_pair(matrix.shape[1])
        base_runner = PcaRunner(m=4, version="manual", num_threads=2)
        base_runner.engine = clean
        base = base_runner.run(matrix)
        runner = PcaRunner(m=4, version="manual", num_threads=2)
        runner.engine = faulty
        got = runner.run(matrix)

        assert np.array_equal(got.mean, base.mean)
        assert np.array_equal(got.covariance, base.covariance)
        assert_recovered(runner.engine)

    def test_em(self):
        rng = np.random.default_rng(7)
        points = np.concatenate(
            [rng.normal(-2, 1, size=(40, 2)), rng.normal(2, 1, size=(40, 2))]
        ).round(3)

        clean, faulty = engine_pair(len(points))
        base_runner = EmRunner(k=2, dim=2, num_threads=2)
        base_runner.engine = clean
        base = base_runner.run(points, iterations=3, seed=1)
        runner = EmRunner(k=2, dim=2, num_threads=2)
        runner.engine = faulty
        got = runner.run(points, iterations=3, seed=1)

        assert np.array_equal(got.weights, base.weights)
        assert np.array_equal(got.means, base.means)
        assert np.array_equal(got.variances, base.variances)
        assert got.log_likelihood == base.log_likelihood
        assert_recovered(runner.engine)

    def test_apriori(self):
        tx = generate_transactions(80, 6, avg_basket=3, seed=17)

        def make_runner():
            return AprioriRunner(
                6, min_support_frac=0.3, max_size=3, num_threads=2
            )

        clean, faulty = engine_pair(len(tx))
        base_runner = make_runner()
        base_runner.engine = clean
        base = base_runner.run(tx)
        runner = make_runner()
        runner.engine = faulty
        got = runner.run(tx)

        assert got.frequent == base.frequent
        assert got.min_support == base.min_support
        assert_recovered(runner.engine)

    def test_histogram(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(0, 10, size=150).round(3)

        clean, faulty = engine_pair(len(data))
        base_runner = HistogramRunner(bins=8, lo=0, hi=10, version="manual")
        base_runner.engine = clean
        base = base_runner.run(data)
        runner = HistogramRunner(bins=8, lo=0, hi=10, version="manual")
        runner.engine = faulty
        got = runner.run(data)

        assert np.array_equal(got.counts, base.counts)
        assert np.array_equal(got.sums, base.sums)
        assert_recovered(runner.engine)

    def test_kmeans_cache_sensitive_locking(self):
        technique = "cache_sensitive_locking"
        rng = np.random.default_rng(9)
        points = rng.normal(size=(80, 2)).round(3)
        init = points[:3].copy()

        clean, faulty = engine_pair(len(points), technique=technique)
        base_runner = KmeansRunner(
            k=3, dim=2, version="manual", num_threads=2, technique=technique
        )
        base_runner.engine = clean
        base = base_runner.run(points, init, iterations=3)
        runner = KmeansRunner(
            k=3, dim=2, version="manual", num_threads=2, technique=technique
        )
        runner.engine = faulty
        got = runner.run(points, init, iterations=3)

        assert np.array_equal(got.centroids, base.centroids)
        assert_recovered(runner.engine)
