"""Technique-equivalence matrix: every app x technique x executor.

All six apps must produce identical results under full replication,
cache-sensitive locking, colored waves and auto selection, on both the
serial and thread executors.  Inputs are integer-valued so compiled
accumulations are exact and the comparison is strict equality (EM's
densities use exp/log, so it compares to tight tolerance).

Beyond equivalence, each technique's RunStats must be self-consistent:
colored runs take zero locks and keep a single shared reduction object,
replication pays one copy per thread, and auto records its decision with
the inputs that produced it.
"""

import numpy as np
import pytest

from repro.apps.apriori import AprioriRunner, generate_transactions
from repro.apps.em import EmRunner
from repro.apps.histogram import HistogramRunner
from repro.apps.kmeans import KmeansRunner
from repro.apps.pca import PcaRunner
from repro.apps.windowed import WindowedRunner
from repro.freeride.sharedmem import SharedMemTechnique

TECHNIQUES = ("full_replication", "cache_sensitive_locking", "colored", "auto")
EXECUTORS = ("serial", "threads")
MATRIX = [(t, e) for t in TECHNIQUES for e in EXECUTORS]

rng = np.random.default_rng(42)
KM_POINTS = rng.integers(-40, 40, size=(240, 3)).astype(np.float64)
KM_INIT = KM_POINTS[:4].copy()
PCA_MATRIX = rng.integers(-9, 9, size=(5, 64)).astype(np.float64)
EM_POINTS = np.vstack(
    [
        rng.normal(-4.0, 1.0, size=(80, 2)),
        rng.normal(4.0, 1.0, size=(80, 2)),
    ]
)
BASKETS = generate_transactions(120, 10, seed=3)
HIST_DATA = (np.arange(500, dtype=np.float64) * 7) % 64
WINDOW, NUM_WINDOWS = 32, 8
WINDOWED_SCALE = [1.0, 2.0, 3.0, 4.0]
WINDOWED_DATA = (np.arange(WINDOW * NUM_WINDOWS, dtype=np.float64) // 3) % 8


def check_stats(stats, technique, num_threads=2, min_wave_width=1):
    """Self-consistency of one run's RunStats for the requested technique."""
    assert stats is not None
    assert stats.technique_requested == technique
    eff = stats.technique_effective
    ro_bytes = stats.ro_size * 8
    if technique == "colored":
        # the compiler bounds every app kernel, so colored must not fall back
        assert eff is SharedMemTechnique.COLORED
        assert stats.sharedmem.num_locks == 0
        assert stats.sharedmem.lock_acquisitions == 0
        assert stats.coloring is not None
        assert stats.coloring["source"] == "compiler"
        # a position-dependent group (windowed) must color into parallel
        # waves: the guard against the split-parametric effect analysis
        # regressing to whole-run intervals, which serialize every split
        assert stats.coloring["max_wave_width"] >= min_wave_width
        # single shared RO beats replication's per-thread copies
        assert stats.sharedmem.ro_memory_bytes == ro_bytes
        assert stats.sharedmem.ro_memory_bytes < ro_bytes * num_threads
    elif technique == "full_replication":
        assert eff is SharedMemTechnique.FULL_REPLICATION
        assert stats.sharedmem.ro_memory_bytes == ro_bytes * num_threads
        assert stats.technique_decision is None
    elif technique == "cache_sensitive_locking":
        assert eff is SharedMemTechnique.CACHE_SENSITIVE_LOCKING
        assert stats.sharedmem.num_locks > 0
        assert stats.sharedmem.ro_memory_bytes == ro_bytes
    else:  # auto
        assert eff in SharedMemTechnique
        d = stats.technique_decision
        assert d is not None and d["requested"] == "auto"
        assert d["chosen"] == eff.value
        assert d["reason"]
        for key in ("ro_bytes", "replication_bytes", "num_splits",
                    "colorable", "max_wave_width", "executor"):
            assert key in d["inputs"], key


@pytest.mark.parametrize("technique,executor", MATRIX)
class TestTechniqueMatrix:
    def test_kmeans(self, technique, executor):
        with KmeansRunner(
            k=4, dim=3, num_threads=2, executor=executor, technique=technique
        ) as runner:
            out = runner.run(KM_POINTS, KM_INIT, iterations=2)
        with KmeansRunner(k=4, dim=3) as base_runner:
            base = base_runner.run(KM_POINTS, KM_INIT, iterations=2)
        assert np.array_equal(base.centroids, out.centroids)
        assert np.array_equal(base.counts, out.counts)
        check_stats(out.per_iteration_stats[-1], technique)

    def test_pca(self, technique, executor):
        with PcaRunner(
            m=5, num_threads=2, executor=executor, technique=technique
        ) as runner:
            out = runner.run(PCA_MATRIX)
        with PcaRunner(m=5) as base_runner:
            base = base_runner.run(PCA_MATRIX)
        assert np.array_equal(base.mean, out.mean)
        assert np.array_equal(base.covariance, out.covariance)
        check_stats(out.cov_stats, technique)

    def test_em(self, technique, executor):
        with EmRunner(
            k=2, dim=2, version="opt-2", num_threads=2, executor=executor,
            technique=technique,
        ) as runner:
            out = runner.run(EM_POINTS, iterations=2, seed=0)
            stats = runner.last_run_stats
        with EmRunner(k=2, dim=2, version="opt-2") as base_runner:
            base = base_runner.run(EM_POINTS, iterations=2, seed=0)
        for field in ("weights", "means", "variances"):
            np.testing.assert_allclose(
                getattr(base, field), getattr(out, field), rtol=1e-12,
                err_msg=field,
            )
        check_stats(stats, technique)

    def test_apriori(self, technique, executor):
        with AprioriRunner(
            num_items=10, min_support_frac=0.3, max_size=3,
            version="opt-2", num_threads=2, executor=executor,
            technique=technique,
        ) as runner:
            out = runner.run(BASKETS)
            stats = runner.last_run_stats
        with AprioriRunner(
            num_items=10, min_support_frac=0.3, max_size=3, version="opt-2"
        ) as base_runner:
            base = base_runner.run(BASKETS)
        assert base.frequent == out.frequent
        check_stats(stats, technique)

    def test_histogram(self, technique, executor):
        with HistogramRunner(
            bins=16, lo=0.0, hi=64.0, num_threads=2, executor=executor,
            technique=technique,
        ) as runner:
            out = runner.run(HIST_DATA)
            stats = runner.last_run_stats
        with HistogramRunner(bins=16, lo=0.0, hi=64.0) as base_runner:
            base = base_runner.run(HIST_DATA)
        assert np.array_equal(base.counts, out.counts)
        assert np.array_equal(base.sums, out.sums)
        check_stats(stats, technique)

    def test_windowed(self, technique, executor):
        args = (WINDOW, NUM_WINDOWS, WINDOWED_SCALE, 0.0, 8.0)
        with WindowedRunner(
            *args, num_threads=2, executor=executor, technique=technique
        ) as runner:
            out = runner.run(WINDOWED_DATA)
            stats = runner.last_run_stats
        with WindowedRunner(*args) as base_runner:
            base = base_runner.run(WINDOWED_DATA)
        assert np.array_equal(base.counts, out.counts)
        assert np.array_equal(base.sums, out.sums)
        check_stats(stats, technique, min_wave_width=2)
