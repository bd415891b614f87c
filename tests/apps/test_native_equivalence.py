"""backend="native" == serial scalar across apps, versions and executors.

The JIT C kernels must be bit-identical to the interpreted scalar kernel
for every application, compiled version and executor — including
OpCounters parity (the C kernel's integer counters mirror the Python
kernel's static cost bumps exactly) and under injected faults (native splits accumulate
into per-attempt scratch the engine only commits on success).  Inputs are
integer-valued (and PCA's column count a power of two) so accumulations
are exact and most comparisons can be strict equality; EM's
responsibilities involve ``exp``/``log``, so it compares to tight
tolerance instead.  ``TestRealValuedBitIdentity`` is the exception: the
native tier reduces in one step, in element order, so on one lane it
matches the scalar oracle bit for bit on any data and at any split size.

The whole module skips when the host has no usable C toolchain (the
backend then downgrades to batch/scalar, which other suites cover).
"""

import numpy as np
import pytest

from repro.apps.apriori import AprioriRunner, generate_transactions
from repro.apps.em import EmRunner
from repro.apps.histogram import HistogramRunner
from repro.apps.kmeans import KmeansRunner
from repro.apps.pca import PcaRunner
from repro.apps.windowed import WindowedRunner
from repro.compiler.native import probe_toolchain
from repro.freeride.faults import FaultInjector, FaultPolicy

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

EXECUTORS = ("serial", "threads", "process")
VERSIONS = ("generated", "opt-1", "opt-2")

rng = np.random.default_rng(42)
KM_POINTS = rng.integers(-40, 40, size=(240, 3)).astype(np.float64)
KM_INIT = KM_POINTS[:4].copy()
PCA_MATRIX = rng.integers(-9, 9, size=(5, 64)).astype(np.float64)  # n = 2**6
EM_POINTS = np.vstack(
    [
        rng.normal(-4.0, 1.0, size=(80, 2)),
        rng.normal(4.0, 1.0, size=(80, 2)),
    ]
)
BASKETS = generate_transactions(120, 10, seed=3)
HIST_DATA = (np.arange(500, dtype=np.float64) * 7) % 64
WIN_SCALE = np.arange(1, 9, dtype=np.float64)  # integer weights: exact sums
WIN_DATA = ((np.arange(512, dtype=np.float64) * 13) % 64) / 64.0


def _compiled_of(runner):
    """Every CompiledReduction the runner holds (apriori compiles per pass)."""
    found = []
    for attr in ("compiled", "mean_compiled", "cov_compiled"):
        c = getattr(runner, attr, None)
        if c is not None:
            found.append(c)
    return found


def _native_each(make_runner, run):
    """The native result per executor (runners closed on the way out)."""
    out = {}
    for executor in EXECUTORS:
        runner = make_runner(executor)
        for compiled in _compiled_of(runner):
            assert compiled.native_kernel is not None, (
                executor,
                compiled.native_fallback_reason,
            )
        try:
            out[executor] = run(runner)
        finally:
            runner.close()
    return out


class TestNativeMatchesScalar:
    """scalar serial baseline vs native on every executor, all versions."""

    @pytest.mark.parametrize("version", VERSIONS)
    def test_kmeans(self, version):
        if version != "opt-2":
            pytest.skip("nested extras at opt 0/1: native records a fallback")
        base = KmeansRunner(k=4, dim=3, version=version, backend="scalar").run(
            KM_POINTS, KM_INIT, iterations=2
        )
        out = _native_each(
            lambda ex: KmeansRunner(
                k=4, dim=3, version=version, num_threads=2, executor=ex,
                backend="native",
            ),
            lambda r: r.run(KM_POINTS, KM_INIT, iterations=2),
        )
        for executor, res in out.items():
            assert np.array_equal(base.centroids, res.centroids), executor
            assert np.array_equal(base.counts, res.counts), executor
            assert base.counters.as_dict() == res.counters.as_dict(), executor

    @pytest.mark.parametrize("version", VERSIONS)
    def test_histogram(self, version):
        base = HistogramRunner(
            bins=16, lo=0.0, hi=64.0, version=version, backend="scalar"
        ).run(HIST_DATA)
        out = _native_each(
            lambda ex: HistogramRunner(
                bins=16, lo=0.0, hi=64.0, version=version,
                num_threads=2, executor=ex, backend="native",
            ),
            lambda r: r.run(HIST_DATA),
        )
        for executor, res in out.items():
            assert np.array_equal(base.counts, res.counts), executor
            assert np.array_equal(base.sums, res.sums), executor
            assert base.counters.as_dict() == res.counters.as_dict(), executor

    @pytest.mark.parametrize("version", ["opt-2"])
    def test_pca(self, version):
        base = PcaRunner(m=5, version=version, backend="scalar").run(PCA_MATRIX)
        out = _native_each(
            lambda ex: PcaRunner(
                m=5, version=version, num_threads=2, executor=ex,
                backend="native",
            ),
            lambda r: r.run(PCA_MATRIX),
        )
        for executor, res in out.items():
            assert np.array_equal(base.mean, res.mean), executor
            assert np.array_equal(base.covariance, res.covariance), executor

    @pytest.mark.parametrize("version", ["opt-2"])
    def test_em(self, version):
        base = EmRunner(k=2, dim=2, version=version, backend="scalar").run(
            EM_POINTS, iterations=2, seed=0
        )
        out = _native_each(
            lambda ex: EmRunner(
                k=2, dim=2, version=version, num_threads=2, executor=ex,
                backend="native",
            ),
            lambda r: r.run(EM_POINTS, iterations=2, seed=0),
        )
        for executor, res in out.items():
            for field in ("weights", "means", "variances"):
                np.testing.assert_allclose(
                    getattr(base, field),
                    getattr(res, field),
                    rtol=1e-12,
                    err_msg=f"{executor}:{field}",
                )

    @pytest.mark.parametrize("version", ["opt-2"])
    def test_apriori(self, version):
        base = AprioriRunner(
            num_items=10, min_support_frac=0.3, max_size=3,
            version=version, backend="scalar",
        ).run(BASKETS)
        out = _native_each(
            lambda ex: AprioriRunner(
                num_items=10, min_support_frac=0.3, max_size=3,
                version=version, num_threads=2, executor=ex, backend="native",
            ),
            lambda r: r.run(BASKETS),
        )
        for executor, res in out.items():
            assert base.frequent == res.frequent, executor

    @pytest.mark.parametrize("version", VERSIONS)
    def test_windowed(self, version):
        if version != "opt-2":
            pytest.skip("nested extras at opt 0/1: native records a fallback")
        base = WindowedRunner(
            64, 8, WIN_SCALE, 0.0, 1.0, version=version, backend="scalar"
        ).run(WIN_DATA)
        out = _native_each(
            lambda ex: WindowedRunner(
                64, 8, WIN_SCALE, 0.0, 1.0, version=version,
                num_threads=2, executor=ex, backend="native",
            ),
            lambda r: r.run(WIN_DATA),
        )
        for executor, res in out.items():
            assert np.array_equal(base.counts, res.counts), executor
            assert np.array_equal(base.sums, res.sums), executor
            assert base.counters.as_dict() == res.counters.as_dict(), executor


class TestNativeFallbackVersionsStillMatch:
    """At opt 0/1 nested extras force batch/scalar — results must still
    match, with the downgrade recorded per kernel."""

    @pytest.mark.parametrize("version", ["generated", "opt-1"])
    def test_kmeans_downgrades_and_matches(self, version):
        base = KmeansRunner(k=4, dim=3, version=version, backend="scalar").run(
            KM_POINTS, KM_INIT, iterations=2
        )
        runner = KmeansRunner(
            k=4, dim=3, version=version, num_threads=2, executor="threads",
            backend="native",
        )
        try:
            assert runner.compiled.native_kernel is None
            assert "nested" in runner.compiled.native_fallback_reason
            assert runner.compiled.effective_backend in ("batch", "scalar")
            res = runner.run(KM_POINTS, KM_INIT, iterations=2)
        finally:
            runner.close()
        assert np.array_equal(base.centroids, res.centroids)
        assert np.array_equal(base.counts, res.counts)


class TestNativeUnderFaults:
    """Recovery with JIT kernels: scratch commits only on attempt success."""

    def _run_with_faults(self, executor, backend):
        runner = HistogramRunner(
            bins=16, lo=0.0, hi=64.0, version="opt-2",
            num_threads=2, executor=executor, chunk_size=60, backend=backend,
        )
        runner.engine.fault_injector = FaultInjector(
            seed=5, fail_rate=0.5, fail_attempts=1
        )
        runner.engine.fault_policy = FaultPolicy(max_retries=2, backoff_base=0.0)
        try:
            res = runner.run(HIST_DATA)
            return res, runner.last_run_stats
        finally:
            runner.close()

    def test_histogram_recovery_matches_scalar(self):
        base = HistogramRunner(
            bins=16, lo=0.0, hi=64.0, version="opt-2", backend="scalar"
        ).run(HIST_DATA)
        for executor in EXECUTORS:
            res, _ = self._run_with_faults(executor, "native")
            assert np.array_equal(base.counts, res.counts), executor
            assert np.array_equal(base.sums, res.sums), executor
            assert base.counters.as_dict() == res.counters.as_dict(), executor

    def test_faults_actually_fired(self):
        _, stats = self._run_with_faults("threads", "native")
        assert stats.injected_faults > 0


class TestNativeUnderTechniques:
    """Every accessor's contract holds under native kernels: replicas and
    colored waves are stored into directly, the locking family commits a
    scratch object's touched groups under the covering locks."""

    @pytest.mark.parametrize(
        "technique",
        ["full_replication", "cache_sensitive_locking", "colored", "auto"],
    )
    def test_windowed_techniques(self, technique):
        base = WindowedRunner(
            64, 8, WIN_SCALE, 0.0, 1.0, version="opt-2", backend="scalar"
        ).run(WIN_DATA)
        runner = WindowedRunner(
            64, 8, WIN_SCALE, 0.0, 1.0, version="opt-2",
            num_threads=2, executor="threads", technique=technique,
            backend="native",
        )
        try:
            res = runner.run(WIN_DATA)
        finally:
            runner.close()
        assert np.array_equal(base.counts, res.counts)
        assert np.array_equal(base.sums, res.sums)
        assert base.counters.as_dict() == res.counters.as_dict()


class TestRealValuedBitIdentity:
    """One lane, any split size: bit-identical to scalar serial in one split.

    Real-valued (non-dyadic) data makes every float sum order-sensitive, so
    this fails as soon as a split boundary re-associates an accumulation —
    which reducing each split into a scratch buffer and merging it did, and
    which a profile store that observed each split's footprint that way did.
    """

    UNIFORM = np.random.default_rng(7).uniform(0.0, 64.0, size=1000)
    POINTS = np.random.default_rng(8).uniform(-40.0, 40.0, size=(600, 3))
    CONFIGS = [
        pytest.param(
            executor, chunk_size, store,
            id=f"{executor}-{chunk_size}" + ("-store" if store else ""),
        )
        for executor, chunk_size, store in (
            ("serial", None, False), ("serial", 97, False), ("serial", 1, False),
            ("threads", 97, False), ("process", 97, False),
            ("serial", 97, True), ("threads", 97, True),
        )
    ]

    @pytest.mark.parametrize("executor,chunk_size,store", CONFIGS)
    def test_histogram(self, executor, chunk_size, store, tmp_path):
        base = HistogramRunner(
            bins=16, lo=0.0, hi=64.0, version="opt-2", backend="scalar"
        ).run(self.UNIFORM)
        runner = HistogramRunner(
            bins=16, lo=0.0, hi=64.0, version="opt-2", backend="native",
            num_threads=1, executor=executor, chunk_size=chunk_size,
            profile_store=tmp_path if store else None,
        )
        try:
            assert runner.compiled.native_kernel is not None
            res = runner.run(self.UNIFORM)
        finally:
            runner.close()
        assert np.array_equal(base.counts, res.counts)
        assert np.array_equal(base.sums, res.sums)

    @pytest.mark.parametrize("executor,chunk_size,store", CONFIGS)
    def test_kmeans(self, executor, chunk_size, store, tmp_path):
        init = self.POINTS[:4].copy()
        base = KmeansRunner(k=4, dim=3, version="opt-2", backend="scalar").run(
            self.POINTS, init, iterations=2
        )
        runner = KmeansRunner(
            k=4, dim=3, version="opt-2", backend="native",
            num_threads=1, executor=executor, chunk_size=chunk_size,
            profile_store=tmp_path if store else None,
        )
        try:
            assert runner.compiled.native_kernel is not None
            res = runner.run(self.POINTS, init, iterations=2)
        finally:
            runner.close()
        assert np.array_equal(base.centroids, res.centroids)
        assert np.array_equal(base.counts, res.counts)


class TestCountsKeptInRegisters:
    """The C kernel counts in integer locals and stores them once per range.

    Exact ``OpCounters`` parity with the scalar tier where the count per
    element is data-dependent (the histogram's clamps: three different
    paths) and where it is a constant the C compiler folds (k-means' nested
    constant-trip loops), one range per call and many.
    """

    #: below ``lo``, inside, and above ``hi``: every clamp branch is taken
    CLAMPED = (np.arange(700, dtype=np.float64) * 11) % 96 - 16.0
    CONFIGS = [
        ("serial", 1, None), ("serial", 1, 37),
        ("threads", 2, None), ("threads", 2, 37),
    ]

    @pytest.mark.parametrize("executor,threads,chunk_size", CONFIGS)
    def test_histogram_clamps(self, executor, threads, chunk_size):
        assert (self.CLAMPED < 0.0).any() and (self.CLAMPED >= 64.0).any()
        base = HistogramRunner(
            bins=16, lo=0.0, hi=64.0, version="opt-2", backend="scalar"
        ).run(self.CLAMPED)
        runner = HistogramRunner(
            bins=16, lo=0.0, hi=64.0, version="opt-2", backend="native",
            num_threads=threads, executor=executor, chunk_size=chunk_size,
        )
        try:
            assert runner.compiled.native_kernel is not None
            res = runner.run(self.CLAMPED)
        finally:
            runner.close()
        assert np.array_equal(base.counts, res.counts)
        assert np.array_equal(base.sums, res.sums)
        assert base.counters.as_dict() == res.counters.as_dict()
        # the clamp that assigns costs a flop more than the one that does not
        inside = HistogramRunner(
            bins=16, lo=0.0, hi=64.0, version="opt-2", backend="scalar"
        ).run(np.clip(self.CLAMPED, 0.0, 63.0))
        assert base.counters.flops - inside.counters.flops == np.count_nonzero(
            self.CLAMPED >= 64.0
        )

    @pytest.mark.parametrize("executor,threads,chunk_size", CONFIGS)
    def test_kmeans_nested_loops(self, executor, threads, chunk_size):
        base = KmeansRunner(k=4, dim=3, version="opt-2", backend="scalar").run(
            KM_POINTS, KM_INIT, iterations=1
        )
        runner = KmeansRunner(
            k=4, dim=3, version="opt-2", backend="native",
            num_threads=threads, executor=executor, chunk_size=chunk_size,
        )
        try:
            assert runner.compiled.native_kernel is not None
            res = runner.run(KM_POINTS, KM_INIT, iterations=1)
        finally:
            runner.close()
        assert np.array_equal(base.centroids, res.centroids)
        assert np.array_equal(base.counts, res.counts)
        assert base.counters.as_dict() == res.counters.as_dict()


class TestBatchedLanes:
    """Hundreds of splits per lane, one kernel call per batch of them.

    Integer-valued data, so every lane assignment gives the same sums and
    the comparison with the scalar oracle can be exact — results, the
    per-thread ledgers' totals and the OpCounters.
    """

    KM = np.random.default_rng(9).integers(-40, 40, size=(8200, 3)).astype(np.float64)
    WIN = ((np.arange(4928, dtype=np.float64) * 13) % 64) / 64.0
    LANES = [
        ("threads", 2, "full_replication"),
        ("serial", 1, "full_replication"),
        ("serial", 3, "full_replication"),
        ("threads", 2, "colored"),
        ("serial", 3, "colored"),
    ]

    @pytest.mark.parametrize("executor,threads,technique", LANES)
    def test_kmeans_1025_splits(self, executor, threads, technique):
        init = self.KM[:4].copy()
        base = KmeansRunner(k=4, dim=3, version="opt-2", backend="scalar").run(
            self.KM, init, iterations=1
        )
        runner = KmeansRunner(
            k=4, dim=3, version="opt-2", backend="native", chunk_size=8,
            num_threads=threads, executor=executor, technique=technique,
        )
        try:
            res = runner.run(self.KM, init, iterations=1)
            stats = res.per_iteration_stats[-1]
        finally:
            runner.close()
        assert np.array_equal(base.centroids, res.centroids)
        assert np.array_equal(base.counts, res.counts)
        assert base.counters.as_dict() == res.counters.as_dict()
        assert sum(stats.splits_per_thread) == 1025
        assert sum(stats.elements_per_thread) == len(self.KM)

    @pytest.mark.parametrize("executor,threads,technique", LANES)
    def test_windowed_308_splits(self, executor, threads, technique):
        base = WindowedRunner(
            64, 77, WIN_SCALE, 0.0, 1.0, version="opt-2", backend="scalar"
        ).run(self.WIN)
        runner = WindowedRunner(
            64, 77, WIN_SCALE, 0.0, 1.0, version="opt-2", backend="native",
            chunk_size=16, num_threads=threads, executor=executor,
            technique=technique,
        )
        try:
            res = runner.run(self.WIN)
            stats = runner.last_run_stats
        finally:
            runner.close()
        if technique == "colored":
            assert stats.technique_effective.value == "colored"
        assert np.array_equal(base.counts, res.counts)
        assert np.array_equal(base.sums, res.sums)
        assert base.counters.as_dict() == res.counters.as_dict()
        assert sum(stats.splits_per_thread) == 308
        assert sum(stats.elements_per_thread) == len(self.WIN)
