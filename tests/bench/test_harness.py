"""Tests for the simulation harness."""

import functools

import pytest

from repro.apps import KmeansRunner
from repro.bench.figures import FIGURES, THREADS
from repro.bench.harness import (
    ENGINE_SPANS,
    SimulationConfig,
    model_only,
    model_phases,
    model_shape,
    simulate_profile,
    sweep_threads,
)
from repro.bench.profiles import (
    PhaseWork,
    WorkloadProfile,
    measure_kmeans_profiles,
    measure_pca_profiles,
)
from repro.data import initial_centroids, kmeans_points
from repro.freeride.sharedmem import SharedMemTechnique
from repro.machine.costmodel import CostModel
from repro.machine.counters import OpCounters
from repro.obs import tracing
from repro.util.errors import BenchmarkError

CM = CostModel(clock_hz=1.0e6)


def simple_profile(linearize=True, extras=0, ro_elements=10):
    per_elem = OpCounters(flops=100, linear_reads=50, ro_updates=5, elements_processed=1)
    return WorkloadProfile(
        app="test",
        version="opt-2",
        elem_bytes=32,
        linearize_data=linearize,
        extras_bytes_per_iteration=extras,
        phases=[PhaseWork("local reduction", per_elem, ro_elements)],
    )


def cfg(**kw):
    kw.setdefault("cost_model", CM)
    return SimulationConfig(**kw)


class TestSimulateProfile:
    def test_phase_structure(self):
        report = simulate_profile(simple_profile(extras=64), 1000, 2, 4, cfg())
        names = [p.name for p in report.phases]
        assert names == [
            "linearization",  # dataset, once
            "linearization",  # extras, iteration 1
            "local reduction",
            "combination",
            "linearization",  # extras, iteration 2
            "local reduction",
            "combination",
        ]

    def test_manual_has_no_linearization(self):
        report = simulate_profile(simple_profile(linearize=False), 1000, 1, 4, cfg())
        assert report.phase_seconds("linearization") == 0.0

    def test_compute_scales_with_elements(self):
        small = simulate_profile(simple_profile(False), 1000, 1, 1, cfg())
        big = simulate_profile(simple_profile(False), 4000, 1, 1, cfg())
        assert big.phase_seconds("local reduction") == pytest.approx(
            4 * small.phase_seconds("local reduction")
        )

    def test_amdahl_linearization_limits_speedup(self):
        sweep = sweep_threads(simple_profile(True), 100_000, 1, (1, 8), cfg())
        manual = sweep_threads(simple_profile(False), 100_000, 1, (1, 8), cfg())
        assert manual.speedup(8) > sweep.speedup(8)

    def test_parallel_linearization_restores_scaling(self):
        seq = sweep_threads(simple_profile(True), 100_000, 1, (8,), cfg())
        par = sweep_threads(
            simple_profile(True), 100_000, 1, (8,),
            cfg(linearization_mode="parallel"),
        )
        assert par.seconds[8] < seq.seconds[8]

    def test_bad_linearization_mode(self):
        with pytest.raises(BenchmarkError):
            simulate_profile(
                simple_profile(), 10, 1, 1, cfg(linearization_mode="quantum")
            )

    def test_iterations_multiply_compute(self):
        one = simulate_profile(simple_profile(False), 1000, 1, 2, cfg())
        ten = simulate_profile(simple_profile(False), 1000, 10, 2, cfg())
        assert ten.total_seconds == pytest.approx(10 * one.total_seconds)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            simulate_profile(simple_profile(), 0, 1, 1, cfg())
        with pytest.raises(ValueError):
            simulate_profile(simple_profile(), 10, 0, 1, cfg())


class TestChunking:
    def test_fixed_chunk_count_quantization(self):
        """12 chunks on 8 threads: makespan = 2 chunk times (the PCA
        load-imbalance story)."""
        report8 = simulate_profile(
            simple_profile(False), 12_000, 1, 8, cfg(num_chunks=12)
        )
        report4 = simulate_profile(
            simple_profile(False), 12_000, 1, 4, cfg(num_chunks=12)
        )
        # 4 threads: 3 waves; 8 threads: 2 waves -> only 1.5x gain
        assert report4.phase_seconds("local reduction") == pytest.approx(
            1.5 * report8.phase_seconds("local reduction")
        )

    def test_many_chunks_balance_well(self):
        report = simulate_profile(
            simple_profile(False), 64_000, 1, 8, cfg(num_chunks=64)
        )
        assert report.phases[0].utilization > 0.99


class TestTechniques:
    def test_locking_adds_cost(self):
        repl = simulate_profile(simple_profile(False), 10_000, 1, 4, cfg())
        lock = simulate_profile(
            simple_profile(False), 10_000, 1, 4,
            cfg(technique=SharedMemTechnique.CACHE_SENSITIVE_LOCKING),
        )
        assert lock.total_seconds > repl.total_seconds

    def test_only_a_locking_run_pays_for_locks(self):
        """A profile without bounds runs colored as full replication, as the
        engine falls back; neither prices a lock."""
        local = {
            t: simulate_profile(
                simple_profile(False), 10_000, 1, 1, cfg(technique=t)
            ).phase_seconds("local reduction")
            for t in SharedMemTechnique
        }
        locking = local.pop(SharedMemTechnique.CACHE_SENSITIVE_LOCKING)
        assert set(local.values()) == {local[SharedMemTechnique.FULL_REPLICATION]}
        assert locking > local[SharedMemTechnique.FULL_REPLICATION]

    def test_locking_skips_replication_merge(self):
        lock = simulate_profile(
            simple_profile(False, ro_elements=1000), 1000, 1, 8,
            cfg(technique=SharedMemTechnique.CACHE_SENSITIVE_LOCKING),
        )
        assert lock.phase_seconds("combination") == 0.0

    def test_contention_grows_with_threads_on_small_object(self):
        def lock_time(p):
            r = simulate_profile(
                simple_profile(False, ro_elements=2), 8_000, 1, p,
                cfg(technique=SharedMemTechnique.CACHE_SENSITIVE_LOCKING),
            )
            # total lock work across threads (not wall-clock)
            return r.phase_seconds("local reduction") * p

        assert lock_time(8) > lock_time(1)

    def test_a_500_element_object_is_priced_at_the_engines_63_locks(self, monkeypatch):
        import repro.bench.harness as harness
        from repro.freeride.reduction_object import ReductionObject
        from repro.freeride.sharedmem import SharedMemManager

        locking = SharedMemTechnique.CACHE_SENSITIVE_LOCKING
        priced = []
        factor = harness.lock_contention_factor
        monkeypatch.setattr(
            harness, "lock_contention_factor",
            lambda threads, locks: priced.append(locks) or factor(threads, locks),
        )
        model_phases(simple_profile(False, ro_elements=500), 1000, 1, 4, cfg(technique=locking))
        lanes = SharedMemManager(locking).setup(ReductionObject.from_layout([(500, "add")]), 2)
        assert priced == [63] == [lanes[0].stats.num_locks]


class TestCombination:
    def test_replication_merge_grows_with_threads(self):
        profile = simple_profile(False, ro_elements=500_000)
        t2 = simulate_profile(profile, 1000, 1, 2, cfg())
        t8 = simulate_profile(profile, 1000, 1, 8, cfg())
        assert t8.phase_seconds("combination") > t2.phase_seconds("combination")


class TestLinearizationModes:
    def test_overlap_mode_faster_than_sequential(self):
        seq = simulate_profile(simple_profile(True), 100_000, 1, 8, cfg())
        ovl = simulate_profile(
            simple_profile(True), 100_000, 1, 8,
            cfg(linearization_mode="overlap"),
        )
        assert ovl.total_seconds < seq.total_seconds
        # the overlapped run has no standalone linearization phase
        assert ovl.phase_seconds("linearization") == 0.0


@functools.cache
def _profiles(app, shape, versions):
    """A figure's measured profiles; Figs 9 and 11 share k-means's k = 100."""
    if app == "kmeans":
        return measure_kmeans_profiles(*shape, versions=versions)
    return measure_pca_profiles(*shape, versions=versions)


class TestEngineSpans:
    def test_each_figure_phase_prices_spans_a_traced_run_emits(self):
        """Every phase Figs 9-13 price is one the engine runs, named by
        ``ENGINE_SPANS``, or says why it is the model's alone; and every
        span that map names appears in a traced opt-2 k-means run."""
        model_only_at = {}
        for fig_id, spec in FIGURES.items():
            cfg_ = spec.config
            shape = (cfg_.k, cfg_.dim) if spec.app == "kmeans" else (cfg_.rows,)
            profiles = _profiles(spec.app, shape, spec.versions)
            for version in spec.versions:
                for p in THREADS:
                    for phase in model_phases(
                        profiles[version], spec.n_elements, spec.iterations,
                        p, spec.sim,
                    ):
                        assert phase.name in ENGINE_SPANS, (fig_id, phase)
                        if model_only(phase):
                            model_only_at.setdefault(fig_id, set()).add(
                                type(phase).__name__
                            )
        # PCA's 1,000,000-cell object is priced as a tree merge
        assert model_only_at == {
            "fig12": {"CombinePhase"}, "fig13": {"CombinePhase"},
        }
        # so are Ablation B's parallel and pipelined linearization
        for mode in ("parallel", "overlap"):
            phases = model_phases(
                simple_profile(True), 1000, 1, 2, cfg(linearization_mode=mode)
            )
            assert any(model_only(phase) for phase in phases), mode

        points = kmeans_points(400, 3, num_blobs=4, seed=1)
        with tracing() as tracer:
            KmeansRunner(4, 3, version="opt-2", num_threads=2).run(
                points, initial_centroids(points, 4, seed=2), 2
            )
        spans = {s.name for s in tracer.spans()}
        for names in ENGINE_SPANS.values():
            assert set(names) <= spans, (names, spans)


class TestTheModelPricesTheEnginesShape:
    def test_every_cell_of_ablation_a(self):
        """Each technique x thread count Ablation A prices is run by the
        engine on opt-2 k-means (k = 100, dim = 4) over the model's own
        layout, ``default_layout(n, 4W)``, which a chunk size of n / 4W
        cuts when 32 divides n: the run's waves, copies, lock stripe and
        bytes are the ones the model priced.  Every split touches every
        centroid, so a colored run is one split per wave."""
        k, dim, n = 100, 4, 256
        pw = _profiles("kmeans", (k, dim), ("opt-2",))["opt-2"].phases[0]
        points = kmeans_points(n, dim, seed=3)
        cents = initial_centroids(points, k, seed=4)
        for tech in SharedMemTechnique:
            for w in THREADS:
                shape = model_shape(pw, n, w, SimulationConfig(technique=tech))
                with KmeansRunner(
                    k, dim, technique=tech.value, num_threads=w,
                    executor="threads", chunk_size=n // (4 * w), backend="batch",
                ) as runner:
                    runner.run(points, cents, 1)
                    stats = runner.last_run_stats
                sm = stats.sharedmem
                assert stats.technique_effective is tech and sum(stats.splits_per_thread) == 4 * w
                assert (
                    sm.wave_widths, sm.private_copies, sm.num_locks, sm.ro_memory_bytes
                ) == (
                    shape.wave_widths, shape.private_copies, shape.num_locks,
                    shape.ro_memory_bytes,
                ), (tech, w)
                if tech is SharedMemTechnique.COLORED:
                    assert shape.wave_widths == (1,) * 4 * w
