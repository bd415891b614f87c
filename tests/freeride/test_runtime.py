"""Unit and integration tests for the FreerideEngine."""

import numpy as np
import pytest

from repro.freeride.combination import combine
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import ELEMS_PER_CACHE_LINE, SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.freeride.splitter import default_splitter
from repro.util.errors import FreerideError


def sum_spec():
    """Sum every element into group 0, elem 0; count into elem 1."""

    def setup(ro: ReductionObject) -> None:
        ro.alloc(2, "add")

    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            args.ro.accumulate(0, 0, float(x))
            args.ro.accumulate(0, 1, 1.0)

    def finalize(ro: ReductionObject):
        return ro.get(0, 0), ro.get(0, 1)

    return ReductionSpec(
        name="sum", setup_reduction_object=setup, reduction=reduction, finalize=finalize
    )


class TestBasicRun:
    def test_single_thread_sum(self):
        result = FreerideEngine(num_threads=1).run(sum_spec(), list(range(10)))
        assert result.value == (45.0, 10.0)

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    @pytest.mark.parametrize("technique", ["auto", *SharedMemTechnique])
    def test_threads_and_techniques_agree(self, threads, technique):
        data = np.arange(101, dtype=np.float64)
        result = FreerideEngine(num_threads=threads, technique=technique).run(
            sum_spec(), data
        )
        assert result.value == (float(np.sum(data)), 101.0)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_real_thread_executor(self, threads):
        data = np.arange(1000, dtype=np.float64)
        result = FreerideEngine(
            num_threads=threads, executor="threads", chunk_size=37
        ).run(sum_spec(), data)
        assert result.value == (float(np.sum(data)), 1000.0)

    def test_chunked_serial(self):
        result = FreerideEngine(num_threads=3, chunk_size=4).run(
            sum_spec(), list(range(10))
        )
        assert result.value == (45.0, 10.0)

    def test_empty_data(self):
        result = FreerideEngine(num_threads=4).run(sum_spec(), [])
        assert result.value == (0.0, 0.0)

    def test_no_finalize_returns_ro(self):
        spec = sum_spec()
        spec.finalize = None
        result = FreerideEngine().run(spec, [1, 2])
        assert isinstance(result.value, ReductionObject)
        assert result.value.get(0, 0) == 3.0


class TestStats:
    def test_elements_per_thread_partition(self):
        result = FreerideEngine(num_threads=4).run(sum_spec(), list(range(10)))
        st = result.stats
        assert sum(st.elements_per_thread) == 10
        assert st.total_elements == 10
        assert len(st.elements_per_thread) == 4

    def test_default_splitter_one_split_per_thread(self):
        result = FreerideEngine(num_threads=4).run(sum_spec(), list(range(100)))
        assert result.stats.splits_per_thread == [1, 1, 1, 1]

    def test_chunked_splits_counted(self):
        result = FreerideEngine(num_threads=2, chunk_size=10).run(
            sum_spec(), list(range(100))
        )
        assert sum(result.stats.splits_per_thread) == 10

    def test_ro_updates_counted(self):
        result = FreerideEngine(num_threads=2).run(sum_spec(), list(range(10)))
        # 2 accumulates per element, plus merge bookkeeping counts updates
        assert result.stats.ro_updates >= 20

    def test_phase_seconds_recorded(self):
        result = FreerideEngine().run(sum_spec(), [1])
        assert "local" in result.stats.phase_seconds
        assert "finalize" in result.stats.phase_seconds

    def test_locking_stats_present(self):
        result = FreerideEngine(
            num_threads=2, technique="cache_sensitive_locking"
        ).run(sum_spec(), list(range(10)))
        assert result.stats.sharedmem.lock_acquisitions == 20


class TestMultiNode:
    """The engine runs one node; a cluster's global combination is
    :func:`combine` over the nodes' committed reduction objects."""

    @staticmethod
    def node_results(spec_of, data, nodes, **engine_kw):
        with FreerideEngine(**engine_kw) as engine:
            return [
                engine.run(spec_of(), block.data).ro
                for block in default_splitter(data, nodes)
            ]

    @pytest.mark.parametrize("nodes", [2, 3, 4])
    def test_cluster_sum_matches(self, nodes):
        data = np.arange(200, dtype=np.float64)
        ros = self.node_results(sum_spec, data, nodes, num_threads=2)
        ro, stats = combine(ros)
        assert (ro.get(0, 0), ro.get(0, 1)) == (float(np.sum(data)), 200.0)
        assert stats.merges == nodes - 1

    def test_large_ro_combines_all_to_one(self):
        """One combine for every size: four copies of a 64 KiB-plus object
        fold all-to-one into the cells NumPy's sum gives."""
        cells = 10_000

        def setup(ro):
            ro.alloc(cells, "add")

        def reduction(args):
            for x in args.data:
                args.ro.accumulate_group(0, np.full(cells, float(x)) + np.arange(cells))

        def spec():
            return ReductionSpec(
                name="big", setup_reduction_object=setup, reduction=reduction
            )

        data = np.arange(40, dtype=np.float64)
        ros = self.node_results(spec, data, 4, num_threads=1)
        assert ros[0].nbytes >= 64 * 1024
        ro, stats = combine(ros)
        assert stats.strategy == "all_to_one" and stats.merges == 3
        want = np.sum([r.get_group(0) for r in ros], axis=0)
        assert np.array_equal(ro.get_group(0), want)
        assert np.array_equal(want, data.sum() + len(data) * np.arange(cells))

    def test_num_nodes_is_not_an_engine_option(self):
        with pytest.raises(TypeError, match="num_nodes"):
            FreerideEngine(num_threads=2, num_nodes=2)


class TestCustomCombination:
    def test_custom_combination_invoked(self):
        calls = []

        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            for x in args.data:
                args.ro.accumulate(0, 0, float(x))

        def combination(copies):
            calls.append(len(copies))
            merged = copies[0].clone_empty()
            for c in copies:
                merged.merge_from(c)
            return merged

        spec = ReductionSpec(
            name="custom",
            setup_reduction_object=setup,
            reduction=reduction,
            combination=combination,
        )
        result = FreerideEngine(num_threads=3).run(spec, [1, 2, 3, 4])
        assert calls == [3]
        assert result.ro.get(0, 0) == 10.0

    @pytest.mark.parametrize(
        "technique", [t.value for t in SharedMemTechnique] + ["auto"]
    )
    def test_a_combination_is_called_or_the_run_refused(self, technique):
        """A custom ``combination_t`` gets the per-thread copies only full
        replication keeps; colored (no group bounds here) and ``auto`` fall
        back to it.  A locking technique keeps no copies, so its run is
        refused before any split runs instead of skipping the combination."""
        calls, splits = [], []

        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            splits.append(args.split.split_id)
            for x in args.data:
                args.ro.accumulate(0, 0, float(x))

        def doubled(copies):
            calls.append(len(copies))
            merged = copies[0].clone_empty()
            for c in copies + copies:
                merged.merge_from(c)
            return merged

        spec = ReductionSpec(
            name="doubled",
            setup_reduction_object=setup,
            reduction=reduction,
            combination=doubled,
        )
        with FreerideEngine(num_threads=2, technique=technique) as engine:
            if "locking" in technique:
                with pytest.raises(FreerideError, match="combination_t"):
                    engine.run(spec, list(range(10)))
                assert splits == [] and calls == []
                return
            result = engine.run(spec, list(range(10)))
        assert result.ro.get(0, 0) == 90.0 and calls == [2]
        assert result.stats.technique_effective is SharedMemTechnique.FULL_REPLICATION

    def test_custom_combination_bad_return(self):
        def setup(ro):
            ro.alloc(1, "add")

        spec = ReductionSpec(
            name="bad",
            setup_reduction_object=setup,
            reduction=lambda args: None,
            combination=lambda copies: 42,
        )
        with pytest.raises(FreerideError):
            FreerideEngine(num_threads=2).run(spec, [1, 2])


class TestValidation:
    def test_bad_executor(self):
        with pytest.raises(ValueError):
            FreerideEngine(executor="mpi")

    def test_bad_threads(self):
        with pytest.raises(ValueError):
            FreerideEngine(num_threads=0)

    def test_spec_requires_groups(self):
        spec = ReductionSpec(
            name="empty",
            setup_reduction_object=lambda ro: None,
            reduction=lambda args: None,
        )
        with pytest.raises(FreerideError):
            FreerideEngine().run(spec, [1])

    def test_spec_rejects_non_callables(self):
        with pytest.raises(FreerideError):
            ReductionSpec(name="x", setup_reduction_object=1, reduction=lambda a: None)
        with pytest.raises(FreerideError):
            ReductionSpec(name="x", setup_reduction_object=lambda ro: None, reduction=2)


class TestExtras:
    def test_extras_visible_to_reduction(self):
        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            scale = args.extras["scale"]
            for x in args.data:
                args.ro.accumulate(0, 0, float(x) * scale)

        spec = ReductionSpec(
            name="scaled",
            setup_reduction_object=setup,
            reduction=reduction,
            extras={"scale": 10.0},
        )
        result = FreerideEngine(num_threads=2).run(spec, [1, 2, 3])
        assert result.ro.get(0, 0) == 60.0


class TestCustomSplitter:
    def test_custom_splitter_used(self):
        from repro.freeride.splitter import Split

        calls = []

        def my_splitter(data, req_units):
            calls.append(req_units)
            mid = len(data) // 2
            return [
                Split(0, 0, mid, data[:mid]),
                Split(1, mid, len(data), data[mid:]),
            ]

        engine = FreerideEngine(num_threads=2, splitter=my_splitter)
        result = engine.run(sum_spec(), list(range(10)))
        assert result.value == (45.0, 10.0)
        assert calls == [2]

    def test_bad_partition_rejected(self):
        from repro.freeride.splitter import Split
        from repro.util.errors import SplitterError

        def overlapping(data, req_units):
            return [
                Split(0, 0, 6, data[:6]),
                Split(1, 4, 10, data[4:]),  # overlaps the first split
            ]

        engine = FreerideEngine(splitter=overlapping)
        with pytest.raises(SplitterError):
            engine.run(sum_spec(), list(range(10)))

    def test_incomplete_partition_rejected(self):
        from repro.freeride.splitter import Split
        from repro.util.errors import SplitterError

        def dropping(data, req_units):
            return [Split(0, 0, 5, data[:5])]  # loses half the data

        with pytest.raises(SplitterError):
            FreerideEngine(splitter=dropping).run(sum_spec(), list(range(10)))

    def test_non_callable_rejected(self):
        with pytest.raises(FreerideError):
            FreerideEngine(splitter=42)

    def test_non_split_return_rejected(self):
        from repro.util.errors import SplitterError

        with pytest.raises(SplitterError):
            FreerideEngine(splitter=lambda d, r: ["nope"]).run(
                sum_spec(), list(range(4))
            )


class TestErrorPropagation:
    def failing_spec(self):
        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            raise RuntimeError("kernel exploded")

        return ReductionSpec(
            name="boom", setup_reduction_object=setup, reduction=reduction
        )

    def test_serial_executor_propagates(self):
        with pytest.raises(RuntimeError, match="kernel exploded"):
            FreerideEngine().run(self.failing_spec(), [1, 2, 3])

    def test_threads_executor_propagates(self):
        engine = FreerideEngine(num_threads=4, executor="threads", chunk_size=1)
        with pytest.raises(RuntimeError, match="kernel exploded"):
            engine.run(self.failing_spec(), list(range(16)))

    def test_partial_failure_does_not_hang(self):
        """One chunk fails mid-run; the pool must still shut down."""
        hits = []

        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            hits.append(args.split.split_id)
            if args.split.split_id == 3:
                raise ValueError("chunk 3 bad")
            args.ro.accumulate(0, 0, 1.0)

        spec = ReductionSpec(
            name="partial", setup_reduction_object=setup, reduction=reduction
        )
        engine = FreerideEngine(num_threads=2, executor="threads", chunk_size=2)
        with pytest.raises(ValueError):
            engine.run(spec, list(range(20)))
        assert 3 in hits

    def test_raising_split_stops_its_peers(self):
        """``run()`` may not return while a peer lane still runs user code."""
        import time

        done = []

        def reduction(args):
            if args.split.split_id == 0:
                raise ValueError("split 0 bad")
            time.sleep(0.002)
            done.append(args.split.split_id)

        spec = ReductionSpec(
            name="peers",
            setup_reduction_object=lambda ro: ro.alloc(1, "add"),
            reduction=reduction,
        )
        with FreerideEngine(num_threads=2, executor="threads", chunk_size=1) as engine:
            with pytest.raises(ValueError):
                engine.run(spec, list(range(200)))
            stopped_at = len(done)
            time.sleep(0.2)
            assert len(done) == stopped_at  # nothing left running behind us
            assert stopped_at < 20  # the peer stopped early, not at the end


class TestRunIterative:
    """The outer sequential loop helper (Figure 4's While())."""

    def make_mean_shift_spec(self, center):
        """Toy iterative app: move `center` toward the data mean."""

        def setup(ro):
            ro.alloc(2, "add")  # [sum, count]

        def reduction(args):
            for x in args.data:
                args.ro.accumulate(0, 0, float(x))
                args.ro.accumulate(0, 1, 1.0)

        return ReductionSpec(
            name="mean-shift", setup_reduction_object=setup, reduction=reduction
        )

    def test_converges_to_mean(self):
        data = [2.0, 4.0, 6.0, 8.0]
        engine = FreerideEngine(num_threads=2)

        def update(result, state):
            return result.ro.get(0, 0) / result.ro.get(0, 1)

        final, results = engine.run_iterative(
            self.make_mean_shift_spec, data, iterations=5, update=update, state=0.0
        )
        assert final == 5.0
        assert len(results) == 5

    def test_early_convergence_stops(self):
        data = [1.0, 3.0]
        engine = FreerideEngine()

        def update(result, state):
            return result.ro.get(0, 0) / result.ro.get(0, 1)

        final, results = engine.run_iterative(
            self.make_mean_shift_spec,
            data,
            iterations=10,
            update=update,
            state=0.0,
            converged=lambda old, new: abs(old - new) < 1e-12,
        )
        assert final == 2.0
        assert len(results) == 2  # first moves to the mean, second confirms

    def test_state_passed_to_spec_builder(self):
        seen = []

        def make_spec(state):
            seen.append(state)
            return self.make_mean_shift_spec(state)

        engine = FreerideEngine()
        engine.run_iterative(
            make_spec, [1.0], iterations=3,
            update=lambda r, s: s + 1, state=0,
        )
        assert seen == [0, 1, 2]

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            FreerideEngine().run_iterative(
                self.make_mean_shift_spec, [1.0], 0, lambda r, s: s, 0
            )


class TestStatsRegressions:
    """Lock-in for the finish/accounting bugfixes."""

    def test_locking_run_reports_locks_and_memory(self):
        # Regression: the engine's inline finish dropped num_locks and
        # ro_memory_bytes for the locking techniques (always reported 0).
        technique = SharedMemTechnique.CACHE_SENSITIVE_LOCKING
        result = FreerideEngine(num_threads=2, technique=technique).run(
            sum_spec(), np.arange(50, dtype=np.float64)
        )
        assert result.stats.technique_effective is technique
        sm = result.stats.sharedmem
        assert sm.num_locks > 0
        assert sm.ro_memory_bytes > 0
        assert sm.lock_acquisitions > 0

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    @pytest.mark.parametrize("cells", [1, 8, 9, 17])
    def test_locking_run_shares_a_lock_per_cache_line(self, cells, executor):
        """A locking run over ``cells`` cells — one line, a whole line, a
        line and a cell, two lines and a cell — shares one lock per cache
        line, takes one per scalar update and computes what a replicated
        run does."""

        def setup(ro: ReductionObject) -> None:
            ro.alloc(cells, "add")

        def reduction(args: ReductionArgs) -> None:
            for x in args.data:
                args.ro.accumulate(0, int(x) % cells, float(x))

        spec = ReductionSpec(
            name="spread", setup_reduction_object=setup, reduction=reduction
        )
        data = np.arange(200, dtype=np.float64)
        results = {}
        for technique in ("cache_sensitive_locking", "full_replication"):
            with FreerideEngine(
                num_threads=4, executor=executor, technique=technique, chunk_size=16
            ) as engine:
                results[technique] = engine.run(spec, data)
        locking = results["cache_sensitive_locking"]
        sm = locking.stats.sharedmem
        assert sm.num_locks == -(-cells // ELEMS_PER_CACHE_LINE)
        assert sm.lock_acquisitions == data.size
        assert sm.ro_memory_bytes == locking.ro.nbytes
        assert np.array_equal(
            locking.ro.snapshot(), results["full_replication"].ro.snapshot()
        )

    def test_replication_run_reports_merge_elements(self):
        result = FreerideEngine(num_threads=4).run(
            sum_spec(), np.arange(50, dtype=np.float64)
        )
        assert result.stats.local_combination.elements_merged == 4 * result.ro.size
        assert result.stats.sharedmem.ro_memory_bytes == 4 * result.ro.nbytes

    def test_thread_copies_not_mutated_by_combination(self):
        # Regression: all_to_one_combine folded copies[1:] into copies[0]
        # in place, corrupting thread 0's private copy.  The copies are
        # read around the combination itself: after it, the engine empties
        # them for its next run.
        from repro.freeride import sharedmem

        seen = []
        original_combine = sharedmem.combine

        def recording_combine(ros, *args, **kwargs):
            before = [ro.snapshot() for ro in ros]
            out = original_combine(ros, *args, **kwargs)
            seen.append((before, [ro.snapshot() for ro in ros]))
            return out

        data = np.arange(100, dtype=np.float64)
        try:
            sharedmem.combine = recording_combine
            result = FreerideEngine(num_threads=4).run(sum_spec(), data)
        finally:
            sharedmem.combine = original_combine

        [(before, after)] = seen
        assert len(before) == 4
        for copy_before, copy_after in zip(before, after):
            assert np.array_equal(copy_before, copy_after)
        per_thread = np.sum(before, axis=0)
        # if any private copy had absorbed its peers, this sum would
        # double-count and exceed the combined result
        assert np.array_equal(per_thread, result.ro.snapshot())
