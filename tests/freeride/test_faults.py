"""Fault-tolerance tests: policy/injector units, retry correctness, stats."""

import numpy as np
import pytest

from repro.freeride.faults import (
    FAIL_FAST,
    SKIP_AND_REPORT,
    FaultInjector,
    FaultPolicy,
    InjectedFault,
    SplitTimeout,
)
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.util.errors import FaultToleranceError

#: every technique a run can request, the planner's ``auto`` included
ALL_TECHNIQUES = ["auto", *SharedMemTechnique]


def sum_spec():
    """Sum every element into (0,0); count into (0,1)."""

    def setup(ro: ReductionObject) -> None:
        ro.alloc(2, "add")

    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            args.ro.accumulate(0, 0, float(x))
            args.ro.accumulate(0, 1, 1.0)

    return ReductionSpec(name="sum", setup_reduction_object=setup, reduction=reduction)


class TestFaultPolicy:
    def test_defaults(self):
        p = FaultPolicy()
        assert p.max_attempts == 3
        assert p.mode == FAIL_FAST

    def test_backoff_schedule(self):
        p = FaultPolicy(backoff_base=0.1, backoff_factor=3.0)
        assert p.backoff_seconds(1) == pytest.approx(0.1)
        assert p.backoff_seconds(2) == pytest.approx(0.3)
        assert p.backoff_seconds(3) == pytest.approx(0.9)

    def test_zero_base_never_sleeps(self):
        assert FaultPolicy().backoff_seconds(5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(mode="explode"),
            dict(backoff_base=-0.5),
            dict(backoff_factor=0.5),
            dict(split_timeout=0),
            dict(straggler_timeout=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises((FaultToleranceError, ValueError)):
            FaultPolicy(**kwargs)


class TestFaultInjector:
    def test_deterministic_selection(self):
        a = FaultInjector(fail_rate=0.2, seed=42)
        b = FaultInjector(fail_rate=0.2, seed=42)
        assert a.selected_failures(200) == b.selected_failures(200)
        assert a.selected_failures(200)  # 0.2 over 200 splits selects some

    def test_seed_changes_selection(self):
        a = FaultInjector(fail_rate=0.2, seed=1).selected_failures(500)
        b = FaultInjector(fail_rate=0.2, seed=2).selected_failures(500)
        assert a != b

    def test_rate_extremes(self):
        assert FaultInjector(fail_rate=0.0).selected_failures(50) == []
        assert FaultInjector(fail_rate=1.0).selected_failures(50) == list(range(50))

    def test_explicit_split_ids(self):
        inj = FaultInjector(fail_split_ids={3, 7})
        assert inj.selects_for_failure(3)
        assert inj.selects_for_failure(7)
        assert not inj.selects_for_failure(5)

    def test_fail_attempts_window(self):
        inj = FaultInjector(fail_split_ids={0}, fail_attempts=2)
        with pytest.raises(InjectedFault):
            inj.inject(0, 1)
        with pytest.raises(InjectedFault):
            inj.inject(0, 2)
        inj.inject(0, 3)  # third attempt succeeds
        assert inj.faults_injected == 2

    def test_validation(self):
        with pytest.raises(FaultToleranceError):
            FaultInjector(fail_rate=1.5)
        with pytest.raises(FaultToleranceError):
            FaultInjector(delay_rate=-0.1)
        with pytest.raises(FaultToleranceError):
            FaultInjector(delay_seconds=-1)


class TestRetryCorrectness:
    """Injected fault on split k -> result identical to fault-free run."""

    DATA = np.arange(200, dtype=np.float64)

    def fault_free(self, **engine_kwargs):
        return FreerideEngine(**engine_kwargs).run(sum_spec(), self.DATA)

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_single_injected_fault_recovers(self, technique, executor):
        base = self.fault_free(
            num_threads=2, technique=technique, executor=executor, chunk_size=10
        )
        engine = FreerideEngine(
            num_threads=2,
            technique=technique,
            executor=executor,
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={3}),
        )
        result = engine.run(sum_spec(), self.DATA)
        assert np.array_equal(result.ro.snapshot(), base.ro.snapshot())
        assert result.stats.total_elements == 200
        assert result.stats.retries >= 1
        assert result.stats.injected_faults >= 1
        assert result.stats.failed_splits == 0
        assert result.stats.split_attempts[3] == 2

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_five_percent_fault_rate_recovers(self, technique):
        base = self.fault_free(num_threads=4, technique=technique, chunk_size=5)
        injector = FaultInjector(fail_rate=0.05, seed=11)
        assert injector.selected_failures(40), "seed must select at least one split"
        engine = FreerideEngine(
            num_threads=4,
            technique=technique,
            chunk_size=5,
            fault_policy=FaultPolicy(max_retries=3),
            fault_injector=injector,
        )
        result = engine.run(sum_spec(), self.DATA)
        assert np.array_equal(result.ro.snapshot(), base.ro.snapshot())
        assert result.stats.retries > 0
        assert result.stats.failed_splits == 0

    def test_no_double_count_on_retry(self):
        """A split that failed mid-processing must not leave partial sums."""

        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            for x in args.data:
                args.ro.accumulate(0, 0, float(x))
            # Fail AFTER accumulating, on the first attempt only: without
            # scratch isolation the retry would double-count the split.
            if args.split.split_id == 2 and args.attempt == 1:
                raise RuntimeError("crash after partial accumulation")

        spec = ReductionSpec(
            name="crashy", setup_reduction_object=setup, reduction=reduction
        )
        engine = FreerideEngine(
            num_threads=2, chunk_size=10, fault_policy=FaultPolicy(max_retries=1)
        )
        result = engine.run(spec, self.DATA)
        assert result.ro.get(0, 0) == float(np.sum(self.DATA))
        assert result.stats.retries == 1

    def test_threads_requeue_recovers(self):
        engine = FreerideEngine(
            num_threads=4,
            executor="threads",
            chunk_size=4,
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={1, 5, 9}),
        )
        result = engine.run(sum_spec(), self.DATA)
        assert result.ro.get(0, 0) == float(np.sum(self.DATA))
        assert result.ro.get(0, 1) == 200.0
        assert result.stats.requeues >= 3
        assert result.stats.failed_splits == 0


class TestDegradationModes:
    DATA = np.arange(100, dtype=np.float64)

    def permanent_injector(self, sids={2}):
        return FaultInjector(fail_split_ids=set(sids), fail_attempts=10_000)

    def test_fail_fast_raises(self):
        engine = FreerideEngine(
            num_threads=2,
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=1, mode=FAIL_FAST),
            fault_injector=self.permanent_injector(),
        )
        with pytest.raises(InjectedFault):
            engine.run(sum_spec(), self.DATA)

    def test_fail_fast_threads_raises(self):
        engine = FreerideEngine(
            num_threads=4,
            executor="threads",
            chunk_size=5,
            fault_policy=FaultPolicy(max_retries=1, mode=FAIL_FAST),
            fault_injector=self.permanent_injector(),
        )
        with pytest.raises(InjectedFault):
            engine.run(sum_spec(), self.DATA)

    def test_fail_fast_reraises_application_error(self):
        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            raise RuntimeError("kernel exploded")

        spec = ReductionSpec(
            name="boom", setup_reduction_object=setup, reduction=reduction
        )
        engine = FreerideEngine(fault_policy=FaultPolicy(max_retries=2))
        with pytest.raises(RuntimeError, match="kernel exploded"):
            engine.run(spec, [1, 2, 3])

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_skip_and_report_completes(self, executor):
        engine = FreerideEngine(
            num_threads=2,
            executor=executor,
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=1, mode=SKIP_AND_REPORT),
            fault_injector=self.permanent_injector({2}),
        )
        result = engine.run(sum_spec(), self.DATA)
        st = result.stats
        assert st.failed_splits == 1
        assert [f.split_id for f in st.failures] == [2]
        assert st.failures[0].elements_lost == 10
        # split 2 covers elements 20..29: the run reports everything else
        expected = float(np.sum(self.DATA)) - float(np.sum(self.DATA[20:30]))
        assert result.ro.get(0, 0) == expected
        assert st.total_elements == 90

    def test_skip_and_report_attempt_counts(self):
        engine = FreerideEngine(
            num_threads=1,
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=2, mode=SKIP_AND_REPORT),
            fault_injector=self.permanent_injector({0}),
        )
        result = engine.run(sum_spec(), self.DATA)
        assert result.stats.split_attempts[0] == 3  # 1 try + 2 retries
        assert all(
            a == 1 for sid, a in result.stats.split_attempts.items() if sid != 0
        )


class TestTimeouts:
    def test_slow_split_times_out_and_fails_fast(self):
        engine = FreerideEngine(
            num_threads=1,
            chunk_size=5,
            fault_policy=FaultPolicy(
                max_retries=0, split_timeout=0.01, mode=FAIL_FAST
            ),
            fault_injector=FaultInjector(
                fail_rate=0.0, delay_rate=1.0, delay_seconds=0.05, seed=0
            ),
        )
        with pytest.raises(SplitTimeout):
            engine.run(sum_spec(), np.arange(10, dtype=np.float64))

    def test_timeout_retry_discards_slow_attempt(self):
        """The timed-out attempt's scratch is dropped; the retry commits once."""
        delays = {"left": 2}

        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            import time as _time

            if args.split.split_id == 0 and delays["left"] > 0:
                delays["left"] -= 1
                _time.sleep(0.03)
            for x in args.data:
                args.ro.accumulate(0, 0, float(x))

        spec = ReductionSpec(
            name="slow", setup_reduction_object=setup, reduction=reduction
        )
        data = np.arange(20, dtype=np.float64)
        engine = FreerideEngine(
            num_threads=1,
            chunk_size=10,
            fault_policy=FaultPolicy(max_retries=3, split_timeout=0.01),
        )
        result = engine.run(spec, data)
        assert result.ro.get(0, 0) == float(np.sum(data))
        assert result.stats.timeouts == 2
        assert result.stats.retries == 2


class TestStragglerRedispatch:
    def test_straggler_duplicated_and_committed_once(self):
        """One worker sleeps on its split; an idle peer re-runs it."""
        import threading

        slept = threading.Event()

        def setup(ro):
            ro.alloc(1, "add")

        def reduction(args):
            import time as _time

            if args.split.split_id == 0 and not slept.is_set():
                slept.set()
                _time.sleep(0.2)  # the straggling first attempt
            for x in args.data:
                args.ro.accumulate(0, 0, float(x))

        spec = ReductionSpec(
            name="straggler", setup_reduction_object=setup, reduction=reduction
        )
        data = np.arange(40, dtype=np.float64)
        engine = FreerideEngine(
            num_threads=2,
            executor="threads",
            chunk_size=10,
            fault_policy=FaultPolicy(
                max_retries=2, straggler_timeout=0.02, mode=SKIP_AND_REPORT
            ),
        )
        result = engine.run(spec, data)
        # committed exactly once despite the duplicate execution
        assert result.ro.get(0, 0) == float(np.sum(data))
        assert result.stats.total_elements == 40
        assert result.stats.retries >= 1


class TestFaultConfigValidation:
    def test_custom_combination_rejected(self):
        def setup(ro):
            ro.alloc(1, "add")

        spec = ReductionSpec(
            name="custom",
            setup_reduction_object=setup,
            reduction=lambda args: None,
            combination=lambda copies: copies[0].clone_empty(),
        )
        engine = FreerideEngine(fault_policy=FaultPolicy())
        with pytest.raises(FaultToleranceError):
            engine.run(spec, [1, 2])

    def test_bad_policy_type_rejected(self):
        with pytest.raises(FaultToleranceError):
            FreerideEngine(fault_policy="retry please")

    def test_bad_injector_type_rejected(self):
        with pytest.raises(FaultToleranceError):
            FreerideEngine(fault_injector=0.05)

    def test_injector_alone_implies_default_policy(self):
        engine = FreerideEngine(
            chunk_size=10, fault_injector=FaultInjector(fail_split_ids={1})
        )
        data = np.arange(30, dtype=np.float64)
        result = engine.run(sum_spec(), data)
        assert result.ro.get(0, 0) == float(np.sum(data))
        assert result.stats.retries == 1

    def test_stats_zero_without_policy(self):
        result = FreerideEngine(num_threads=2).run(
            sum_spec(), np.arange(10, dtype=np.float64)
        )
        st = result.stats
        assert (st.retries, st.failed_splits, st.injected_faults, st.requeues) == (
            0,
            0,
            0,
            0,
        )
        assert st.split_attempts == {}
