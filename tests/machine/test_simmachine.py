"""Unit tests for the simulated multicore machine."""

import pytest

from repro.machine.costmodel import CostModel
from repro.machine.simmachine import (
    CombinePhase,
    ParallelPhase,
    SequentialPhase,
    SimMachine,
    lock_contention_factor,
)
from repro.util.errors import MachineError

CM = CostModel(clock_hz=1.0)  # 1 Hz: cycles == seconds, easy arithmetic


class TestParallelPhase:
    def test_single_thread_sums_chunks(self):
        m = SimMachine(CM, num_threads=1)
        report = m.run([ParallelPhase("work", (10.0, 20.0, 30.0))])
        assert report.total_seconds == 60.0

    def test_perfect_speedup_with_uniform_chunks(self):
        costs = tuple([10.0] * 64)
        t1 = SimMachine(CM, 1).run([ParallelPhase("w", costs)]).total_seconds
        t8 = SimMachine(CM, 8).run([ParallelPhase("w", costs)]).total_seconds
        assert t1 / t8 == pytest.approx(8.0)

    def test_dynamic_beats_static_on_skewed_chunks(self):
        # One huge chunk first: static round-robin stacks it with more work.
        costs = (100.0,) + tuple([1.0] * 16)
        dyn = SimMachine(CM, 4, scheduling="dynamic").run(
            [ParallelPhase("w", costs)]
        )
        stat = SimMachine(CM, 4, scheduling="static").run(
            [ParallelPhase("w", costs)]
        )
        assert dyn.total_seconds <= stat.total_seconds

    def test_makespan_bounded_by_largest_chunk(self):
        costs = (50.0, 1.0, 1.0, 1.0)
        report = SimMachine(CM, 4).run([ParallelPhase("w", costs)])
        assert report.total_seconds == 50.0  # imbalance: one thread dominates

    def test_utilization_reported(self):
        report = SimMachine(CM, 2).run([ParallelPhase("w", (10.0, 10.0))])
        assert report.phases[0].utilization == pytest.approx(1.0)
        skewed = SimMachine(CM, 2).run([ParallelPhase("w", (10.0,))])
        assert skewed.phases[0].utilization == pytest.approx(0.5)

    def test_negative_cost_rejected(self):
        with pytest.raises(MachineError):
            ParallelPhase("w", (-1.0,))

    def test_empty_chunks(self):
        report = SimMachine(CM, 4).run([ParallelPhase("w", ())])
        assert report.total_seconds == 0.0

    def test_determinism(self):
        costs = tuple(float((7 * i) % 13 + 1) for i in range(200))
        a = SimMachine(CM, 8).run([ParallelPhase("w", costs)]).total_seconds
        b = SimMachine(CM, 8).run([ParallelPhase("w", costs)]).total_seconds
        assert a == b


class TestSequentialPhase:
    def test_does_not_scale_with_threads(self):
        for p in (1, 2, 8):
            report = SimMachine(CM, p).run([SequentialPhase("linearize", 42.0)])
            assert report.total_seconds == 42.0

    def test_amdahl_shape(self):
        """Sequential + parallel phases give the Amdahl curve."""
        phases = lambda: [  # noqa: E731
            SequentialPhase("linearize", 100.0),
            ParallelPhase("reduce", tuple([10.0] * 80)),
        ]
        t1 = SimMachine(CM, 1).run(phases()).total_seconds
        t8 = SimMachine(CM, 8).run(phases()).total_seconds
        assert t1 == 900.0
        assert t8 == 200.0
        assert t1 / t8 < 8.0, "sequential phase must limit speedup"


class TestCombinePhase:
    def test_single_copy_free(self):
        phase = CombinePhase("c", num_copies=1, elements=100, cycles_per_element=1.0)
        assert SimMachine(CM, 4).run([phase]).total_seconds == 0.0

    def test_a_shared_copy_merges_nothing(self):
        """Locking and colored runs keep no private copy: zero copies."""
        phase = CombinePhase("c", num_copies=0, elements=100, cycles_per_element=1.0)
        assert SimMachine(CM, 4).run([phase]).total_seconds == 0.0

    def test_all_to_one_critical_path(self):
        phase = CombinePhase(
            "c", num_copies=5, elements=10, cycles_per_element=2.0,
            strategy="all_to_one",
        )
        assert SimMachine(CM, 8).run([phase]).total_seconds == 4 * 20.0

    def test_parallel_merge_log_rounds(self):
        phase = CombinePhase(
            "c", num_copies=8, elements=10, cycles_per_element=1.0,
            strategy="parallel_merge",
        )
        # 8 copies, 8 threads: rounds of 4, 2, 1 merges, each 1 wave of 10.
        assert SimMachine(CM, 8).run([phase]).total_seconds == 30.0

    def test_parallel_merge_thread_limited(self):
        phase = CombinePhase(
            "c", num_copies=8, elements=10, cycles_per_element=1.0,
            strategy="parallel_merge",
        )
        # 2 threads: round 1 has 4 merges -> 2 waves; round 2: 1 wave; round 3: 1.
        assert SimMachine(CM, 2).run([phase]).total_seconds == 40.0

    def test_auto_selects_by_size(self):
        small = CombinePhase("c", 4, elements=10, cycles_per_element=1.0)
        large = CombinePhase("c", 4, elements=100000, cycles_per_element=1.0)
        assert small.resolved_strategy() == "all_to_one"
        assert large.resolved_strategy() == "parallel_merge"

    def test_merge_cost_grows_with_copies(self):
        """More threads => more copies to merge => higher combine cost."""
        t2 = CombinePhase("c", 2, 1000, 1.0, strategy="parallel_merge")
        t8 = CombinePhase("c", 8, 1000, 1.0, strategy="parallel_merge")
        assert (
            SimMachine(CM, 8).run([t8]).total_seconds
            > SimMachine(CM, 8).run([t2]).total_seconds
        )

    def test_invalid(self):
        with pytest.raises(MachineError):
            CombinePhase("c", -1, 1, 1.0)
        with pytest.raises(ValueError):
            CombinePhase("c", 1, 1, 1.0, strategy="quantum")


class TestReport:
    def test_phase_seconds_by_name(self):
        report = SimMachine(CM, 1).run(
            [SequentialPhase("a", 1.0), SequentialPhase("b", 2.0), SequentialPhase("a", 3.0)]
        )
        assert report.phase_seconds("a") == 4.0
        assert report.phase_seconds("b") == 2.0
        assert report.total_seconds == 6.0

    def test_unknown_phase_type_rejected(self):
        with pytest.raises(MachineError):
            SimMachine(CM, 1).run([object()])


class TestLockContention:
    def test_factor_grows_with_threads(self):
        assert lock_contention_factor(1, 10) == 1.0
        assert lock_contention_factor(8, 10) > lock_contention_factor(2, 10)

    def test_factor_shrinks_with_locks(self):
        assert lock_contention_factor(8, 1000) < lock_contention_factor(8, 10)

    def test_invalid(self):
        with pytest.raises(MachineError):
            lock_contention_factor(2, 0)


class TestOverlapPhase:
    def test_single_thread_degenerates_to_sum(self):
        from repro.machine.simmachine import OverlapPhase

        phase = OverlapPhase("o", sequential_cycles=100.0, chunk_costs=(10.0,) * 5)
        assert SimMachine(CM, 1).run([phase]).total_seconds == 150.0

    def test_overlap_hides_sequential_work(self):
        from repro.machine.simmachine import OverlapPhase, SequentialPhase

        seq_then_par = SimMachine(CM, 4).run(
            [SequentialPhase("lin", 100.0), ParallelPhase("w", (10.0,) * 40)]
        )
        overlapped = SimMachine(CM, 4).run(
            [OverlapPhase("o", sequential_cycles=100.0, chunk_costs=(10.0,) * 40)]
        )
        assert overlapped.total_seconds < seq_then_par.total_seconds

    def test_producer_bound_when_parallel_work_small(self):
        from repro.machine.simmachine import OverlapPhase

        phase = OverlapPhase("o", sequential_cycles=1000.0, chunk_costs=(1.0,) * 4)
        # tiny consumer work: the producer's 1000 cycles bound the phase
        assert SimMachine(CM, 8).run([phase]).total_seconds == 1000.0

    def test_consumer_bound_when_parallel_work_large(self):
        from repro.machine.simmachine import OverlapPhase

        phase = OverlapPhase("o", sequential_cycles=10.0, chunk_costs=(100.0,) * 8)
        # 800 work: 10 cycles with 7 workers (70 done), 730 left on 8 -> 101.25
        assert SimMachine(CM, 8).run([phase]).total_seconds == pytest.approx(
            10.0 + (800.0 - 70.0) / 8
        )

    def test_negative_rejected(self):
        from repro.machine.simmachine import OverlapPhase

        with pytest.raises(MachineError):
            OverlapPhase("o", sequential_cycles=-1.0, chunk_costs=())
