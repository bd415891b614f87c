"""Serial vs threads equivalence across techniques and splitters.

Integer-valued float64 data keeps every accumulation exact, so the combined
reduction objects must be bitwise identical no matter how splits were
scheduled onto threads.
"""

import numpy as np
import pytest

from repro.freeride.faults import FaultInjector, FaultPolicy
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec

#: every technique a run can request, the planner's ``auto`` included
ALL_TECHNIQUES = ["auto", *SharedMemTechnique]
# (name, engine kwargs) — the two middleware splitters
SPLITTERS = [
    ("default", {}),
    ("chunked", {"chunk_size": 13}),
]

DATA = np.arange(211, dtype=np.float64)  # odd length: uneven splits


def mixed_spec():
    """Sum/count plus min/max groups — exercises every accumulate op."""

    def setup(ro: ReductionObject) -> None:
        ro.alloc(2, "add")
        ro.alloc(1, "min")
        ro.alloc(1, "max")

    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            v = float(x)
            args.ro.accumulate(0, 0, v)
            args.ro.accumulate(0, 1, 1.0)
            args.ro.accumulate(1, 0, v)
            args.ro.accumulate(2, 0, v)

    return ReductionSpec(
        name="mixed", setup_reduction_object=setup, reduction=reduction
    )


def run_snapshot(executor, technique, extra_kwargs, threads=4, **more):
    engine = FreerideEngine(
        num_threads=threads,
        technique=technique,
        executor=executor,
        **extra_kwargs,
        **more,
    )
    return engine.run(mixed_spec(), DATA).ro.snapshot()


class TestSerialThreadsEquivalence:
    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    @pytest.mark.parametrize("splitter_name,kwargs", SPLITTERS)
    def test_bitwise_identical(self, technique, splitter_name, kwargs):
        serial = run_snapshot("serial", technique, kwargs)
        threaded = run_snapshot("threads", technique, kwargs)
        assert np.array_equal(serial, threaded)

    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    @pytest.mark.parametrize("splitter_name,kwargs", SPLITTERS)
    def test_bitwise_identical_under_faults(self, technique, splitter_name, kwargs):
        ft = dict(
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={0, 2}),
        )
        baseline = run_snapshot("serial", technique, kwargs)
        serial_ft = run_snapshot("serial", technique, kwargs, **ft)
        ft2 = dict(
            fault_policy=FaultPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_split_ids={0, 2}),
        )
        threads_ft = run_snapshot("threads", technique, kwargs, **ft2)
        assert np.array_equal(baseline, serial_ft)
        assert np.array_equal(baseline, threads_ft)

    def test_thread_counts_agree(self):
        snaps = [
            run_snapshot("threads", SharedMemTechnique.FULL_REPLICATION, {}, threads=t)
            for t in (1, 2, 3, 8)
        ]
        for s in snaps[1:]:
            assert np.array_equal(snaps[0], s)
