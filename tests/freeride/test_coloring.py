"""Conflict-free split coloring: the schedule and the COLORED execution path.

Unit-level: the greedy coloring, the two group-set sources.  Engine-level:
a hand spec with a ``group_bounds`` hook that yields genuinely parallel
waves must produce bit-identical results across serial/threads executors
with zero locks and a single shared reduction object, with and without
fault-tolerant execution (restricted scratch commits).
"""

import numpy as np
import pytest

from repro.freeride.coloring import (
    SplitColoring,
    color_splits,
    resolve_group_sets,
)
from repro.freeride.faults import FaultInjector, FaultPolicy
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.freeride.splitter import chunked_layout

# -- color_splits ---------------------------------------------------------------


def test_disjoint_sets_share_one_wave():
    c = color_splits([frozenset({0}), frozenset({1}), frozenset({2})])
    assert c.waves == ((0, 1, 2),)
    assert c.num_colors == 1 and c.max_wave_width == 3


def test_identical_sets_serialize_one_split_per_wave():
    c = color_splits([frozenset({0, 1})] * 4)
    assert c.waves == ((0,), (1,), (2,), (3,))
    assert c.max_wave_width == 1


def test_partial_overlap_colors_greedily_and_deterministically():
    sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3}), frozenset({0})]
    c = color_splits(sets)
    # split 1 conflicts with 0; splits 2 and 3 are disjoint from 0's wave
    assert c.waves == ((0, 2), (1, 3))
    assert c.waves == color_splits(sets).waves  # deterministic
    # every split appears exactly once
    flat = sorted(i for wave in c.waves for i in wave)
    assert flat == list(range(len(sets)))


def test_empty_group_set_conflicts_with_nothing():
    c = color_splits([frozenset({0}), frozenset(), frozenset({0})])
    assert c.waves == ((0, 1), (2,))


def test_fingerprint_tracks_wave_layout():
    a = color_splits([frozenset({0}), frozenset({1})])
    b = color_splits([frozenset({0}), frozenset({0})])
    assert a.fingerprint() != b.fingerprint()
    assert a.as_dict()["max_wave_width"] == 2
    assert b.as_dict()["max_wave_width"] == 1


def _union_set_greedy(group_sets):
    """The reference: the greedy as first written, each split tested against
    every color's union of group sets in color order."""
    color_groups, waves = [], []
    for idx, gs in enumerate(group_sets):
        for color, used in enumerate(color_groups):
            if not (used & gs):
                used |= gs
                waves[color].append(idx)
                break
        else:
            color_groups.append(set(gs))
            waves.append([idx])
    return tuple(tuple(w) for w in waves)


def test_bitmask_greedy_is_the_union_set_greedy():
    """Seeded random footprints, the all-conflicting layout and a chained
    one: the per-group color masks pick every split's color as the union
    sets did, so waves and fingerprints are unchanged."""
    rng = np.random.default_rng(2024)
    cases = [
        [frozenset(range(8))] * 300,  # every split conflicts with every other
        [frozenset({i // 2, i // 2 + 1}) for i in range(300)],
        [],
    ]
    for _ in range(1500):
        num_groups = int(rng.integers(1, 40))
        width = int(rng.integers(0, num_groups + 1))
        cases.append([
            frozenset(rng.choice(num_groups, int(rng.integers(0, width + 1)),
                                 replace=False).tolist())
            for _ in range(int(rng.integers(0, 50)))
        ])
    for sets in cases:
        coloring = color_splits(sets, source="compiler")
        reference = _union_set_greedy(sets)
        assert coloring.waves == reference
        assert coloring.group_sets == tuple(sets)
        assert coloring.fingerprint() == SplitColoring(
            waves=reference, group_sets=tuple(sets), source="compiler"
        ).fingerprint()


# -- resolve_group_sets ---------------------------------------------------------


def _spec_with_hook(hook):
    return ReductionSpec(
        name="t", setup_reduction_object=lambda ro: None,
        reduction=lambda args: None, group_bounds=hook,
    )


def _unit_layout(n):
    """``n`` one-element splits over ``range(n)``: the hook sees split ``i``
    with id ``i``."""
    return range(n), chunked_layout(n, 1)


def test_hook_supplies_per_split_sets():
    spec = _spec_with_hook(lambda split, n: {split.split_id % 2})
    sets, source = resolve_group_sets(spec.group_bounds, *_unit_layout(4), 4)
    assert source == "spec_hook"
    assert sets == [frozenset({0}), frozenset({1})] * 2


def test_hook_returning_none_fails_resolution():
    spec = _spec_with_hook(
        lambda split, n: None if split.split_id == 1 else {0}
    )
    assert resolve_group_sets(spec.group_bounds, *_unit_layout(3), 4) == (None, None)


def test_hook_out_of_range_group_fails_resolution():
    spec = _spec_with_hook(lambda split, n: {n})  # one past the end
    assert resolve_group_sets(spec.group_bounds, *_unit_layout(2), 4) == (None, None)


def test_no_source_fails_resolution():
    spec = _spec_with_hook(None)
    assert resolve_group_sets(spec.group_bounds, *_unit_layout(2), 4) == (None, None)


# -- engine-level colored execution ---------------------------------------------

NGROUPS = 4
CHUNK = 10
DATA = np.arange(NGROUPS * CHUNK, dtype=np.float64)


def _make_spec():
    """Each chunk of 10 elements updates exactly one group (its index//10),
    so the per-split footprint hook is exact and all splits are disjoint."""

    def setup(ro: ReductionObject) -> None:
        for _ in range(NGROUPS):
            ro.alloc(2, "add")

    def reduction(args: ReductionArgs) -> None:
        chunk = np.asarray(args.data)
        g = int(chunk[0]) // CHUNK
        args.ro.accumulate(g, 0, float(len(chunk)))
        args.ro.accumulate(g, 1, float(chunk.sum()))

    return ReductionSpec(
        name="colored-hand", setup_reduction_object=setup,
        reduction=reduction,
        group_bounds=lambda split, n: {split.start // CHUNK},
    )


def _run(technique, executor, **kw):
    eng = FreerideEngine(
        num_threads=2, executor=executor, chunk_size=CHUNK,
        technique=technique, **kw,
    )
    try:
        return eng.run(_make_spec(), DATA)
    finally:
        eng.close()


@pytest.fixture(scope="module")
def baseline():
    return _run("full_replication", "serial")


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_colored_bit_identical_lock_free_single_ro(baseline, executor):
    res = _run("colored", executor)
    assert np.array_equal(res.ro._buffer, baseline.ro._buffer)
    s = res.stats
    assert s.technique_effective is SharedMemTechnique.COLORED
    assert s.sharedmem.num_locks == 0
    assert s.sharedmem.lock_acquisitions == 0
    # single shared RO, not one replica per thread
    assert s.sharedmem.ro_memory_bytes == res.ro.nbytes
    assert s.sharedmem.ro_memory_bytes < baseline.stats.sharedmem.ro_memory_bytes
    assert s.coloring is not None and s.coloring["source"] == "spec_hook"
    assert s.coloring["max_wave_width"] == NGROUPS  # all splits disjoint
    assert s.ro_updates == baseline.stats.ro_updates


def test_colored_falls_back_without_bounds_and_records_why():
    spec = _make_spec()
    spec.group_bounds = None
    eng = FreerideEngine(num_threads=2, chunk_size=CHUNK, technique="colored")
    try:
        res = eng.run(spec, DATA)
    finally:
        eng.close()
    s = res.stats
    assert s.technique_requested == "colored"
    assert s.technique_effective is SharedMemTechnique.FULL_REPLICATION
    assert s.coloring is None
    assert s.technique_decision is not None
    assert "group set" in s.technique_decision["reason"]
    assert s.technique_decision["inputs"]["colorable"] is False


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_colored_fault_tolerant_restricted_commits(baseline, executor):
    """Every split fails once, retries, and commits only its proven groups —
    the final RO must still match the direct run bit for bit."""
    res = _run(
        "colored", executor,
        fault_policy=FaultPolicy(max_retries=2),
        fault_injector=FaultInjector(
            fail_split_ids=(0, 2), fail_attempts=1, seed=7
        ),
    )
    assert np.array_equal(res.ro._buffer, baseline.ro._buffer)
    s = res.stats
    assert s.technique_effective is SharedMemTechnique.COLORED
    assert s.retries >= 2 and s.injected_faults >= 2
    assert s.sharedmem.lock_acquisitions == 0
    assert s.failed_splits == 0


def test_auto_prefers_parallel_colored_waves():
    res = _run("auto", "threads")
    s = res.stats
    assert s.technique_requested == "auto"
    assert s.technique_effective is SharedMemTechnique.COLORED
    d = s.technique_decision
    assert d is not None and d["chosen"] == "colored"
    assert d["inputs"]["max_wave_width"] == NGROUPS
    assert np.array_equal(
        res.ro._buffer, _run("full_replication", "serial").ro._buffer
    )


def test_auto_on_uncolorable_spec_picks_a_valid_technique():
    spec = _make_spec()
    spec.group_bounds = None
    eng = FreerideEngine(num_threads=2, chunk_size=CHUNK, technique="auto")
    try:
        res = eng.run(spec, DATA)
    finally:
        eng.close()
    s = res.stats
    assert s.technique_effective is SharedMemTechnique.FULL_REPLICATION
    assert s.technique_decision["inputs"]["colorable"] is False


# -- compiled footprints over a sub-range -----------------------------------------

WIN, NUM_WIN = 64, 16
WINDOW_ADD = """
class windowAdd : ReduceScanOp {
  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > numWin - 1) { w = numWin - 1; }
    roAdd(w, 0, 1.0);
  }
}
"""
#: the element values 32..287: split boundaries are not window boundaries
SUB_RANGE = range(32, 288)


@pytest.fixture(scope="module")
def window_spec():
    from repro.compiler.translate import compile_reduction

    compiled = compile_reduction(WINDOW_ADD, {"win": WIN, "numWin": NUM_WIN}, 2, backend="batch")
    spec, _ = compiled.bind(np.zeros(320)).make_spec([(1, "add")] * NUM_WIN)
    return spec


def _run_window(spec, technique, executor, policy=None):
    with FreerideEngine(
        num_threads=2, executor=executor, technique=technique, chunk_size=64,
        fault_policy=policy,
    ) as eng:
        return eng.run(spec, SUB_RANGE)


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize("policy", [None, FaultPolicy()], ids=["direct", "policy"])
@pytest.mark.parametrize("technique", ["colored", "auto"])
def test_compiled_footprints_are_asked_at_element_values(
    window_spec, technique, executor, policy
):
    """A compiled kernel runs split ``i`` at the element values
    ``data.start + position``; its footprints must be asked there too, or
    splits that share a window run in one wave and a fault-tolerant
    scratch commit drops the groups it was not told about."""
    serial = _run_window(window_spec, "full_replication", "serial")
    counts = [serial.ro.get(g, 0) for g in range(5)]
    assert counts == [32.0, 64.0, 64.0, 64.0, 32.0]
    res = _run_window(window_spec, technique, executor, policy)
    assert np.array_equal(res.ro._buffer, serial.ro._buffer)
    s = res.stats
    assert s.technique_effective is SharedMemTechnique.COLORED
    # the splits [32, 96) .. [224, 288) reach two windows each
    assert s.coloring["num_waves"] == 2 and s.coloring["max_wave_width"] == 2
