"""Unit tests for the delta-execution building blocks.

Covers the pieces :mod:`repro.freeride.delta` exposes in isolation —
run/mask helpers, the copy-on-write checkpoint ring, session retraction
bookkeeping — plus the replay planner and the session-keyed shared-memory
publish that the engine composes into ``run_delta``.  (The ``reduce_ranges``
hook of each tier, with the batch tier's gather, is tested beside it in
``tests/compiler/test_reduce_ranges.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.effects import FOOTPRINT_MEMO_SIZE, EffectSummary
from repro.compiler.translate import compile_reduction
from repro.freeride.delta import (
    REPLAY_PROBE_LEAF,
    ROCheckpoint,
    blocks_reaching,
    contiguous_runs,
    mask_runs,
)
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import SharedBufferCache
from repro.freeride.spec import ReductionSpec
from repro.util.errors import FreerideError


# -- run helpers -----------------------------------------------------------------


def _runs(pair):
    starts, ends = pair
    for side in pair:
        # what a ``reduce_ranges`` hook hands to C as it is
        assert side.dtype == np.int64 and side.ndim == 1
        assert side.flags.c_contiguous
    return list(zip(starts.tolist(), ends.tolist()))


def _runs_by_loop(mask):
    """The reference: one pass over the mask in Python."""
    runs, start = [], None
    for i, bit in enumerate(list(mask) + [False]):
        if bit and start is None:
            start = i
        elif not bit and start is not None:
            runs.append((start, i))
            start = None
    return runs


def test_contiguous_runs():
    assert _runs(contiguous_runs(np.array([], dtype=np.intp))) == []
    assert _runs(contiguous_runs(np.array([4]))) == [(4, 5)]
    assert _runs(contiguous_runs(np.array([1, 2, 3, 7, 9, 10]))) == [
        (1, 4),
        (7, 8),
        (9, 11),
    ]
    assert _runs(contiguous_runs(np.arange(5, 9, dtype=np.int32))) == [(5, 9)]
    # all isolated: one run per index
    assert _runs(contiguous_runs(np.arange(0, 12, 3))) == [
        (0, 1), (3, 4), (6, 7), (9, 10)
    ]


def test_mask_runs():
    assert _runs(mask_runs(np.array([], dtype=bool))) == []
    assert _runs(mask_runs(np.array([True]))) == [(0, 1)]
    assert _runs(mask_runs(np.array([False]))) == []
    assert _runs(mask_runs(np.array([True, True, False, True]))) == [(0, 2), (3, 4)]
    assert _runs(mask_runs(np.zeros(5, dtype=bool))) == []
    assert _runs(mask_runs(np.ones(3, dtype=bool))) == [(0, 3)]


def test_runs_agree_with_the_loop_on_random_masks():
    rng = np.random.default_rng(17)
    for size in (1, 2, 7, 64, 257):
        for density in (0.1, 0.5, 0.9):
            mask = rng.random(size) < density
            expected = _runs_by_loop(mask)
            assert _runs(mask_runs(mask)) == expected
            assert _runs(contiguous_runs(np.flatnonzero(mask))) == expected


# -- checkpoint ring -------------------------------------------------------------


def _ro_sum_min() -> ReductionObject:
    ro = ReductionObject()
    ro.alloc_many([(1, "add"), (1, "min")])
    ro.accumulate(0, 0, 5.0)
    ro.accumulate(1, 0, 2.0)
    return ro


def test_checkpoint_cow_saves_and_hits():
    ro = _ro_sum_min()
    cp = ROCheckpoint(capacity=4)
    cp.begin(1, ro, n_elements=10, live_count=10)
    cp.save_groups(ro, np.array([0]))
    cp.save_groups(ro, np.array([0]))  # second save of same group is a COW hit
    assert (cp.saves, cp.hits) == (1, 1)
    ro.accumulate(0, 0, 100.0)
    cp.commit()
    assert cp.epochs() == [1]


def test_checkpoint_rollback_restores_pre_images():
    ro = _ro_sum_min()
    cp = ROCheckpoint(capacity=4)
    cp.begin(1, ro, n_elements=10, live_count=10)
    cp.save_groups(ro, np.array([0]))
    ro.accumulate(0, 0, 100.0)
    ro.update_count += 1
    restored, n, live = cp.rollback(ro)
    assert (restored, n, live) == (1, 10, 10)
    assert ro.get(0, 0) == 5.0
    assert ro.update_count == 2  # the two baseline accumulates
    # the failed epoch never entered the ring
    assert cp.epochs() == []


def test_checkpoint_double_begin_refused():
    ro = _ro_sum_min()
    cp = ROCheckpoint(capacity=2)
    cp.begin(1, ro, n_elements=1, live_count=1)
    with pytest.raises(FreerideError):
        cp.begin(2, ro, n_elements=1, live_count=1)
    with pytest.raises(FreerideError):
        ROCheckpoint(capacity=2).save_groups(ro, np.array([0]))


def test_checkpoint_ring_eviction_and_restore():
    ro = _ro_sum_min()
    cp = ROCheckpoint(capacity=2)
    for epoch in (1, 2, 3):
        cp.begin(epoch, ro, n_elements=10, live_count=10)
        cp.save_groups(ro, np.array([0]))
        ro.accumulate(0, 0, float(epoch))
        cp.commit()
    # capacity 2: epoch-1's record was evicted
    assert cp.epochs() == [2, 3]
    assert cp.restorable_epochs(current_epoch=3) == [1, 2, 3]
    # value history: 5 -> 6 (e1) -> 8 (e2) -> 11 (e3)
    assert cp.restore(ro, 2, 3).get(0, 0) == 8.0
    assert cp.restore(ro, 1, 3).get(0, 0) == 6.0
    with pytest.raises(FreerideError):
        cp.restore(ro, 0, 3)  # beyond the ring
    assert cp.retained_groups == 2


# -- session bookkeeping ---------------------------------------------------------


def _histogram_session(engine, n=60, seed=0):
    source = """
class histogramReduction : ReduceScanOp {
  var bins: int;
  var lo: real;
  var width: real;

  def accumulate(x: real) {
    var b: int = toInt((x - lo) / width);
    if (b < 0) { b = 0; }
    if (b > bins - 1) { b = bins - 1; }
    roAdd(b, 0, 1.0);
  }
}
"""
    rng = np.random.default_rng(seed)
    data = np.round(rng.normal(0, 1, n) * 8) / 8
    comp = compile_reduction(
        source, {"bins": 4, "lo": -2.0, "width": 1.0}, 2, backend="batch"
    )
    bound = comp.bind(data.copy(), {})
    _, sess = engine.run_baseline(bound=bound, ro_layout=[(1, "add")] * 4)
    return data, sess


def test_normalize_retract_validation():
    with FreerideEngine(executor="serial") as eng:
        _, sess = _histogram_session(eng)
        assert sess.normalize_retract(None).size == 0
        out = sess.normalize_retract([5, 3, 3])
        assert list(out) == [3, 5]  # sorted, deduped
        with pytest.raises(FreerideError):
            sess.normalize_retract([-1])
        with pytest.raises(FreerideError):
            sess.normalize_retract([60])
        eng.run_delta(sess, retract=[7])
        with pytest.raises(FreerideError):
            sess.normalize_retract([7])  # already tombstoned


def test_normalize_retract_accepted_forms():
    with FreerideEngine(executor="serial") as eng:
        _, sess = _histogram_session(eng)
        for form in (
            [9, 2, 40],
            (9, 2, 40, 2),
            np.array([40, 9, 2, 9]),
            range(40, 1, -19),  # any sequence of ints
        ):
            out = sess.normalize_retract(form)
            assert out.dtype == np.int64 and out.ndim == 1
            assert np.all(np.diff(out) > 0)
        assert list(sess.normalize_retract([9, 2, 40, 2])) == [2, 9, 40]
        for dtype in (np.int8, np.uint8, np.int16, np.uint32, np.int64, np.uint64):
            out = sess.normalize_retract(np.array([9, 2, 40], dtype=dtype))
            assert out.dtype == np.int64 and list(out) == [2, 9, 40]
        for empty in ([], (), np.array([], dtype=np.int64), np.array([])):
            out = sess.normalize_retract(empty)
            assert out.dtype == np.int64 and out.shape == (0,)
        # already strictly increasing input is taken as it is, not re-sorted
        sorted_idx = np.array([2, 9, 40], dtype=np.int64)
        assert sess.normalize_retract(sorted_idx) is sorted_idx


@pytest.mark.parametrize(
    "bad, names",
    [
        # a length-n mask would tombstone positions 0 and 1
        (lambda n: np.eye(1, n, 10, dtype=bool)[0], ("bool", "(60,)")),
        ([True, False], ("bool",)),
        ([5.9], ("float64",)),  # would retract element 5
        (np.array([3.0, 4.0], dtype=np.float32), ("float32",)),
        (np.array([[1, 2], [3, 4]]), ("int64", "(2, 2)")),  # would flatten
        (7, ("()",)),
        (["3"], ("<U1",)),
    ],
)
def test_normalize_retract_refuses_what_it_cannot_mean(bad, names):
    with FreerideEngine(executor="serial") as eng:
        _, sess = _histogram_session(eng)
        retract = bad(sess.n_elements) if callable(bad) else bad
        live, updates = sess.live.tobytes(), sess.ro.update_count
        with pytest.raises(FreerideError) as err:
            eng.run_delta(sess, retract=retract)
        for name in names:
            assert name in str(err.value)
        # refused before any state changed
        assert sess.live.tobytes() == live and sess.live_count == 60
        assert (sess.epoch, sess.ro.update_count) == (0, updates)


def test_live_runs_and_ro_at():
    with FreerideEngine(executor="serial") as eng:
        data, sess = _histogram_session(eng)
        baseline = sess.ro.snapshot()
        eng.run_delta(sess, retract=[10, 11, 12])
        assert _runs(sess.live_runs()) == [(0, 10), (13, 60)]
        # inside blocks: cut at their boundaries, nothing outside them read
        assert _runs(sess.live_runs([(5, 12), (12, 20), (50, 60)])) == [
            (5, 10), (13, 20), (50, 60)
        ]
        assert _runs(sess.live_runs([])) == []
        assert np.array_equal(sess.ro_at(0).snapshot(), baseline)
        assert np.array_equal(sess.ro_at(1).snapshot(), sess.ro.snapshot())
        with pytest.raises(FreerideError):
            sess.ro_at(5)


def test_liveness_is_updated_in_place_and_rewinds():
    with FreerideEngine(executor="serial") as eng:
        _, sess = _histogram_session(eng)
        before = sess.live.tobytes()
        idx = np.array([3, 4, 59], dtype=np.int64)
        sess.advance_liveness(75, idx)
        assert sess.live.size == 75 and sess.live_count == 72
        assert not sess.live[idx].any() and sess.live[60:].all()
        backing = sess.live.base
        assert backing is not None and backing.size >= 120  # doubled, not +15
        sess.rewind_liveness(60, 60, idx)
        assert sess.live.tobytes() == before and sess.live_count == 60
        # rewinding an epoch that never advanced changes nothing
        sess.rewind_liveness(60, 60, idx)
        assert sess.live.tobytes() == before and sess.live_count == 60
        # a second growth within capacity reuses the backing
        sess.advance_liveness(100, np.empty(0, dtype=np.int64))
        assert sess.live.base is backing and sess.live_count == 100


def test_noninvertible_groups_come_from_the_layout():
    def setup(ro):
        ro.alloc_many([(2, "add"), (1, "min"), (1, "add"), (3, "max")])

    spec = ReductionSpec(
        name="mixed", setup_reduction_object=setup, reduction=lambda args: None
    )
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(spec, np.zeros(4))
        assert sess.noninvertible == frozenset({1, 3})


# -- the replay planner ----------------------------------------------------------


WINDOW_MIN = """
class windowMin : ReduceScanOp {
  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > numWin - 1) { w = numWin - 1; }
    roMin(w, 0, x);
  }
}
"""


@pytest.fixture
def window_bounds(monkeypatch):
    """Makes fresh window-min summaries — element e touches group
    min(e // 8, 15), alignment 8 — each with the list of ranges it computes
    footprints for (its memo misses)."""
    asked: dict[int, list] = {}
    evaluate = EffectSummary._footprint

    def recording(summary, start, end, num_groups):
        asked.setdefault(id(summary), []).append((start, end))
        return evaluate(summary, start, end, num_groups)

    monkeypatch.setattr(EffectSummary, "_footprint", recording)

    def make():
        bounds = compile_reduction(WINDOW_MIN, {"win": 8, "numWin": 16}, 2).group_bounds
        return bounds, asked.setdefault(id(bounds), [])

    return make


def test_replay_blocks_stay_inside_the_groups_footprint(window_bounds):
    bounds, asked = window_bounds()
    n = 8 * 16
    assert blocks_reaching(bounds, frozenset({3}), n, 16) == [(24, 32)]
    # adjacent blocks merge; position order
    assert blocks_reaching(bounds, frozenset({9, 3, 4}), n, 16) == [
        (24, 40), (72, 80)
    ]
    # the clamped tail belongs to the last window, whatever n grows to
    assert blocks_reaching(bounds, frozenset({15}), n + 5, 16) == [(120, n + 5)]
    # O(log(n / leaf)) questions for one fresh window, none for a repeat
    del asked[:]
    blocks_reaching(bounds, frozenset({6}), n, 16)
    assert 0 < len(asked) <= 2 * 4
    del asked[:]
    blocks_reaching(bounds, frozenset({6}), n, 16)
    assert asked == []


def test_replay_blocks_ask_the_same_questions_whatever_n(window_bounds):
    first_bounds, first = window_bounds()
    blocks_reaching(first_bounds, frozenset({2}), 100, 16)
    second_bounds, second = window_bounds()
    blocks_reaching(second_bounds, frozenset({2}), 128, 16)  # same root span
    assert first == second
    assert all(s % 8 == 0 and e % 8 == 0 for s, e in first)


class _Windows:
    """Any object with ``groups_for_range`` and ``alignment`` plans replays:
    element e touches group min(e // win, last), with no alignment hint."""

    alignment = None

    def __init__(self, win, num_groups):
        self.win, self.last = win, num_groups - 1

    def groups_for_range(self, start, end, num_groups):
        lo = min(start // self.win, self.last)
        hi = min((end - 1) // self.win, self.last)
        return frozenset(range(lo, hi + 1))


def test_replay_blocks_without_alignment_or_bounds():
    # no alignment hint: leaves of REPLAY_PROBE_LEAF elements
    assert REPLAY_PROBE_LEAF == 16
    windows = _Windows(win=8, num_groups=16)
    assert blocks_reaching(windows, frozenset({3}), 128, 16) == [(16, 32)]
    # an unbounded summary answers nothing: every position may reach
    unbounded = compile_reduction(
        """
class dataMin : ReduceScanOp {
  def accumulate(x: real) {
    roMin(toInt(x), 0, x);
  }
}
""",
        {}, 2,
    ).group_bounds
    assert unbounded.groups_for_range(0, 50, 16) is None
    assert blocks_reaching(unbounded, frozenset({3}), 50, 16) == [(0, 50)]


def test_manual_spec_replays_every_survivor_of_a_min_group():
    # a hand-written spec's group_bounds hook answers no range question
    def setup(ro):
        ro.alloc(1, "min")

    def reduction(args):
        for x in args.data:
            args.ro.accumulate(0, 0, float(x))

    spec = ReductionSpec(
        name="manual-min", setup_reduction_object=setup, reduction=reduction,
        group_bounds=lambda split, num_groups: range(num_groups),
    )
    data = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    with FreerideEngine(executor="serial") as eng:
        _, sess = eng.run_baseline(spec, data)
        stats = eng.run_delta(sess, retract=[1]).stats
        assert sess.ro.get(0, 0) == 2.0
        assert stats.delta_groups_replayed == 1
        assert stats.delta_replay_elements == 4


def test_group_bounds_memoizes_range_footprints():
    comp = compile_reduction(WINDOW_MIN, {"win": 8, "numWin": 16}, 2)
    bounds = comp.group_bounds
    assert bounds.alignment == 8 and bounds.evaluations == 0
    assert bounds.groups_for_range(16, 32, 16) == frozenset({2, 3})
    assert bounds.groups_for_range(16, 32, 16) == frozenset({2, 3})
    assert bounds.evaluations == 1
    assert bounds.groups_for_range(16, 32, 3) == frozenset({2})  # other clip
    assert bounds.evaluations == 2
    # bounded: a full memo starts over instead of growing
    for start in range(FOOTPRINT_MEMO_SIZE + 5):
        bounds.groups_for_range(start, start + 1, 16)
    assert len(bounds._footprints) <= FOOTPRINT_MEMO_SIZE
    assert bounds.groups_for_range(16, 32, 16) == frozenset({2, 3})


# -- session-keyed shared-memory publish -----------------------------------------


def test_publish_session_tail_only_republish():
    cache = SharedBufferCache()
    try:
        arr = np.arange(100, dtype=np.uint8)
        name1, n1 = cache.publish_session("s", arr)
        assert n1 == 100
        full0 = cache.session_full_bytes
        # growing within 2x over-allocated capacity copies only the tail
        grown = np.arange(150, dtype=np.uint8)
        name2, n2 = cache.publish_session("s", grown)
        assert (name2, n2) == (name1, 150)
        assert cache.session_tail_bytes == 50
        assert cache.session_full_bytes == full0
        # past capacity: a doubled segment, full copy, old one replaced
        big = np.arange(500, dtype=np.uint8)
        name3, n3 = cache.publish_session("s", big)
        assert name3 != name1 and n3 == 500
        assert cache.session_full_bytes > full0
    finally:
        cache.close()
