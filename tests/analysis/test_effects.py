"""The unified symbolic effect analysis over lowered reductions.

One abstract interpretation feeds three consumers (group bounds,
bounded-gather proofs, plan checking), so these tests exercise the
summary API directly: split-parametric group footprints, access-site
index intervals, RS1xx diagnostics, and — the property that keeps the
colored technique sound — that every footprint *over-approximates* the
groups a run actually touches, whatever the split layout.
"""

import numpy as np
import pytest

from repro.analysis.affine import Bounds
from repro.analysis.effects import ELEM_RANGE, analyze_effects
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.apps.windowed import WINDOWED_CHAPEL_SOURCE
from repro.chapel.parser import parse_program
from repro.compiler.lower import lower_reduction
from repro.freeride.splitter import (
    aligned_splits,
    chunked_splitter,
    default_splitter,
)

WINDOWED_CONSTS = {"win": 64, "nw": 8, "nb": 6, "lo": 0.0, "width": 0.25}
HISTOGRAM_CONSTS = {"bins": 16, "lo": 0.0, "width": 4.0}


def summarize(source: str, constants: dict):
    return analyze_effects(lower_reduction(parse_program(source), constants))


@pytest.fixture(scope="module")
def windowed():
    return summarize(WINDOWED_CHAPEL_SOURCE, WINDOWED_CONSTS)


@pytest.fixture(scope="module")
def histogram():
    return summarize(HISTOGRAM_CHAPEL_SOURCE, HISTOGRAM_CONSTS)


class TestSummary:
    def test_windowed_group_interval_tracks_constants(self, windowed):
        iv = windowed.group_interval(ELEM_RANGE)
        assert iv.contained_in(0, 7)

    def test_windowed_alignment_is_the_window(self, windowed):
        assert windowed.alignment == 64

    def test_histogram_has_no_alignment(self, histogram):
        # the bin is data-dependent, not a function of the element index
        assert histogram.alignment is None

    def test_split_parametric_footprints_are_disjoint(self, windowed):
        a = windowed.groups_for_range(0, 64, 8)
        b = windowed.groups_for_range(64, 192, 8)
        c = windowed.groups_for_range(448, 512, 8)
        assert a == frozenset({0})
        assert b == frozenset({1, 2})
        assert c == frozenset({7})

    def test_clamp_folds_overflow_into_last_group(self, windowed):
        # elements past nw*win land in window nw-1, not out of bounds
        assert windowed.groups_for_range(512, 600, 8) == frozenset({7})

    def test_empty_range_touches_nothing(self, windowed):
        assert windowed.groups_for_range(10, 10, 8) == frozenset()

    def test_histogram_footprint_is_whole_object(self, histogram):
        # data-dependent bin: every split may touch every group
        assert histogram.groups_for_range(0, 10, 16) == frozenset(range(16))

    def test_index_bounds_proves_the_scale_gather(self, windowed):
        lowered = lower_reduction(
            parse_program(WINDOWED_CHAPEL_SOURCE), WINDOWED_CONSTS
        )
        summary = analyze_effects(lowered)
        gathers = [
            s for s in lowered.sites.values() if s.kind == "extra"
        ]
        assert gathers, "windowed kernel must have an extra access site"
        site = gathers[0]
        iv = summary.index_bounds(id(site.expr), 0, 0, ELEM_RANGE)
        # scale[b + 1] with b clamped to [0, nb-1]: index in [1, nb]
        assert iv.contained_in(1, 6)

    def test_unrecorded_index_is_top(self, windowed):
        assert not windowed.index_bounds(-1, 0, 0).bounded

    def test_fingerprint_tracks_constants(self):
        a = summarize(WINDOWED_CHAPEL_SOURCE, WINDOWED_CONSTS)
        b = summarize(WINDOWED_CHAPEL_SOURCE, dict(WINDOWED_CONSTS, win=32))
        c = summarize(WINDOWED_CHAPEL_SOURCE, WINDOWED_CONSTS)
        assert a.fingerprint() == c.fingerprint()
        assert a.fingerprint() != b.fingerprint()


class TestDiagnostics:
    def test_clean_kernels_report_nothing(self, windowed, histogram):
        assert windowed.diagnostics == ()
        assert histogram.diagnostics == ()

    def test_rs100_on_provable_underflow(self):
        source = """
class oob : ReduceScanOp {
  def accumulate(x: real) {
    roAdd(0 - 2, 0, 1.0);
  }
}
"""
        summary = summarize(source, {})
        assert [d.code for d in summary.diagnostics] == ["RS100"]
        assert "provably reaches -2" in summary.diagnostics[0].message

    def test_rs101_on_dead_accumulate(self):
        source = """
class deadcode : ReduceScanOp {
  def accumulate(x: real) {
    if (1 > 2) { roAdd(0, 0, 1.0); }
    roAdd(0, 1, x);
  }
}
"""
        summary = summarize(source, {})
        assert [d.code for d in summary.diagnostics] == ["RS101"]
        assert len(summary.live_accumulates) == 1
        assert len(summary.accumulates) == 2

    def test_rs102_on_unbounded_data_dependent_group(self):
        source = """
class unclamped : ReduceScanOp {
  def accumulate(x: real) {
    var b: int = toInt(x);
    roAdd(b, 0, 1.0);
  }
}
"""
        summary = summarize(source, {})
        assert [d.code for d in summary.diagnostics] == ["RS102"]
        assert summary.groups_for_range(0, 10, 16) is None

    def test_one_sided_clamp_composes_across_statements(self):
        # the satellite fix: max(0, ·) in one statement, min(·, hi) in the
        # next must still produce a bounded group interval
        source = """
class twostep : ReduceScanOp {
  def accumulate(x: real) {
    var b: int = toInt(x);
    if (b < 0) { b = 0; }
    if (b > 9) { b = 9; }
    roAdd(b, 0, 1.0);
  }
}
"""
        summary = summarize(source, {})
        assert summary.diagnostics == ()
        assert summary.group_interval(ELEM_RANGE).contained_in(0, 9)


class TestOverApproximation:
    """Footprints must contain every group a split actually touches."""

    def _touched(self, start: int, end: int, win: int, nw: int) -> set[int]:
        return {min(i // win, nw - 1) for i in range(start, end)}

    @pytest.mark.parametrize("seed", range(6))
    def test_windowed_footprint_superset_random_layouts(self, windowed, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 700))
        data = np.zeros(n)
        layout = rng.choice(["default", "aligned", "chunked"])
        if layout == "default":
            splits = default_splitter(data, int(rng.integers(1, 9)))
        elif layout == "aligned":
            splits = aligned_splits(data, int(rng.integers(1, 9)), 64)
        else:
            splits = chunked_splitter(data, int(rng.integers(1, 200)))
        for sp in splits:
            footprint = windowed.groups_for_range(sp.start, sp.end, 8)
            touched = self._touched(sp.start, sp.end, 64, 8)
            assert footprint is not None
            assert touched <= footprint, (sp.start, sp.end)

    @pytest.mark.parametrize("executor", ["serial", "threads", "process"])
    def test_live_footprints_cover_engine_runs(self, executor):
        """End-to-end: groups with nonzero counts after a real run under
        each executor are inside the whole-run summary interval."""
        from repro.apps.windowed import WindowedRunner

        summary = summarize(WINDOWED_CHAPEL_SOURCE, WINDOWED_CONSTS)
        data = np.random.default_rng(3).uniform(0.0, 1.5, 500)
        workers = 1 if executor == "serial" else 2
        with WindowedRunner(
            64, 8, np.linspace(0.5, 1.5, 6), 0.0, 1.5,
            num_threads=workers, executor=executor,
        ) as runner:
            res = runner.run(data)
        touched = {int(g) for g in np.nonzero(res.counts)[0]}
        iv = summary.group_interval(Bounds(0, data.size - 1, exact=True))
        assert all(iv.lo <= g <= iv.hi for g in touched)
        ref = runner.reference(data)
        np.testing.assert_array_equal(res.counts, ref.counts)
