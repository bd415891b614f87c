"""Wave-aware splitting: aligned boundaries + split-parametric coloring.

``aligned_splits`` snaps split boundaries to the effect summary's
element period so each window lands wholly inside one split; combined
with per-split group footprints, splits that share no window color into
one fully parallel wave.  These tests cover the splitter invariants, the
compiler-sourced footprints in ``resolve_group_sets``, and the engine
stamping ``RunStats.split_alignment``.
"""

import numpy as np
import pytest

from repro.apps.windowed import WindowedRunner
from repro.freeride.coloring import color_splits, resolve_group_sets
from repro.freeride.splitter import (
    aligned_layout,
    aligned_splits,
    default_layout,
    default_splitter,
)
from tests.freeride.test_splitter import (
    SIZES,
    assert_layout_is,
    assert_same_splits,
    loop_aligned,
)

ALIGNMENTS = (1, 2, 3, 4, 7, 8, 16, 63, 64, 100, 128, 255, 256, 511, 512)


class TestAlignedLayoutIsTheSplits:
    """The arrays, and the ``Split`` objects built from them, equal the
    per-split loop's — including its clamping (boundaries stay ordered and
    inside ``[0, n]``) and the zero-length splits it leaves."""

    @pytest.mark.parametrize("n", SIZES)
    def test_every_alignment_and_width(self, n):
        data = range(n)
        for req in range(1, 9):
            for align in ALIGNMENTS:
                want = loop_aligned(data, req, align)
                assert_layout_is(aligned_layout(n, req, align), want)
                assert_same_splits(aligned_splits(data, req, align), want)

    def test_clamped_boundaries_leave_empty_splits(self):
        # the third boundary snaps to 128, past n: it is clamped to 100
        starts, ends = aligned_layout(100, 4, 128)
        assert starts.tolist() == [0, 0, 0, 100]
        assert ends.tolist() == [0, 0, 100, 100]
        starts, ends = aligned_layout(100, 8, 64)
        assert starts.tolist() == [0, 0, 0, 64, 64, 64, 64, 64]
        assert ends.tolist() == [0, 0, 64, 64, 64, 64, 64, 100]


class TestAlignedSplits:
    def _assert_partition(self, splits, n):
        assert splits[0].start == 0 and splits[-1].end == n
        for a, b in zip(splits, splits[1:]):
            assert a.end == b.start

    @pytest.mark.parametrize("n,req,align", [
        (512, 4, 64), (1000, 4, 64), (65, 8, 64), (7, 3, 4), (100, 1, 8),
    ])
    def test_interior_boundaries_are_aligned(self, n, req, align):
        data = np.zeros(n)
        splits = aligned_splits(data, req, align)
        self._assert_partition(splits, n)
        for sp in splits[:-1]:
            assert sp.end % align == 0, (sp.start, sp.end)

    def test_even_case_matches_default_splitter(self):
        data = np.zeros(512)
        al = aligned_splits(data, 4, 64)
        de = default_splitter(data, 4)
        assert [(s.start, s.end) for s in al] == [
            (s.start, s.end) for s in de
        ]

    def test_alignment_one_is_default(self):
        data = np.zeros(10)
        splits = aligned_splits(data, 3, 1)
        self._assert_partition(splits, 10)

    def test_tiny_input_collapses_gracefully(self):
        splits = aligned_splits(np.zeros(3), 8, 64)
        self._assert_partition(splits, 3)


class TestCompilerGroupSets:
    def _spec_and_splits(self, workers=4, n=512):
        runner = WindowedRunner(64, 8, np.linspace(0.5, 1.5, 6), 0.0, 1.0)
        data = np.random.default_rng(0).uniform(0, 1, n)
        scale_t = runner.compiled.lowered.extra_types["scale"]
        from repro.chapel.values import from_python

        bound = runner.compiled.bind(
            data, {"scale": from_python(scale_t, runner.scale.tolist())}
        )
        spec, idx = bound.make_spec(runner.ro_layout())
        runner.close()
        return spec, idx, aligned_layout(len(idx), workers, 64)

    def test_footprints_come_from_the_compiler(self):
        spec, idx, layout = self._spec_and_splits()
        sets, source = resolve_group_sets(spec.group_bounds, idx, layout, 8)
        assert source == "compiler"
        assert sets == [
            frozenset({0, 1}), frozenset({2, 3}),
            frozenset({4, 5}), frozenset({6, 7}),
        ]

    def test_aligned_footprints_color_into_one_wave(self):
        spec, idx, layout = self._spec_and_splits()
        sets, source = resolve_group_sets(spec.group_bounds, idx, layout, 8)
        coloring = color_splits(sets, source)
        assert coloring.max_wave_width == 4
        assert coloring.num_colors == 1

    def test_unaligned_splits_still_color_safely(self):
        # without alignment, neighbors share the straddled window and the
        # coloring must serialize them rather than corrupt the RO
        spec, _, _ = self._spec_and_splits()
        sets, _ = resolve_group_sets(
            spec.group_bounds, range(500), default_layout(500, 4), 8
        )
        coloring = color_splits(sets)
        for wave in coloring.waves:
            seen: set[int] = set()
            for sid in wave:
                assert not (sets[sid] & seen)
                seen |= sets[sid]


class TestEngineAlignment:
    def test_colored_run_stamps_alignment(self):
        data = np.random.default_rng(1).uniform(0, 1, 1024)
        with WindowedRunner(
            128, 8, [1.0, 2.0], 0.0, 1.0,
            num_threads=4, executor="threads", technique="colored",
        ) as runner:
            runner.run(data)
            assert runner.last_run_stats.split_alignment == 128

    def test_replicating_run_does_not_align(self):
        data = np.random.default_rng(1).uniform(0, 1, 1024)
        with WindowedRunner(
            128, 8, [1.0, 2.0], 0.0, 1.0,
            num_threads=4, executor="threads",
            technique="full_replication",
        ) as runner:
            runner.run(data)
            assert runner.last_run_stats.split_alignment is None

    def test_data_dependent_kernel_has_no_alignment(self):
        from repro.apps.histogram import HistogramRunner

        data = np.random.default_rng(2).uniform(0, 1, 1000)
        with HistogramRunner(
            8, 0.0, 1.0, num_threads=4, executor="threads",
            technique="colored",
        ) as runner:
            runner.run(data)
            assert runner.last_run_stats.split_alignment is None
