"""Unit tests for all-to-one and parallel-merge combination."""

import math

import numpy as np
import pytest

from repro.freeride.combination import (
    all_to_one_combine,
    combine,
    parallel_merge_combine,
)
from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import FreerideError


def make_copies(n, elems=4, seed=0):
    base = ReductionObject()
    base.alloc(elems, "add")
    base.alloc(1, "min")
    base.freeze_layout()
    rng = np.random.default_rng(seed)
    copies = []
    for _ in range(n):
        c = base.clone_empty()
        c.accumulate_group(0, rng.uniform(0, 10, elems))
        c.accumulate(1, 0, float(rng.uniform(0, 10)))
        copies.append(c)
    return copies


def reference_merge(copies):
    add = np.sum([c.get_group(0) for c in copies], axis=0)
    mn = min(c.get(1, 0) for c in copies)
    return add, mn


class TestStrategiesAgree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
    def test_all_to_one_matches_reference(self, n):
        copies = make_copies(n)
        add_ref, mn_ref = reference_merge(copies)
        merged, stats = all_to_one_combine(copies)
        assert np.allclose(merged.get_group(0), add_ref)
        assert merged.get(1, 0) == pytest.approx(mn_ref)
        assert stats.merges == n - 1
        assert stats.rounds == n - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
    def test_parallel_merge_matches_reference(self, n):
        copies = make_copies(n, seed=7)
        add_ref, mn_ref = reference_merge(copies)
        merged, stats = parallel_merge_combine(copies)
        assert np.allclose(merged.get_group(0), add_ref)
        assert merged.get(1, 0) == pytest.approx(mn_ref)
        assert stats.merges == n - 1
        assert stats.rounds == math.ceil(math.log2(n))


class TestStrategySelection:
    def test_small_object_uses_all_to_one(self):
        copies = make_copies(4, elems=4)
        _, stats = combine(copies)
        assert stats.strategy == "all_to_one"

    def test_large_object_uses_all_to_one(self):
        copies = make_copies(4, elems=8192)  # 64 KiB of add cells
        assert copies[0].nbytes >= 64 * 1024
        _, stats = combine(copies)
        assert stats.strategy == "all_to_one"
        assert stats.merges == stats.rounds == 3

    def test_single_copy_trivial(self):
        copies = make_copies(1)
        merged, stats = combine(copies)
        assert merged is copies[0]
        assert stats.strategy == "trivial"

    def test_empty_rejected(self):
        with pytest.raises(FreerideError):
            combine([])
        with pytest.raises(FreerideError):
            all_to_one_combine([])
        with pytest.raises(FreerideError):
            parallel_merge_combine([])


def snapshot_all(copies):
    return [c.snapshot().copy() for c in copies]


class TestInputsNotMutated:
    """Regression: combination used to fold results into copies[0] in place."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_all_to_one_leaves_inputs_intact(self, n):
        copies = make_copies(n)
        before = snapshot_all(copies)
        all_to_one_combine(copies)
        for c, snap in zip(copies, before):
            assert np.array_equal(c.snapshot(), snap)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_parallel_merge_leaves_inputs_intact(self, n):
        copies = make_copies(n)
        before = snapshot_all(copies)
        parallel_merge_combine(copies)
        for c, snap in zip(copies, before):
            assert np.array_equal(c.snapshot(), snap)

    @pytest.mark.parametrize("seed", [1, 10**9])
    def test_combine_leaves_inputs_intact(self, seed):
        copies = make_copies(4, seed=seed)
        before = snapshot_all(copies)
        combine(copies)
        for c, snap in zip(copies, before):
            assert np.array_equal(c.snapshot(), snap)


class TestTargetSemantics:
    def test_all_to_one_into_target(self):
        copies = make_copies(3)
        target = copies[0].clone_empty()
        merged, stats = all_to_one_combine(copies, target=target)
        assert merged is target
        assert stats.merges == 3  # every copy folded into the target
        add, mn = reference_merge(copies)
        assert np.array_equal(target.get_group(0), add)
        assert target.get(1, 0) == mn

    def test_parallel_merge_into_target(self):
        copies = make_copies(4)
        target = copies[0].clone_empty()
        merged, stats = parallel_merge_combine(copies, target=target)
        assert merged is target
        add, mn = reference_merge(copies)
        assert np.array_equal(target.get_group(0), add)
        assert target.get(1, 0) == mn

    def test_combine_single_copy_with_target_not_trivial(self):
        copies = make_copies(1)
        target = copies[0].clone_empty()
        merged, stats = combine(copies, target=target)
        assert merged is target
        assert merged is not copies[0]
        assert np.array_equal(merged.snapshot(), copies[0].snapshot())

    def test_strategies_agree_with_target(self):
        copies = make_copies(5, seed=3)
        t1 = copies[0].clone_empty()
        t2 = copies[0].clone_empty()
        all_to_one_combine(copies, target=t1)
        parallel_merge_combine(copies, target=t2)
        # fold and tree associate float additions differently
        assert np.allclose(t1.snapshot(), t2.snapshot(), rtol=0, atol=1e-12)
