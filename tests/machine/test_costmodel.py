"""Unit tests for the cycle-cost model."""

import pytest

from repro.machine.costmodel import XEON_E5345, CostModel
from repro.machine.counters import OpCounters
from repro.util.errors import MachineError


class TestPricing:
    def test_zero_counters_cost_nothing(self):
        assert XEON_E5345.cycles(OpCounters()) == 0.0

    def test_flops_priced(self):
        assert XEON_E5345.cycles(OpCounters(flops=100)) == pytest.approx(
            100 * XEON_E5345.cycles_per_flop
        )

    def test_deep_nested_chains_dominate_linear(self):
        """A 3-step record chain (k-means centroids) is far more expensive
        than a linear read; a flat 1-step array access (PCA's mean[b]) is
        only marginally worse — the paper's PCA observation."""
        deep = XEON_E5345.cycles(OpCounters(nested_reads=1, nested_steps=3))
        flat = XEON_E5345.cycles(OpCounters(nested_reads=1, nested_steps=1))
        linear = XEON_E5345.cycles(OpCounters(linear_reads=1))
        assert deep > 10 * linear
        assert flat < 3 * linear

    def test_seconds_uses_clock(self):
        cm = CostModel(clock_hz=1e9)
        assert cm.seconds(OpCounters(flops=1e9)) == pytest.approx(1.0)

    def test_all_counter_kinds_contribute(self):
        base = XEON_E5345.cycles(OpCounters())
        for kind in [
            "flops",
            "linear_reads",
            "linear_writes",
            "nested_reads",
            "nested_writes",
            "index_calls",
            "index_levels",
            "ro_updates",
            "bytes_linearized",
            "merge_elements",
        ]:
            c = OpCounters(**{kind: 1.0})
            assert XEON_E5345.cycles(c) > base, f"{kind} must have a cost"

    def test_elements_processed_is_free(self):
        assert XEON_E5345.cycles(OpCounters(elements_processed=100)) == 0.0


class TestLockCosts:
    def test_a_lock_acquisition_costs_a_cache_line_lock(self):
        """Counted acquisitions are priced whoever counts them: only a
        locking run's shape has locks to count (``RunShape.num_locks``)."""
        c = OpCounters(lock_acquisitions=10)
        assert XEON_E5345.cycles(c) == pytest.approx(
            10 * XEON_E5345.cycles_per_lock_cache_sensitive
        )


class TestOverrides:
    def test_with_overrides_creates_new_model(self):
        faster = XEON_E5345.with_overrides(cycles_per_nested_deep_step=1.0)
        assert faster.cycles_per_nested_deep_step == 1.0
        assert XEON_E5345.cycles_per_nested_deep_step > 1.0

    def test_invalid_clock_rejected(self):
        with pytest.raises(MachineError):
            CostModel(clock_hz=0)
