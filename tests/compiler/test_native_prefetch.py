"""The native entry's prefetch is a hint: every result keeps its bits.

The exported C entry loops the split body over a list of ranges and, while
it runs range ``i``, prefetches the first data row of range
``i + PREFETCH_DISTANCE``.  That changes when a row reaches the cache, never
what is read or in which order, so a range list of any length — none, one,
exactly the distance, one past it, a thousand scattered rows — and a list
that straddles a dataset's prefix and its appended tail (the tail call runs
at tail-local positions, with the segment's first position as ``_e0``) all
reduce to the scalar tier's bits and ledger.  Values are uniform reals, so
any change in the order of the additions would show in the bytes.

The module skips when the host has no usable C toolchain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.kmeans import KMEANS_CHAPEL_SOURCE, centroids_to_chapel
from repro.compiler.native import PREFETCH_DISTANCE, probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride.reduction_object import ReductionObject

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

#: a histogram whose sums also weigh each value by its global position
WEIGHTED = """
class weightedHistogram : ReduceScanOp {
  var bins: int;

  def accumulate(x: real) {
    var b: int = toInt(x * bins);
    if (b > bins - 1) { b = bins - 1; }
    roAdd(b, 0, 1.0);
    roAdd(b, 1, x * elemIdx());
  }
}
"""
N = 5_000
D = PREFETCH_DISTANCE


def _weighted(rng):
    return WEIGHTED, {"bins": 8}, rng.uniform(0.0, 1.0, N), {}, [(2, "add")] * 8


def _kmeans(rng):
    k, dim = 4, 3
    extras = {"centroids": centroids_to_chapel(rng.uniform(0.0, 1.0, (k, dim)))}
    data = rng.uniform(0.0, 1.0, (N, dim))
    return KMEANS_CHAPEL_SOURCE, {"k": k, "dim": dim}, data, extras, [(dim + 2, "add")] * k


def _scattered(rng, count, n=N):
    """``count`` sorted, disjoint ranges of one to three rows over ``[0, n)``."""
    firsts = np.sort(rng.choice(n // 4, size=count, replace=False)) * 4
    return firsts, firsts + rng.integers(1, 4, size=count)


def _tiers(make_case, starts, ends, tail_rows=0):
    """Per tier, ``(snapshot bytes, update count, ledger)`` of one
    ``reduce_ranges`` call into an empty object, after ``tail_rows`` rows
    were appended to the bound data."""
    rng = np.random.default_rng(17)
    source, consts, data, extras, layout = make_case(rng)
    tail = rng.uniform(0.0, 1.0, (tail_rows, *data.shape[1:]))
    out = {}
    for backend in ("scalar", "native"):
        comp = compile_reduction(source, consts, 2, backend=backend)
        assert comp.effective_backend == backend
        bound = comp.bind(data.copy(), extras)
        if tail_rows:
            bound.append_elements(tail)
        ro = ReductionObject.from_layout(layout)
        bound.reduce_ranges(starts, ends, ro)
        out[backend] = ro.snapshot().tobytes(), ro.update_count, bound.counters
    return out


@pytest.mark.parametrize("make_case", [_weighted, _kmeans], ids=["weighted", "kmeans"])
@pytest.mark.parametrize("count", [0, 1, D, D + 1, 1_000])
def test_scattered_ranges_reduce_to_the_scalar_bits(make_case, count):
    starts, ends = _scattered(np.random.default_rng(count), count)
    out = _tiers(make_case, starts, ends)
    assert out["native"] == out["scalar"]
    assert out["native"][2].elements_processed == (ends - starts).sum()


@pytest.mark.parametrize("make_case", [_weighted, _kmeans], ids=["weighted", "kmeans"])
def test_a_list_straddling_the_prefix_end(make_case):
    """Ranges in the prefix, one across its end, and more than the distance
    in the tail: the tail call prefetches at tail-local positions."""
    rng = np.random.default_rng(29)
    head_s, head_e = _scattered(rng, 3 * D, n=N - 8)
    tail_s, tail_e = _scattered(rng, 2 * D, n=600)
    starts = np.concatenate([head_s, [N - 5], N + 4 + tail_s])
    ends = np.concatenate([head_e, [N + 3], N + 4 + tail_e])
    out = _tiers(make_case, starts, ends, tail_rows=620)
    assert out["native"] == out["scalar"]
    assert out["native"][2].elements_processed == (ends - starts).sum()


def test_the_entry_prefetches_the_data_row_of_a_later_range():
    comp = compile_reduction(KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3}, 2, backend="native")
    assert comp.effective_backend == "native"
    entry = comp.native_source.split("\n{\n")[-1]
    # one hint per range, over the dataset's buffer, rows of 3 float64
    assert entry.count("__builtin_prefetch") == 1
    assert f"if (_i + {D} < _n) __builtin_prefetch(_bufs[0] + _starts[_i + {D}] * 24);" in entry
