"""The plan-time group bounds behind the COLORED technique.

``analyze_group_bounds`` hands the engine the effect summary of a lowered
reduction, and the summary answers its footprint questions.  Every paper
app's kernel must analyze *bounded* (that is what lets the engine run them
colored), and anything the analysis cannot prove must come back
*unbounded* — a too-narrow bound would let two conflicting splits run in
the same wave and silently corrupt the shared reduction object, so these
tests pin the conservative direction hard.
"""

import pytest

from repro.analysis.effects import EffectSummary
from repro.apps.apriori import APRIORI_CHAPEL_SOURCE
from repro.apps.em import EM_CHAPEL_SOURCE
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.apps.kmeans import KMEANS_CHAPEL_SOURCE
from repro.apps.pca import PCA_COV_SOURCE, PCA_MEAN_SOURCE
from repro.chapel.parser import parse_program
from repro.compiler.groupbounds import analyze_group_bounds
from repro.compiler.lower import lower_reduction
from repro.compiler.translate import compile_reduction


def bounds_of(source: str, constants: dict) -> EffectSummary:
    return analyze_group_bounds(
        lower_reduction(parse_program(source), constants)
    )


APP_CASES = [
    ("kmeans", KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3}, 0, 3),
    ("histogram", HISTOGRAM_CHAPEL_SOURCE,
     {"bins": 16, "lo": 0.0, "width": 4.0}, 0, 15),
    ("pca_mean", PCA_MEAN_SOURCE, {"m": 5}, 0, 1),
    ("pca_cov", PCA_COV_SOURCE, {"m": 5}, 0, 4),
    ("em", EM_CHAPEL_SOURCE, {"k": 3, "dim": 2}, 0, 2),
    ("apriori", APRIORI_CHAPEL_SOURCE,
     {"numItems": 10, "numCand": 6, "setSize": 2}, 0, 0),
]


@pytest.mark.parametrize(
    "name,source,constants,lo,hi", APP_CASES, ids=[c[0] for c in APP_CASES]
)
def test_all_app_kernels_are_bounded(name, source, constants, lo, hi):
    gb = bounds_of(source, constants)
    hull = gb.group_interval()
    assert hull.bounded
    assert (hull.lo, hull.hi) == (lo, hi)
    assert gb.accumulates


def test_histogram_clamp_narrowing_tracks_bins():
    """The clamp pattern bounds an otherwise-unbounded toInt result, and
    the bound follows the ``bins`` constant."""
    for bins in (4, 64):
        gb = bounds_of(
            HISTOGRAM_CHAPEL_SOURCE, {"bins": bins, "lo": 0.0, "width": 1.0}
        )
        hull = gb.group_interval()
        assert hull.bounded and (hull.lo, hull.hi) == (0, bins - 1)


def test_kmeans_loop_fixpoint_bounds_min_index():
    """minIdx is reassigned inside the distance loop; the fixpoint must
    stabilize it to the loop variable's range rather than widening."""
    hull = bounds_of(KMEANS_CHAPEL_SOURCE, {"k": 7, "dim": 2}).group_interval()
    assert hull.bounded and (hull.lo, hull.hi) == (0, 6)


def test_unclamped_data_dependent_group_is_unbounded():
    source = """
class unclamped : ReduceScanOp {
  def accumulate(x: real) {
    var b: int = toInt(x);
    roAdd(b, 0, 1.0);
  }
}
"""
    gb = bounds_of(source, {})
    assert not gb.group_interval().bounded
    assert gb.groups_for_range(0, 16, 16) is None


def test_one_sided_clamp_stays_unbounded():
    """Clamping only the lower side leaves the upper side open — the
    analysis must not invent a bound it never proved."""
    source = """
class halfclamped : ReduceScanOp {
  def accumulate(x: real) {
    var b: int = toInt(x);
    if (b < 0) { b = 0; }
    roAdd(b, 0, 1.0);
  }
}
"""
    gb = bounds_of(source, {})
    assert not gb.group_interval().bounded
    assert gb.groups_for_range(0, 16, 16) is None


def test_groups_materializes_and_clips_to_layout():
    gb = bounds_of(
        HISTOGRAM_CHAPEL_SOURCE, {"bins": 16, "lo": 0.0, "width": 4.0}
    )
    assert gb.groups_for_range(0, 100, 16) == frozenset(range(16))
    # a smaller reduction object clips the proven interval to its layout
    assert gb.groups_for_range(0, 100, 8) == frozenset(range(8))


def test_fingerprint_tracks_the_interval():
    a = bounds_of(HISTOGRAM_CHAPEL_SOURCE, {"bins": 16, "lo": 0.0, "width": 4.0})
    b = bounds_of(HISTOGRAM_CHAPEL_SOURCE, {"bins": 32, "lo": 0.0, "width": 4.0})
    c = bounds_of(HISTOGRAM_CHAPEL_SOURCE, {"bins": 16, "lo": 0.0, "width": 4.0})
    assert a.fingerprint() == c.fingerprint()
    assert a.fingerprint() != b.fingerprint()


def test_compile_reduction_attaches_bounds():
    comp = compile_reduction(
        HISTOGRAM_CHAPEL_SOURCE, {"bins": 16, "lo": 0.0, "width": 4.0},
        opt_level=2,
    )
    assert isinstance(comp.group_bounds, EffectSummary)
    assert comp.group_bounds.groups_for_range(0, 8, 16) == frozenset(range(16))
    spec, _ = comp.bind(
        __import__("numpy").arange(8, dtype=float)
    ).make_spec([(2, "add")] * 16)
    assert spec.group_bounds is comp.group_bounds
