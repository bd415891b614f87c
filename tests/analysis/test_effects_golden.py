"""Golden-file snapshots of the effect analysis over every app kernel.

Each golden file pins (a) the symbolic accumulate summaries — op, group
form, whole-run interval, alignment — and (b) the full ``--effects``
analyzer output for that kernel.  A diff here means the analysis changed
its verdict on a shipped kernel; regenerate deliberately with::

    PYTHONPATH=src python tests/analysis/test_effects_golden.py
"""

from pathlib import Path

import pytest

from repro.analysis.driver import analyze_source
from repro.analysis.diagnostics import render_diagnostics
from repro.analysis.effects import ELEM_RANGE, analyze_effects
from repro.apps.apriori import APRIORI_CHAPEL_SOURCE
from repro.apps.em import EM_CHAPEL_SOURCE
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.apps.kmeans import KMEANS_CHAPEL_SOURCE
from repro.apps.pca import PCA_COV_SOURCE, PCA_MEAN_SOURCE
from repro.apps.windowed import WINDOWED_CHAPEL_SOURCE
from repro.chapel.parser import parse_program
from repro.compiler.lower import lower_reduction

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "kmeans": (KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3}),
    "histogram": (HISTOGRAM_CHAPEL_SOURCE, {"bins": 16, "lo": 0.0, "width": 4.0}),
    "pca_mean": (PCA_MEAN_SOURCE, {"m": 5}),
    "pca_cov": (PCA_COV_SOURCE, {"m": 5}),
    "em": (EM_CHAPEL_SOURCE, {"k": 3, "dim": 2}),
    "apriori": (
        APRIORI_CHAPEL_SOURCE,
        {"numItems": 10, "numCand": 6, "setSize": 2},
    ),
    "windowed": (
        WINDOWED_CHAPEL_SOURCE,
        {"win": 64, "nw": 8, "nb": 6, "lo": 0.0, "width": 0.25},
    ),
}


def snapshot(source: str, constants: dict) -> str:
    lowered = lower_reduction(parse_program(source), constants)
    summary = analyze_effects(lowered)
    lines = [f"effect summary: {summary.name}"]
    for eff in summary.accumulates:
        lines.append(
            f"  {eff.op} group={eff.group.describe()} "
            f"bounds={eff.group_bounds(ELEM_RANGE)}"
            f"{' DEAD' if eff.dead else ''}"
        )
    iv = summary.group_interval(ELEM_RANGE)
    lines.append(f"  interval={iv} alignment={summary.alignment}")
    lines.append("analyzer --effects:")
    diags = analyze_source(source, constants=constants, effects=True)
    lines.append(render_diagnostics(diags))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CASES), ids=sorted(CASES))
def test_effects_snapshot_matches_golden(name):
    source, constants = CASES[name]
    golden = GOLDEN_DIR / f"{name}.txt"
    assert golden.exists(), (
        f"missing golden file {golden}; run this module as a script to "
        "generate it"
    )
    assert snapshot(source, constants) == golden.read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (source, constants) in sorted(CASES.items()):
        path = GOLDEN_DIR / f"{name}.txt"
        path.write_text(snapshot(source, constants))
        print(f"wrote {path}")
