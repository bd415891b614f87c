"""Golden snapshot of every footprint question the engine asks of a
compiled app kernel.

The compiler's effect summary answers three questions the engine plans
with: which groups a split can touch (the colored technique's per-split
footprints, and from them the wave schedule, the split alignment and the
``auto`` decision), and which blocks of elements can reach a set of
groups (the delta replay planner).  This file pins the answers for every
compiled app kernel on the default, chunked and aligned layouts at one to
four workers, so a change to how the questions are answered cannot change
an answer unnoticed.  Regenerate deliberately with::

    PYTHONPATH=src python tests/freeride/test_footprint_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.apps.apriori import APRIORI_CHAPEL_SOURCE
from repro.apps.em import EM_CHAPEL_SOURCE
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.apps.kmeans import KMEANS_CHAPEL_SOURCE, kmeans_ro_layout
from repro.apps.pca import PCA_COV_SOURCE, PCA_MEAN_SOURCE, cov_ro_layout, mean_ro_layout
from repro.apps.windowed import WINDOWED_CHAPEL_SOURCE
from repro.compiler.translate import compile_reduction
from repro.freeride.coloring import color_splits, resolve_group_sets
from repro.freeride.delta import blocks_reaching
from repro.freeride.plan import plan_node
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import SharedMemTechnique
from repro.freeride.spec import ReductionSpec
from repro.freeride.splitter import aligned_layout, chunked_layout, default_layout

GOLDEN = Path(__file__).parent / "golden" / "footprints.txt"

#: elements per run: eight of the windowed kernel's 64-element windows
N = 512
CHUNK = 48
ALIGN = 64
WORKERS = (1, 2, 3, 4)

#: name -> (source, constants, reduction-object layout)
CASES = {
    "kmeans": (KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3}, kmeans_ro_layout(4, 3)),
    "histogram": (
        HISTOGRAM_CHAPEL_SOURCE, {"bins": 16, "lo": 0.0, "width": 4.0},
        [(2, "add")] * 16,
    ),
    "pca_mean": (PCA_MEAN_SOURCE, {"m": 5}, mean_ro_layout(5)),
    "pca_cov": (PCA_COV_SOURCE, {"m": 5}, cov_ro_layout(5)),
    "em": (EM_CHAPEL_SOURCE, {"k": 3, "dim": 2}, [(5, "add")] * 3),
    "apriori": (
        APRIORI_CHAPEL_SOURCE, {"numItems": 10, "numCand": 6, "setSize": 2},
        [(6, "add")],
    ),
    "windowed": (
        WINDOWED_CHAPEL_SOURCE,
        {"win": 64, "nw": 8, "nb": 6, "lo": 0.0, "width": 0.25},
        [(2, "add")] * 8,
    ),
}


def snapshot(name: str) -> list[str]:
    """One line per answer: ``name question key json``."""
    source, constants, ro_layout = CASES[name]
    bounds = compile_reduction(source, constants, 2).group_bounds
    num_groups = len(ro_layout)
    lines: list[str] = []

    def pin(question: str, key: str, value) -> None:
        lines.append(f"{name} {question} {key} {json.dumps(value, sort_keys=True)}")

    for workers in WORKERS:
        layouts = {
            "default": default_layout(N, workers),
            "chunked": chunked_layout(N, CHUNK),
            "aligned": aligned_layout(N, workers, ALIGN),
        }
        for kind, layout in layouts.items():
            sets, source_name = resolve_group_sets(bounds, range(N), layout, num_groups)
            pin("footprints", f"{kind}/W{workers}", {
                "groups": [sorted(gs) for gs in sets],
                "source": source_name,
                "coloring": color_splits(sets, source_name).fingerprint(),
            })
        spec = ReductionSpec(
            name="golden", setup_reduction_object=lambda ro: None,
            reduction=lambda args: None, group_bounds=bounds,
        )
        ro = ReductionObject()
        ro.alloc_many(ro_layout)
        for request in ("colored", "auto"):
            technique = None if request == "auto" else SharedMemTechnique(request)
            for chunk in (None, CHUNK):
                plan = plan_node(
                    spec, range(N), ro, technique=technique, executor="threads",
                    num_threads=workers, chunk_size=chunk,
                )
                pin("plan", f"{request}/chunk{chunk}/W{workers}", {
                    "splits": [[int(s), int(e)] for s, e in zip(*plan.layout)],
                    "split_alignment": plan.split_alignment,
                    "technique": plan.technique.value,
                    "technique_decision": plan.decision,
                    "coloring": (
                        plan.coloring.fingerprint() if plan.coloring is not None else None
                    ),
                })
    last = num_groups - 1
    for n in (N, N - 12):
        for targets in ({0}, {last}, {0, last}, {num_groups // 2}):
            blocks = blocks_reaching(bounds, frozenset(targets), n, num_groups)
            key = f"n{n}/{','.join(map(str, sorted(targets)))}"
            pin("blocks_reaching", key, [[int(s), int(e)] for s, e in blocks])
    return lines


@pytest.mark.parametrize("name", sorted(CASES), ids=sorted(CASES))
def test_footprints_match_golden(name):
    assert GOLDEN.exists(), f"missing {GOLDEN}; run this module as a script"
    golden = [line for line in GOLDEN.read_text().splitlines() if line.split()[0] == name]
    assert snapshot(name) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(f"{line}\n" for name in sorted(CASES) for line in snapshot(name)))
    print(f"wrote {GOLDEN}")
