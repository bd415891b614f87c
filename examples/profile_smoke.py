"""Profile store smoke — record, re-run unchanged, detect regressions.

Runs k-means and histogram twice against a profile store:

1. **Cold runs** populate the store: one record per engine run.  The cold
   k-means runs are traced, and their records must hold one split duration
   per ``split`` span, with p50 and p95 set.
2. A snapshot of the cold store is taken for later comparison.
3. **Warm runs** repeat the same programs.  The store is a recorder, never
   an input, so the warm histogram run must plan exactly what the cold run
   planned (effective technique, coloring, technique decision) and return
   the same bytes.
4. ``python -m repro.profile diff`` compares the cold snapshot against
   the full store (expected: no regression), then against a doctored
   snapshot with a 100x injected slowdown (expected: exit 1).

Run:  PYTHONPATH=src python examples/profile_smoke.py [store-dir]

Exit status is non-zero if any of the above expectations fail.
"""

import json
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.apps.histogram import HistogramRunner
from repro.apps.kmeans import KmeansRunner
from repro.data import initial_centroids, kmeans_points
from repro.obs import ProfileStore, Tracer, tracing
from repro.profile import DIFF_OK, DIFF_REGRESSION
from repro.profile import main as profile_cli

BINS, N_HIST = 64, 65_536
N_POINTS, DIM, K = 4_000, 4, 8


def _hist_data() -> np.ndarray:
    # sorted integer-valued doubles: contiguous splits touch disjoint bin
    # ranges, which only a run could see — and no run feeds the plan
    return np.sort(((np.arange(N_HIST) * 7919) % 256).astype(np.float64))


def _run_suite(
    store: Path, tracer: "Tracer | None" = None
) -> "tuple[HistogramRunner, bytes]":
    points = kmeans_points(N_POINTS, DIM, num_blobs=K, seed=7)
    cents0 = initial_centroids(points, K, seed=8)
    km = KmeansRunner(
        K, DIM, version="opt-2", num_threads=4, executor="threads",
        profile_store=store,
    )
    with tracing(tracer) if tracer is not None else nullcontext():
        km.run(points, cents0, iterations=2)

    hist = HistogramRunner(
        bins=BINS, lo=0.0, hi=256.0, version="opt-2", num_threads=4,
        executor="threads", technique="auto", profile_store=store,
    )
    result = hist.run(_hist_data())
    return hist, result.counts.tobytes() + result.sums.tobytes()


def _plan_of(hist: HistogramRunner) -> dict:
    """What a histogram run planned, as its stats report it."""
    stats = hist.last_run_stats
    return {
        "technique_effective": stats.technique_effective.value,
        "coloring": stats.coloring,
        "technique_decision": stats.technique_decision,
    }


def _traced_records_ok(tracer: Tracer, store: Path) -> bool:
    """Each traced run's record summarizes one duration per ``split`` span
    of the run, with the percentiles only timed splits give."""
    runs = [s for s in tracer.spans() if s.name == "engine.run"]
    names = {s.args["spec"] for s in runs}
    summaries = [
        rec["split_seconds"] or {}
        for rec in ProfileStore(store).load()
        if rec["spec_name"] in names
    ]
    splits = sum(1 for s in tracer.spans() if s.name == "split")
    print(f"traced k-means: {len(runs)} runs, {splits} split spans, "
          f"recorded counts {[s.get('count') for s in summaries]}")
    return (
        len(summaries) == len(runs) > 0
        and sum(s.get("count", 0) for s in summaries) == splits
        and all(s.get("p50") is not None and s.get("p95") is not None
                for s in summaries)
    )


def _inject_slowdown(src: Path, dst: Path, factor: float = 100.0) -> None:
    """Copy a store, multiplying every recorded wall time by ``factor``."""
    dst.mkdir(parents=True, exist_ok=True)
    for seg in sorted(src.glob("segment-*.jsonl")):
        out_lines = []
        for line in seg.read_text().splitlines():
            rec = json.loads(line)
            rec["wall_seconds"] = rec.get("wall_seconds", 0.0) * factor
            out_lines.append(json.dumps(rec))
        (dst / seg.name).write_text("\n".join(out_lines) + "\n")


def main(store_dir: str) -> int:
    root = Path(store_dir)
    if root.exists():
        shutil.rmtree(root)

    print(f"== cold runs (store: {root}) ==")
    tracer = Tracer()
    cold_hist, cold_bytes = _run_suite(root, tracer)
    if not _traced_records_ok(tracer, root):
        print("FAIL: the traced k-means records do not match its split spans",
              file=sys.stderr)
        return 1
    cold_plan = _plan_of(cold_hist)
    print(f"histogram cold: technique={cold_plan['technique_effective']}")
    snapshot = root.parent / (root.name + "-cold")
    if snapshot.exists():
        shutil.rmtree(snapshot)
    shutil.copytree(root, snapshot)

    print("\n== warm runs (same programs, store attached) ==")
    warm_hist, warm_bytes = _run_suite(root)
    warm_plan = _plan_of(warm_hist)
    print(f"histogram warm: technique={warm_plan['technique_effective']}")
    for name, cold in cold_plan.items():
        if warm_plan[name] != cold:
            print(f"FAIL: warm histogram {name} {warm_plan[name]!r} differs "
                  f"from the cold run's {cold!r}", file=sys.stderr)
            return 1
    if warm_bytes != cold_bytes:
        print("FAIL: warm histogram result differs from the cold run's",
              file=sys.stderr)
        return 1

    print("\n== store report ==")
    profile_cli(["report", str(root)])

    print("\n== diff: cold snapshot vs full store (expect: ok) ==")
    code = profile_cli(["diff", str(snapshot), str(root), "--threshold", "10"])
    if code != DIFF_OK:
        print(f"FAIL: unexpected regression verdict (exit {code})",
              file=sys.stderr)
        return 1

    print("\n== diff vs doctored 100x-slower snapshot (expect: regression) ==")
    slow = root.parent / (root.name + "-slow")
    _inject_slowdown(snapshot, slow)
    code = profile_cli(["diff", str(snapshot), str(slow)])
    if code != DIFF_REGRESSION:
        print(f"FAIL: injected slowdown not flagged (exit {code})",
              file=sys.stderr)
        return 1

    print("\nprofile smoke OK")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(main(sys.argv[1]))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(main(str(Path(tmp) / "store")))
