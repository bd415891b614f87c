"""Regenerate the paper's tables: ``python -m repro.bench [id ...]``.

With no ids, runs every report: Figures 9-13 at the paper's dataset scales,
then the Figure 4 structure table, Figure 11's linearization share and
ablations A-D, printing each table (a figure's table ends with its shape
checks) and, last, how many checks passed.  ``--scale`` shrinks the
figures' element counts for a quick look; ``--threads`` changes their sweep;
``--out DIR`` also writes each report to ``DIR/<id>.txt``.  Exits 1 when a
check of any requested report fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.figures import THREADS
from repro.bench.reports import REPORT_IDS, run_report


def _thread_counts(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(t) for t in text.split(","))
    except ValueError:
        counts = ()
    if not counts or min(counts) < 1 or 1 not in counts:
        raise argparse.ArgumentTypeError(
            f"{text!r}: want comma-separated positive integers including 1, "
            "the baseline every speedup and check compares against"
        )
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and check its claims.",
    )
    parser.add_argument(
        "reports",
        nargs="*",
        help=f"report ids from {list(REPORT_IDS)} (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="Figs 9-13 element-count scale factor (default 1.0 = paper scale)",
    )
    parser.add_argument(
        "--threads",
        type=_thread_counts,
        default=THREADS,
        help="Figs 9-13 comma-separated thread counts (default 1,2,4,8)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write each report to OUT/<id>.txt",
    )
    args = parser.parse_args(argv)
    unknown = [r for r in args.reports if r not in REPORT_IDS]
    if unknown:
        parser.error(f"unknown report id(s) {unknown}; have {list(REPORT_IDS)}")

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    report_ids = args.reports or REPORT_IDS
    failed: list[str] = []
    total = 0
    for report_id in report_ids:
        text, checks = run_report(report_id, args.threads, args.scale)
        print(text)
        print()
        if args.out:
            (args.out / f"{report_id}.txt").write_text(text + "\n")
        failed += [f"{report_id}: {name}" for name, ok in checks.items() if not ok]
        total += len(checks)
    print(f"{total - len(failed)} of {total} checks pass over {len(report_ids)} report(s)")
    if failed:
        print("checks failed:\n  " + "\n  ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
