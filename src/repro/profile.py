"""``python -m repro.profile`` — profile-store tooling.

Subcommands::

    python -m repro.profile report [STORE]            # run-history tables
    python -m repro.profile diff A B [--threshold R]  # regression check
    python -m repro.profile gc [STORE] [--max-age-days D] [--keep N]

``STORE`` is a profile-store directory; when omitted the default root is
used (``$REPRO_PROFILE_STORE`` or ``~/.cache/repro-profiles``).

``diff`` compares two store snapshots per ``(digest, shape_class)`` key —
median wall seconds of the newer snapshot against the older — and flags
every key whose slowdown ratio exceeds ``--threshold``.

Exit status: ``0`` on success (``diff``: no regression), ``1`` when
``diff`` found a regression above the threshold, ``2`` on invalid input
(missing store, no comparable records).
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Sequence

from repro.obs.profilestore import ProfileStore, default_store_root

__all__ = ["main", "diff_stores", "DIFF_OK", "DIFF_REGRESSION", "DIFF_INVALID"]

#: ``diff`` exit codes, stable for CI consumption
DIFF_OK = 0
DIFF_REGRESSION = 1
DIFF_INVALID = 2

#: default slowdown ratio above which ``diff`` reports a regression
DEFAULT_THRESHOLD = 1.25


def _store(path: str | None) -> ProfileStore:
    return ProfileStore(path) if path else ProfileStore(default_store_root())


def _median(vals: "list[float]") -> float:
    vals = sorted(vals)
    mid = len(vals) // 2
    if len(vals) % 2:
        return vals[mid]
    return (vals[mid - 1] + vals[mid]) / 2.0


def _key(rec: "dict[str, Any]") -> "tuple[str, str]":
    # records without a digest (hand-written specs) key by spec name, so
    # they still aggregate and diff — just with a coarser identity
    return (
        rec.get("digest") or f"spec:{rec.get('spec_name', '?')}",
        rec.get("shape_class") or "?",
    )


def _group(records: "list[dict[str, Any]]") -> "dict[tuple[str, str], list]":
    grouped: "defaultdict[tuple[str, str], list]" = defaultdict(list)
    for rec in records:
        grouped[_key(rec)].append(rec)
    return dict(grouped)


def _fmt_key(key: "tuple[str, str]") -> str:
    digest, shape = key
    label = digest[:12] if not digest.startswith("spec:") else digest
    return f"{label} @ {shape}"


def _cmd_report(args: argparse.Namespace) -> int:
    store = _store(args.store)
    records = store.load(digest=args.digest, last=args.last)
    if not records:
        print(f"no records in {store.root}", file=sys.stderr)
        return DIFF_INVALID
    print(f"profile store: {store.root}")
    print(f"records: {len(records)}"
          + (f" (skipped {store.skipped_lines} corrupt line(s))"
             if store.skipped_lines else ""))
    header = (
        f"{'key':<34} {'runs':>4} {'median wall':>12} {'technique':>24} "
        f"{'wave':>4}"
    )
    print()
    print(header)
    print("-" * len(header))
    for key, recs in sorted(_group(records).items()):
        latest = recs[-1]
        walls = [r["wall_seconds"] for r in recs
                 if isinstance(r.get("wall_seconds"), (int, float))]
        coloring = latest.get("coloring") or {}
        spec = latest.get("spec_name", "?")
        print(
            f"{_fmt_key(key):<34} {len(recs):>4} "
            f"{_median(walls) if walls else float('nan'):>11.4f}s "
            f"{latest.get('technique_effective', '?'):>24} "
            f"{coloring.get('max_wave_width', '-')!s:>4}  {spec}"
        )
    return 0


def diff_stores(
    base: ProfileStore,
    new: ProfileStore,
    threshold: float = DEFAULT_THRESHOLD,
) -> "tuple[int, list[dict[str, Any]]]":
    """Compare two snapshots; returns ``(exit code, per-key rows)``.

    Each row: ``{key, base_median, new_median, ratio, regressed}``.  Keys
    present in only one snapshot are skipped — a diff needs both sides.
    """
    base_groups = _group(base.load())
    new_groups = _group(new.load())
    shared = sorted(set(base_groups) & set(new_groups))
    rows: "list[dict[str, Any]]" = []
    for key in shared:
        b = [r["wall_seconds"] for r in base_groups[key]
             if isinstance(r.get("wall_seconds"), (int, float))]
        n = [r["wall_seconds"] for r in new_groups[key]
             if isinstance(r.get("wall_seconds"), (int, float))]
        if not b or not n:
            continue
        base_med, new_med = _median(b), _median(n)
        ratio = new_med / base_med if base_med > 0 else float("inf")
        rows.append({
            "key": key,
            "base_median": base_med,
            "new_median": new_med,
            "ratio": ratio,
            "regressed": ratio > threshold,
        })
    if not rows:
        return DIFF_INVALID, rows
    code = (
        DIFF_REGRESSION if any(row["regressed"] for row in rows) else DIFF_OK
    )
    return code, rows


def _cmd_diff(args: argparse.Namespace) -> int:
    base_root, new_root = Path(args.base), Path(args.new)
    for root in (base_root, new_root):
        if not root.is_dir():
            print(f"not a profile store directory: {root}", file=sys.stderr)
            return DIFF_INVALID
    code, rows = diff_stores(
        ProfileStore(base_root), ProfileStore(new_root), args.threshold
    )
    if not rows:
        print("no comparable records (shared keys with wall times) between "
              f"{base_root} and {new_root}", file=sys.stderr)
        return DIFF_INVALID
    header = (
        f"{'key':<34} {'base':>10} {'new':>10} {'ratio':>7}  verdict"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        print(
            f"{_fmt_key(row['key']):<34} {row['base_median']:>9.4f}s "
            f"{row['new_median']:>9.4f}s {row['ratio']:>6.2f}x  {verdict}"
        )
    worst = max(rows, key=lambda row: row["ratio"])
    if code == DIFF_REGRESSION:
        print(
            f"\nregression: {_fmt_key(worst['key'])} slowed "
            f"{worst['ratio']:.2f}x (threshold {args.threshold:.2f}x)",
            file=sys.stderr,
        )
    else:
        print(f"\nno regression above {args.threshold:.2f}x "
              f"(worst ratio {worst['ratio']:.2f}x)")
    return code


def _cmd_gc(args: argparse.Namespace) -> int:
    store = _store(args.store)
    if args.max_age_days is None and args.keep is None:
        print("gc needs --max-age-days and/or --keep", file=sys.stderr)
        return DIFF_INVALID
    kept, dropped = store.gc(max_age_days=args.max_age_days, keep=args.keep)
    print(f"{store.root}: kept {kept} record(s), dropped {dropped}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Inspect, diff and garbage-collect repro profile stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="summarize run history per (program, shape) key"
    )
    p_report.add_argument("store", nargs="?", default=None,
                          help="store directory (default: the default root)")
    p_report.add_argument("--digest", default=None,
                          help="only records of this program digest")
    p_report.add_argument("--last", type=int, default=None,
                          help="only the newest N records")
    p_report.set_defaults(func=_cmd_report)

    p_diff = sub.add_parser(
        "diff",
        help="compare two store snapshots (exit 1 on regression, 2 on "
             "invalid input)",
    )
    p_diff.add_argument("base", help="baseline store directory")
    p_diff.add_argument("new", help="candidate store directory")
    p_diff.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="slowdown ratio flagged as a regression "
                             f"(default {DEFAULT_THRESHOLD})")
    p_diff.set_defaults(func=_cmd_diff)

    p_gc = sub.add_parser("gc", help="drop old records (compacting rewrite)")
    p_gc.add_argument("store", nargs="?", default=None,
                      help="store directory (default: the default root)")
    p_gc.add_argument("--max-age-days", type=float, default=None,
                      help="drop records older than this many days")
    p_gc.add_argument("--keep", type=int, default=None,
                      help="keep at most this many newest records")
    p_gc.set_defaults(func=_cmd_gc)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... report | head`
        sys.exit(0)
