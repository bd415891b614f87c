"""Compare two result files: one row per workload x end-to-end metric.

Each side of a row is the samples one run took of that metric (rounds for
the passes, cold starts for ``setup_s``, one reading for ``peak_rss_mb``).
What can be said about a median depends on how well the samples pin it
down, so the rule works on each side's four-in-five interval for its
median (the order statistics around the middle), not on the raw scatter of
rounds:

* *unresolved* — an interval is wider than the metric's bound (the run
  cannot tell a change of that size from noise), unless the two intervals
  are disjoint and every sample of one side beats every sample of the other;
* *regressed* — the change's median is worse than the base's by more than
  the bound;
* *improved* — the change's interval lies wholly below the base's;
* *unchanged* — anything else.

Every end-to-end metric is lower-is-better.
"""

from __future__ import annotations

import math
import statistics
from typing import Any

from metrics import END_TO_END, WORKLOADS


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def median_interval(samples: list[float]) -> tuple[float, float]:
    """An 80 % interval for the median, from the order statistics around it."""
    ordered = sorted(samples)
    n = len(ordered)
    reach = 0.64 * math.sqrt(n)  # 1.28 standard deviations of Binomial(n, 1/2)
    lo = max(0, math.floor(n / 2 - reach))
    hi = min(n - 1, math.ceil(n / 2 + reach) - 1)
    return ordered[lo], ordered[hi]


def verdict(base: list[float], change: list[float], bound: float) -> dict[str, Any]:
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_lo, b_hi = median_interval(base)
    c_lo, c_hi = median_interval(change)
    ratio = c_med / b_med
    spread = max((b_hi - b_lo) / b_med, (c_hi - c_lo) / c_med)
    if spread > bound:
        if max(change) < min(base):
            word = "improved"
        elif min(change) > max(base) and ratio > 1.0 + bound:
            word = "regressed"
        else:
            word = "unresolved"
    elif ratio > 1.0 + bound:
        word = "regressed"
    elif c_hi < b_lo and (len(base) > 1 or ratio < 1.0 - bound):
        # a single reading has no interval: only a gain beyond the bound counts
        word = "improved"
    else:
        word = "unchanged"
    return {
        "base": quartiles(base), "change": quartiles(change),
        "ratio": ratio, "spread": spread, "verdict": word,
    }


def compare(base: dict[str, Any], change: dict[str, Any]) -> list[dict[str, Any]]:
    """Rows for every workload x end-to-end metric both files hold."""
    rows = []
    for workload in WORKLOADS:
        a = base["workloads"].get(workload)
        b = change["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in END_TO_END:
            row = verdict(
                a["metrics"][metric.name]["samples"],
                b["metrics"][metric.name]["samples"],
                metric.bound,
            )
            row.update(workload=workload, metric=metric.name, unit=metric.unit,
                       bound=metric.bound)
            rows.append(row)
        shares = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "share",
            "bound": 0.0, "base": (shares[0],) * 3, "change": (shares[1],) * 3,
            "ratio": float("nan"), "spread": 0.0,
            "verdict": "regressed" if shares[1] > shares[0] else "unchanged",
        })
    return rows


def format_rows(rows: list[dict[str, Any]]) -> str:
    def q(t: tuple[float, float, float]) -> str:
        return "/".join(f"{v:.4g}" for v in t)

    lines = [
        f"{'workload':<17} {'metric':<15} {'base q1/med/q3':>26} "
        f"{'change q1/med/q3':>26} {'change/base':>11} {'spread':>7}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<17} {r['metric']:<15} {q(r['base']):>26} "
            f"{q(r['change']):>26} {r['ratio']:>11.4f} {r['spread']:>7.3f}  "
            f"{r['verdict']} (bound {r['bound']:.2f}, {r['unit']})"
        )
    return "\n".join(lines)
