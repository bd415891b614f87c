"""Formatting for figure reproductions: the series the paper plots."""

from __future__ import annotations

from repro.bench.figures import FigureResult, shape_checks

__all__ = [
    "format_figure",
    "format_speedups",
    "format_breakdown",
    "format_checks",
    "full_report",
]


def format_figure(result: FigureResult) -> str:
    """A table of simulated execution times, one row per thread count."""
    spec = result.spec
    versions = list(spec.versions)
    lines = [
        f"{spec.fig_id.upper()} — {spec.title} (simulated seconds, "
        f"{spec.iterations} iteration(s), n={spec.n_elements:,} elements)",
        _row(["threads"] + versions),
        _row(["-" * 7] + ["-" * 12] * len(versions)),
    ]
    for p in result.thread_counts:
        cells = [str(p)] + [f"{result.seconds(v, p):.3f}" for v in versions]
        lines.append(_row(cells))
    return "\n".join(lines)


def _row(cells: list[str]) -> str:
    first, rest = cells[0], cells[1:]
    return f"{first:>7}  " + "  ".join(f"{c:>12}" for c in rest)


def format_speedups(result: FigureResult) -> str:
    """Speedup-vs-1-thread table (the scalability the paper discusses)."""
    versions = list(result.spec.versions)
    lines = [
        "speedup vs 1 thread",
        _row(["threads"] + versions),
    ]
    for p in result.thread_counts:
        cells = [str(p)] + [
            f"{result.sweeps[v].speedup(p):.2f}x" for v in versions
        ]
        lines.append(_row(cells))
    return "\n".join(lines)


def format_checks(result: FigureResult) -> str:
    """The paper's qualitative claims, evaluated."""
    checks = shape_checks(result)
    width = max(len(k) for k in checks)
    lines = ["shape checks (paper §V claims):"]
    for name, ok in checks.items():
        lines.append(f"  {name:<{width}}  {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines)


def format_breakdown(result: FigureResult, version: str) -> str:
    """Per-phase seconds for one version — where the time actually goes.

    This is the view that explains the paper's §V observations: watch the
    sequential ``linearization`` row stay constant while ``local reduction``
    shrinks with threads.
    """
    sweep = result.sweeps[version]
    phase_names: list[str] = []
    for p in result.thread_counts:
        for pr in sweep.reports[p].phases:
            if pr.name not in phase_names:
                phase_names.append(pr.name)
    lines = [f"phase breakdown — {version} (seconds)"]
    lines.append(_row(["threads"] + phase_names))
    for p in result.thread_counts:
        cells = [str(p)] + [
            f"{sweep.reports[p].phase_seconds(name):.3f}" for name in phase_names
        ]
        lines.append(_row(cells))
    return "\n".join(lines)


def full_report(result: FigureResult) -> str:
    """Times + speedups + opt-2 breakdown + checks for one figure."""
    parts = [format_figure(result), format_speedups(result)]
    if "opt-2" in result.sweeps:
        parts.append(format_breakdown(result, "opt-2"))
    parts.append(format_checks(result))
    return "\n\n".join(parts)
