"""Trace analysis: replay an exported trace into summary tables.

Consumes Chrome-format events (see :func:`repro.obs.export.load_trace`)
and produces the decomposition the paper's figures use — time per engine
phase, work per thread, compiler-stage costs — so a trace file answers
"where did the time go" without opening a trace viewer.

``python -m repro.trace report <file>`` renders :func:`format_report`.
"""

from __future__ import annotations

import textwrap
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "ThreadSummary",
    "TraceReport",
    "summarize_trace",
    "format_report",
    "format_profile_join",
]


@dataclass
class ThreadSummary:
    """Per-worker split accounting (one row of the per-thread table)."""

    label: str
    splits: int = 0  # committed/successful attempts
    attempts: int = 0  # all attempts, including retries
    retries: int = 0  # attempts beyond a split's first
    failures: int = 0  # attempts that did not succeed
    elements: int = 0
    busy_seconds: float = 0.0


@dataclass
class TraceReport:
    """Aggregated view of one trace file."""

    #: seconds per engine phase (cat == "phase"), e.g. local / finalize
    phases: dict[str, float] = field(default_factory=dict)
    #: per-thread split work (cat == "split"), keyed by worker label
    threads: dict[str, ThreadSummary] = field(default_factory=dict)
    #: seconds + call counts per compiler/linearize stage
    compiler: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: seconds + counts per combination span
    combination: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: instant-event tallies by name
    events: dict[str, int] = field(default_factory=dict)
    #: ``technique.decision`` event args in trace order — one record per
    #: run where the engine had to decide (``auto``) or degrade a request
    #: (``colored`` without exact group bounds); carries requested/chosen,
    #: the reason, and every heuristic input
    decisions: list[dict[str, Any]] = field(default_factory=list)
    #: ``batch_gather_proof`` / ``batch_gather_refuted`` event args — the
    #: batch backend's verdict per lane-varying access-site index
    gathers: list[dict[str, Any]] = field(default_factory=list)
    #: ``kernel_backend`` event args in trace order — one record per
    #: compiled kernel with the requested vs. effective backend tier
    #: (native/batch/scalar) and the recorded fallback reason, if any
    backends: list[dict[str, Any]] = field(default_factory=list)
    #: ``native_cache.hit`` / ``native_cache.miss`` event args — one per
    #: native compile request, distinguishing a disk-cache dlopen from a
    #: fresh toolchain invocation
    native_cache: list[dict[str, Any]] = field(default_factory=list)
    #: ``native_checked`` event args — one per layout whose proof verdict is
    #: not full, so a native kernel ran its checked twin there
    checked: list[dict[str, Any]] = field(default_factory=list)
    #: one record per ``delta.apply`` span (cat == "delta"): the epoch,
    #: Δ sizes, replay scope, checkpoint counters, rollback flag and
    #: seconds — incremental runs render as their own table so a reader
    #: can tell an O(|Δ|) pass from a full reduction at a glance
    deltas: list[dict[str, Any]] = field(default_factory=list)
    #: engine.run span count (= reduction passes in the trace)
    runs: int = 0
    #: one record per ``engine.run`` span: its args (spec, executor,
    #: technique, program ``digest``) plus ``seconds`` — the join key for
    #: comparing a trace against persisted profile-store history
    run_spans: list[dict[str, Any]] = field(default_factory=list)
    total_spans: int = 0
    total_events: int = 0


def _thread_label(ev: dict[str, Any]) -> str:
    args = ev.get("args") or {}
    if "thread_id" in args:
        return f"thread {args['thread_id']}"
    return f"tid {ev.get('tid', '?')}"


def summarize_trace(events: Iterable[dict[str, Any]]) -> TraceReport:
    """Aggregate Chrome-format events (µs timestamps) into a report."""
    report = TraceReport()
    tallies: TallyCounter[str] = TallyCounter()
    for ev in events:
        ph = ev.get("ph")
        if ph == "i":
            report.total_events += 1
            name = str(ev.get("name", ""))
            tallies[name] += 1
            if name == "technique.decision":
                report.decisions.append(dict(ev.get("args") or {}))
            elif name in ("batch_gather_proof", "batch_gather_refuted"):
                rec = dict(ev.get("args") or {})
                rec["proven"] = name == "batch_gather_proof"
                report.gathers.append(rec)
            elif name == "kernel_backend":
                report.backends.append(dict(ev.get("args") or {}))
            elif name in ("native_cache.hit", "native_cache.miss"):
                rec = dict(ev.get("args") or {})
                rec["hit"] = name == "native_cache.hit"
                report.native_cache.append(rec)
            elif name == "native_checked":
                report.checked.append(dict(ev.get("args") or {}))
            continue
        if ph != "X":
            continue
        report.total_spans += 1
        name = str(ev.get("name", ""))
        cat = str(ev.get("cat", ""))
        dur_s = float(ev.get("dur", 0.0)) / 1e6
        if cat == "phase":
            report.phases[name] = report.phases.get(name, 0.0) + dur_s
        elif cat == "split":
            args = ev.get("args") or {}
            t = report.threads.setdefault(
                _thread_label(ev), ThreadSummary(label=_thread_label(ev))
            )
            t.attempts += 1
            t.busy_seconds += dur_s
            outcome = args.get("outcome", "ok")
            if outcome == "ok":
                t.splits += 1
                t.elements += int(args.get("elements", 0))
            else:
                t.failures += 1
            if int(args.get("attempt", 1)) > 1:
                t.retries += 1
        elif cat in ("compiler", "linearize", "cache"):
            count, secs = report.compiler.get(name, (0, 0.0))
            report.compiler[name] = (count + 1, secs + dur_s)
        elif cat == "combination":
            count, secs = report.combination.get(name, (0, 0.0))
            report.combination[name] = (count + 1, secs + dur_s)
        elif cat == "delta" and name == "delta.apply":
            rec = dict(ev.get("args") or {})
            rec["seconds"] = dur_s
            report.deltas.append(rec)
        elif cat == "engine" and name == "engine.run":
            report.runs += 1
            rec = dict(ev.get("args") or {})
            rec["seconds"] = dur_s
            report.run_spans.append(rec)
    report.events = dict(sorted(tallies.items()))
    return report


def _fmt_seconds(s: float) -> str:
    return f"{s:.6f}"


def format_report(report: TraceReport) -> str:
    """Render the per-phase / per-thread / compiler tables as text."""
    lines: list[str] = []
    lines.append(
        f"trace: {report.total_spans} spans, {report.total_events} events, "
        f"{report.runs} engine run(s)"
    )

    if report.phases:
        lines.append("")
        lines.append("engine phases (cat=phase)")
        lines.append(f"  {'phase':<24} {'seconds':>12}")
        total = 0.0
        for name, secs in sorted(report.phases.items()):
            lines.append(f"  {name:<24} {_fmt_seconds(secs):>12}")
            total += secs
        lines.append(f"  {'total':<24} {_fmt_seconds(total):>12}")

    if report.threads:
        lines.append("")
        lines.append("per-thread split work (cat=split)")
        header = (
            f"  {'worker':<12} {'splits':>7} {'attempts':>9} {'retries':>8} "
            f"{'failed':>7} {'elements':>10} {'busy_s':>12}"
        )
        lines.append(header)
        for label in sorted(report.threads):
            t = report.threads[label]
            lines.append(
                f"  {label:<12} {t.splits:>7} {t.attempts:>9} {t.retries:>8} "
                f"{t.failures:>7} {t.elements:>10} {_fmt_seconds(t.busy_seconds):>12}"
            )

    if report.compiler:
        lines.append("")
        lines.append("compiler & linearization (cat=compiler|linearize|cache)")
        lines.append(f"  {'stage':<24} {'calls':>7} {'seconds':>12}")
        for name, (count, secs) in sorted(report.compiler.items()):
            lines.append(f"  {name:<24} {count:>7} {_fmt_seconds(secs):>12}")

    if report.combination:
        lines.append("")
        lines.append("combination (cat=combination)")
        lines.append(f"  {'span':<24} {'count':>7} {'seconds':>12}")
        for name, (count, secs) in sorted(report.combination.items()):
            lines.append(f"  {name:<24} {count:>7} {_fmt_seconds(secs):>12}")

    if report.deltas:
        lines.append("")
        lines.append("incremental delta runs (cat=delta)")
        header = (
            f"  {'epoch':>5} {'+elems':>8} {'-elems':>8} {'replayed':>9} "
            f"{'re-elems':>9} {'cp saves':>9} {'seconds':>12}"
        )
        lines.append(header)
        for d in report.deltas:
            rolled = bool(d.get("rolled_back"))
            lines.append(
                f"  {d.get('epoch', '?'):>5} {d.get('appended', 0):>8} "
                f"{d.get('retracted', 0):>8} {d.get('groups_replayed', 0):>9} "
                f"{d.get('replay_elements', 0):>9} "
                f"{d.get('checkpoint_saves', 0):>9} "
                f"{_fmt_seconds(d.get('seconds', 0.0)):>12}"
                + ("  ROLLED BACK" if rolled else "")
            )
            if d.get("epochs_retained") is not None:
                lines.append(
                    f"        checkpoint ring retains "
                    f"{d['epochs_retained']} epoch(s)"
                )

    if report.decisions:
        lines.append("")
        lines.append("technique decisions (event=technique.decision)")
        for d in report.decisions:
            lines.append(
                f"  requested {d.get('requested', '?')!r}"
                f" -> ran {d.get('chosen', '?')!r}"
            )
            inputs = [
                f"{key}={d[key]}"
                for key in (
                    "colorable",
                    "max_wave_width",
                    "num_splits",
                    "replication_bytes",
                )
                if d.get(key) is not None
            ]
            if inputs:
                lines.append(f"    inputs: {', '.join(inputs)}")
            for wrapped in textwrap.wrap(str(d.get("reason", "")), width=66):
                lines.append(f"    {wrapped}")

    if report.gathers:
        lines.append("")
        lines.append("batch gather proofs (event=batch_gather_proof|_refuted)")
        for g in report.gathers:
            verdict = "vectorized" if g.get("proven") else "refuted"
            lines.append(f"  {g.get('site', '?')}: {verdict}")
            if g.get("proven"):
                detail = f"    index {g.get('index')} bounded {g.get('bounds')}"
                if g.get("extent") is not None:
                    detail += f" within extent {g.get('extent')}"
                lines.append(detail)
            else:
                for wrapped in textwrap.wrap(str(g.get("reason", "")), width=66):
                    lines.append(f"    {wrapped}")

    if report.backends or report.checked:
        lines.append("")
        lines.append("kernel backend decisions (event=kernel_backend|native_checked)")
        # the last native_cache verdict per (reduction, opt_level) tells a
        # reader whether the native tier compiled or attached from disk
        cache_by_key: dict[tuple[Any, Any], str] = {}
        for c in report.native_cache:
            cache_by_key[(c.get("reduction"), c.get("opt_level"))] = (
                "disk-cache hit" if c.get("hit") else "compiled"
            )
        for b in report.backends:
            requested = b.get("requested", "?")
            effective = b.get("effective", "?")
            line = (
                f"  {b.get('reduction', '?')} [opt{b.get('opt_level', '?')}]: "
                f"requested {requested!r} -> ran {effective!r}"
            )
            if effective == "native":
                verdict = cache_by_key.get(
                    (b.get("reduction"), b.get("opt_level"))
                )
                if verdict:
                    line += f" ({verdict})"
            lines.append(line)
            if b.get("reason"):
                for wrapped in textwrap.wrap(str(b["reason"]), width=66):
                    lines.append(f"    {wrapped}")
        for c in report.checked:
            mask = c.get("mask")
            lines.append(
                f"  {c.get('kernel', '?')}: layout verdict "
                f"{format(mask, '#b') if isinstance(mask, int) else '?'} "
                f"over {c.get('sites', '?')} proof site(s) "
                f"-> ran its checked twin {c.get('digest', '?')} "
                f"({c.get('twin', '?')})"
            )

    if report.events:
        lines.append("")
        lines.append("events")
        for name, count in report.events.items():
            lines.append(f"  {name:<32} {count:>7}")

    return "\n".join(lines)


def format_profile_join(report: TraceReport, store: Any, last: int = 10) -> str:
    """Join a trace's ``engine.run`` spans against profile-store history.

    ``store`` is a :class:`repro.obs.profilestore.ProfileStore`.  Each run
    span carrying a program ``digest`` is compared against the median wall
    time of the last ``last`` persisted records of the same digest — "this
    run vs what this program usually costs on this machine".
    """
    lines: list[str] = [f"profile-store comparison (store: {store.root})"]
    if not report.run_spans:
        lines.append("  trace holds no engine.run spans")
        return "\n".join(lines)
    for rec in report.run_spans:
        spec = rec.get("spec", "?")
        digest = rec.get("digest")
        seconds = rec.get("seconds", 0.0)
        if not digest:
            lines.append(
                f"  {spec}: {seconds:.6f}s — no program digest in the trace "
                "(hand-written spec?); cannot join against history"
            )
            continue
        history = [
            r for r in store.load(digest=digest, last=last)
            if isinstance(r.get("wall_seconds"), (int, float))
        ]
        label = f"{spec} [{digest[:12]}]"
        if not history:
            lines.append(
                f"  {label}: {seconds:.6f}s — no persisted history for this "
                "program"
            )
            continue
        walls = sorted(r["wall_seconds"] for r in history)
        mid = len(walls) // 2
        median = (
            walls[mid]
            if len(walls) % 2
            else (walls[mid - 1] + walls[mid]) / 2.0
        )
        delta = (seconds - median) / median * 100.0 if median > 0 else 0.0
        lines.append(
            f"  {label}: this run {seconds:.6f}s vs median "
            f"{median:.6f}s of last {len(history)} -> {delta:+.1f}%"
        )
        latest = history[-1]
        coloring = latest.get("coloring") or {}
        detail = (
            f"    latest record: technique {latest.get('technique_effective', '?')}"
        )
        if coloring.get("max_wave_width") is not None:
            detail += f", max wave width {coloring['max_wave_width']}"
        lines.append(detail)
    return "\n".join(lines)
