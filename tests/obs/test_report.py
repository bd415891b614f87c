"""Report tests: aggregation of Chrome-format events into summary tables."""

import pytest

from repro.obs.report import format_report, summarize_trace


def x(name, cat, dur_us, args=None, tid=0):
    return {"ph": "X", "name": name, "cat": cat, "ts": 0.0, "dur": dur_us,
            "tid": tid, "args": args or {}}


def i(name, cat="", args=None):
    return {"ph": "i", "name": name, "cat": cat, "ts": 0.0, "args": args or {}}


SYNTHETIC = [
    {"ph": "M", "name": "thread_name", "tid": 0, "args": {"name": "main"}},
    x("engine.run", "engine", 5_000_000),
    x("local", "phase", 3_000_000),
    x("local", "phase", 1_000_000),
    x("finalize", "phase", 500_000),
    x("split", "split", 1_000_000, {"thread_id": 0, "elements": 100}),
    x("split", "split", 1_000_000,
      {"thread_id": 1, "elements": 50, "outcome": "failed", "attempt": 1}),
    x("split", "split", 2_000_000,
      {"thread_id": 1, "elements": 50, "outcome": "ok", "attempt": 2}),
    x("parse", "compiler", 100_000),
    x("linearize_data", "linearize", 200_000),
    x("local_combination", "combination", 50_000),
    i("kernel_cache.hit", "cache"),
    i("kernel_cache.hit", "cache"),
    i("fault.injected", "fault"),
]


class TestSummarize:
    def test_phases_summed_in_seconds(self):
        rep = summarize_trace(SYNTHETIC)
        assert rep.phases == {"local": pytest.approx(4.0),
                              "finalize": pytest.approx(0.5)}

    def test_run_count_and_totals(self):
        rep = summarize_trace(SYNTHETIC)
        assert rep.runs == 1
        assert rep.total_spans == 10  # every X event
        assert rep.total_events == 3  # every i event

    def test_per_thread_attribution(self):
        rep = summarize_trace(SYNTHETIC)
        t0, t1 = rep.threads["thread 0"], rep.threads["thread 1"]
        assert (t0.splits, t0.attempts, t0.retries, t0.failures) == (1, 1, 0, 0)
        assert t0.elements == 100
        assert t0.busy_seconds == pytest.approx(1.0)
        # thread 1: first attempt failed, retry succeeded
        assert (t1.splits, t1.attempts, t1.retries, t1.failures) == (1, 2, 1, 1)
        assert t1.elements == 50  # only committed attempts count elements
        assert t1.busy_seconds == pytest.approx(3.0)

    def test_missing_thread_id_falls_back_to_tid(self):
        rep = summarize_trace([x("split", "split", 1, tid=9)])
        assert "tid 9" in rep.threads

    def test_compiler_and_combination_tables(self):
        rep = summarize_trace(SYNTHETIC)
        assert rep.compiler["parse"] == (1, pytest.approx(0.1))
        assert rep.compiler["linearize_data"] == (1, pytest.approx(0.2))
        assert rep.combination["local_combination"] == (1, pytest.approx(0.05))

    def test_event_tallies(self):
        rep = summarize_trace(SYNTHETIC)
        assert rep.events == {"kernel_cache.hit": 2, "fault.injected": 1}

    def test_empty_trace(self):
        rep = summarize_trace([])
        assert rep.total_spans == 0 and rep.total_events == 0
        assert rep.phases == {} and rep.threads == {}


DECISION = i(
    "technique.decision",
    "engine",
    {
        "node": 0,
        "requested": "colored",
        "chosen": "full_replication",
        "reason": "colored requires an exact plan-time group set for every "
        "split; none were available — falling back to full replication",
        "colorable": False,
        "max_wave_width": 0,
        "num_splits": 4,
        "replication_bytes": 4096,
    },
)

GATHER_OK = i(
    "batch_gather_proof",
    "compiler",
    {"site": "scale[(b + 1)]", "root": "scale", "kind": "extra",
     "index": "(b + 1)", "bounds": "[1, 6]~", "extent": "[1..6]"},
)

GATHER_NO = i(
    "batch_gather_refuted",
    "compiler",
    {"site": "table[j]", "root": "table", "kind": "extra",
     "reason": "a non-innermost index is lane-varying"},
)


class TestDecisions:
    def test_decision_args_captured_in_order(self):
        rep = summarize_trace([DECISION, DECISION])
        assert len(rep.decisions) == 2
        assert rep.decisions[0]["requested"] == "colored"
        assert rep.decisions[0]["chosen"] == "full_replication"

    def test_gather_verdicts_captured(self):
        rep = summarize_trace([GATHER_OK, GATHER_NO])
        assert [g["proven"] for g in rep.gathers] == [True, False]
        assert rep.gathers[1]["reason"] == "a non-innermost index is lane-varying"

    def test_decision_section_renders_fallback_reason(self):
        text = format_report(summarize_trace([DECISION]))
        assert "technique decisions" in text
        assert "requested 'colored' -> ran 'full_replication'" in text
        assert "falling back to full replication" in text
        assert "max_wave_width=0" in text

    def test_gather_section_renders_both_verdicts(self):
        text = format_report(summarize_trace([GATHER_OK, GATHER_NO]))
        assert "batch gather proofs" in text
        assert "scale[(b + 1)]: vectorized" in text
        assert "index (b + 1) bounded [1, 6]~ within extent [1..6]" in text
        assert "table[j]: refuted" in text
        assert "a non-innermost index is lane-varying" in text

    def test_sections_absent_without_events(self):
        text = format_report(summarize_trace(SYNTHETIC))
        assert "technique decisions" not in text
        assert "batch gather proofs" not in text


BACKEND = i(
    "kernel_backend",
    "compiler",
    {"reduction": "histogram", "opt_level": 2, "requested": "native",
     "effective": "native"},
)

CHECKED = i(
    "native_checked",
    "compiler",
    {"kernel": "histogram", "digest": "0123456789ab", "mask": 0b110,
     "sites": 3, "twin": "built"},
)


class TestNativeChecked:
    def test_checked_twins_render_with_the_backend_decisions(self):
        rep = summarize_trace([BACKEND, CHECKED])
        assert rep.checked == [CHECKED["args"]]
        text = format_report(rep)
        assert "kernel backend decisions" in text
        lines = text.splitlines()
        backend = lines.index("  histogram [opt2]: requested 'native' -> ran 'native'")
        assert lines[backend + 1] == (
            "  histogram: layout verdict 0b110 over 3 proof site(s) "
            "-> ran its checked twin 0123456789ab (built)"
        )


class TestFormat:
    def test_tables_render(self):
        text = format_report(summarize_trace(SYNTHETIC))
        assert "engine phases (cat=phase)" in text
        assert "per-thread split work" in text
        assert "compiler & linearization" in text
        assert "combination (cat=combination)" in text
        assert "kernel_cache.hit" in text
        assert "thread 1" in text

    def test_empty_report_is_one_line(self):
        text = format_report(summarize_trace([]))
        assert text == "trace: 0 spans, 0 events, 0 engine run(s)"
