"""Tests for figure specs, runners, shape checks and the report registry."""

import dataclasses
from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import FIGURES, run_figure, shape_checks
from repro.bench.report import format_checks, format_figure, format_speedups, full_report
from repro.bench.reports import REPORT_IDS, REPORTS, run_report
from repro.util.errors import BenchmarkError

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


class TestSpecs:
    def test_all_five_figures_defined(self):
        assert set(FIGURES) == {"fig9", "fig10", "fig11", "fig12", "fig13"}

    def test_paper_parameters(self):
        assert FIGURES["fig9"].config.k == 100
        assert FIGURES["fig9"].iterations == 10
        assert FIGURES["fig10"].config.k == 10
        assert FIGURES["fig11"].iterations == 1
        assert FIGURES["fig12"].config.rows == 1000
        assert FIGURES["fig13"].config.cols == 100_000

    def test_pca_figures_compare_two_versions(self):
        assert FIGURES["fig12"].versions == ("opt-2", "manual")
        assert FIGURES["fig13"].versions == ("opt-2", "manual")

    def test_kmeans_figures_compare_four_versions(self):
        assert len(FIGURES["fig9"].versions) == 4


class TestRunFigure:
    @pytest.fixture(scope="class")
    def fig12(self):
        # PCA figures are cheap to regenerate (profiles fit from small m)
        return run_figure("fig12")

    def test_structure(self, fig12):
        assert set(fig12.sweeps) == {"opt-2", "manual"}
        for sweep in fig12.sweeps.values():
            assert set(sweep.seconds) == {1, 2, 4, 8}
            assert all(s > 0 for s in sweep.seconds.values())

    def test_times_decrease_with_threads(self, fig12):
        for sweep in fig12.sweeps.values():
            times = [sweep.seconds[p] for p in (1, 2, 4, 8)]
            assert times == sorted(times, reverse=True)

    def test_shape_checks_pass(self, fig12):
        assert all(shape_checks(fig12).values())

    def test_ratio_helper(self, fig12):
        r = fig12.ratio("opt-2", "manual", 1)
        assert r == fig12.seconds("opt-2", 1) / fig12.seconds("manual", 1)

    def test_unknown_figure(self):
        with pytest.raises(BenchmarkError):
            run_figure("fig99")

    def test_scale_shrinks_problem(self):
        full = run_figure("fig12")
        tiny = run_figure("fig12", scale=0.01)
        assert tiny.seconds("manual", 1) < full.seconds("manual", 1)


class TestReport:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure("fig12")

    def test_format_figure_contains_series(self, result):
        text = format_figure(result)
        assert "FIG12" in text
        assert "opt-2" in text and "manual" in text
        for p in (1, 2, 4, 8):
            assert f"\n{p:>7}" in text

    def test_format_speedups(self, result):
        text = format_speedups(result)
        assert "1.00x" in text

    def test_format_checks_all_pass(self, result):
        text = format_checks(result)
        assert "FAIL" not in text
        assert "PASS" in text

    def test_full_report_composes(self, result):
        text = full_report(result)
        assert "shape checks" in text and "speedup" in text


class TestKmeansFigureShapes:
    """End-to-end shape validation for a k-means figure (Figure 9).

    Slower than the PCA cases (profiles are measured at k=100 through the
    interpreted kernels), so it runs once per class here; ``TestReports``
    regenerates all five figures.
    """

    @pytest.fixture(scope="class")
    def fig9(self):
        return run_figure("fig9")

    def test_all_shape_checks_pass(self, fig9):
        checks = shape_checks(fig9)
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, failed

    def test_paper_ratios(self, fig9):
        assert 1.03 <= fig9.ratio("generated", "opt-1") <= 1.25
        assert 5.0 <= fig9.ratio("opt-1", "opt-2") <= 11.0
        assert fig9.ratio("opt-2", "manual") <= 1.20

    def test_linearization_only_in_compiled_versions(self, fig9):
        assert fig9.sweeps["manual"].phase_seconds(1, "linearization") == 0.0
        assert fig9.sweeps["opt-2"].phase_seconds(1, "linearization") > 0.0


class TestBreakdownReport:
    def test_phase_breakdown_shows_linearization_amdahl(self):
        from repro.bench.report import format_breakdown

        result = run_figure("fig12")
        text = format_breakdown(result, "opt-2")
        assert "linearization" in text
        assert "local reduction" in text
        # the sequential linearization row is thread-invariant
        lin = [
            result.sweeps["opt-2"].phase_seconds(p, "linearization")
            for p in result.thread_counts
        ]
        assert max(lin) == pytest.approx(min(lin))


class TestReports:
    """Every table EXPERIMENTS.md records regenerates and holds its claims."""

    @pytest.mark.parametrize("report_id", REPORT_IDS)
    def test_report_regenerates_and_passes_its_checks(self, report_id):
        text, checks = run_report(report_id)
        assert text.strip()
        assert checks
        failed = [name for name, ok in checks.items() if not ok]
        assert not failed, f"{report_id}: {failed}"

    def test_ids_are_the_results_files(self):
        assert sorted(REPORT_IDS) == sorted(p.stem for p in RESULTS.glob("*.txt"))

    def test_unknown_report(self):
        with pytest.raises(BenchmarkError):
            run_report("fig99")


class TestCli:
    def test_module_cli_runs_and_writes(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.bench", "fig12",
                "--threads", "1,8", "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "FIG12" in proc.stdout
        assert "shape checks" in (tmp_path / "fig12.txt").read_text()

    def test_cli_rejects_bad_figure(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "Traceback" not in err

    @pytest.mark.parametrize("threads", ["1,x", "0", "2,4"])
    def test_cli_rejects_malformed_threads(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["fig12", "--threads", threads])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "Traceback" not in err

    def test_cli_exits_1_when_a_check_fails(self, monkeypatch, capsys):
        report = REPORTS["ablation_dynamic_vs_static"]
        monkeypatch.setitem(
            REPORTS,
            "ablation_dynamic_vs_static",
            dataclasses.replace(report, checks=lambda result: {"forced": False}),
        )
        assert main(["ablation_dynamic_vs_static", "ablation_cluster"]) == 1
        out, err = capsys.readouterr()
        assert "ABLATION D " in out  # the reports after a failure still run
        assert "ablation_dynamic_vs_static: forced" in err

    def test_cli_exits_0_when_every_check_passes(self, tmp_path, capsys):
        assert main(["ablation_global_combine", "--out", str(tmp_path)]) == 0
        assert "2 of 2 checks pass" in capsys.readouterr().out
        written = (tmp_path / "ablation_global_combine.txt").read_text()
        assert written == (RESULTS / "ablation_global_combine.txt").read_text()
