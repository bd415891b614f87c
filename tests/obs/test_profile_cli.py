"""``python -m repro.profile`` CLI tests: report, diff exit codes, gc."""

import pytest

from repro.obs.profilestore import ProfileStore, RunProfile
from repro.profile import DIFF_INVALID, DIFF_OK, DIFF_REGRESSION, diff_stores, main


def _record(store: ProfileStore, wall: float, **kw) -> None:
    base = dict(
        digest="f" * 64,
        spec_name="histogram-opt-2",
        shape_class="n4096/t4",
        technique_requested="auto",
        technique_effective="colored",
        wall_seconds=wall,
        decision={"chosen": "colored", "reason": "x"},
        coloring={"max_wave_width": 4, "source": "compiler"},
    )
    base.update(kw)
    store.append(RunProfile(**base))


class TestReport:
    def test_report_renders_history(self, tmp_path, capsys):
        store = ProfileStore(tmp_path)
        _record(store, 0.5)
        _record(store, 0.7)
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "records: 2" in out
        assert "f" * 12 in out
        assert "colored" in out

    def test_report_empty_store_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == DIFF_INVALID
        assert "no records" in capsys.readouterr().err

    def test_report_uses_env_default_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROFILE_STORE", str(tmp_path))
        _record(ProfileStore(tmp_path), 0.4)
        assert main(["report"]) == 0
        assert "records: 1" in capsys.readouterr().out


class TestDiff:
    def test_identical_snapshots_exit_0(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            _record(ProfileStore(root), 0.5)
        assert main(["diff", str(a), str(b)]) == DIFF_OK
        assert "no regression" in capsys.readouterr().out

    def test_injected_slowdown_exits_1(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _record(ProfileStore(a), 0.5)
        _record(ProfileStore(b), 1.5)  # 3x slowdown
        assert main(["diff", str(a), str(b)]) == DIFF_REGRESSION
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "3.00x" in captured.out
        assert "regression" in captured.err

    def test_threshold_is_respected(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _record(ProfileStore(a), 0.5)
        _record(ProfileStore(b), 0.7)  # 1.4x
        assert main(["diff", str(a), str(b), "--threshold", "1.5"]) == DIFF_OK
        assert (
            main(["diff", str(a), str(b), "--threshold", "1.2"])
            == DIFF_REGRESSION
        )

    def test_missing_store_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a"
        _record(ProfileStore(a), 0.5)
        assert main(["diff", str(a), str(tmp_path / "nope")]) == DIFF_INVALID
        assert "not a profile store" in capsys.readouterr().err

    def test_disjoint_keys_exit_2(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _record(ProfileStore(a), 0.5, digest="a" * 64)
        _record(ProfileStore(b), 0.5, digest="b" * 64)
        assert main(["diff", str(a), str(b)]) == DIFF_INVALID
        assert "no comparable records" in capsys.readouterr().err

    def test_diff_uses_median_not_mean(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        sa, sb = ProfileStore(a), ProfileStore(b)
        # one 100x outlier must not drag the baseline median up
        for wall in (0.5, 0.5, 50.0):
            _record(sa, wall)
        _record(sb, 1.5)
        code, rows = diff_stores(sa, sb, threshold=1.25)
        assert code == DIFF_REGRESSION
        (row,) = rows
        assert row["base_median"] == pytest.approx(0.5)
        assert row["ratio"] == pytest.approx(3.0)


class TestGc:
    def test_gc_keep(self, tmp_path, capsys):
        store = ProfileStore(tmp_path)
        for i in range(5):
            _record(store, 0.5, ts=float(i + 1))
        assert main(["gc", str(tmp_path), "--keep", "2"]) == 0
        assert "kept 2" in capsys.readouterr().out
        assert len(ProfileStore(tmp_path).load()) == 2

    def test_gc_without_criteria_exits_2(self, tmp_path, capsys):
        assert main(["gc", str(tmp_path)]) == DIFF_INVALID
        assert "--max-age-days" in capsys.readouterr().err
