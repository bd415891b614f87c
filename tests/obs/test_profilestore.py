"""Profile-store tests: round trips, concurrency, corruption, gc, and the
records engine runs append — which never change what a run plans or
computes."""

import json
import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest

from repro.apps.histogram import HistogramRunner
from repro.obs import tracing
from repro.obs.profilestore import (
    PROFILE_SCHEMA_VERSION,
    ProfileStore,
    RunProfile,
    default_store_root,
    resolve_store,
    shape_class,
    split_layout_fingerprint,
    summarize_durations,
)
from repro.profile import main as profile_main


def _profile(**kw) -> RunProfile:
    base = dict(
        digest="d" * 64,
        spec_name="histogram-opt-2",
        shape_class="n4096/t4",
        split_fingerprint="abcd",
        technique_requested="auto",
        technique_effective="full_replication",
        wall_seconds=0.5,
    )
    base.update(kw)
    return RunProfile(**base)


class TestKeys:
    def test_shape_class_buckets_to_power_of_two(self):
        assert shape_class(4096, 4) == "n4096/t4"
        assert shape_class(4095, 4) == "n4096/t4"
        assert shape_class(4097, 2) == "n8192/t2"
        assert shape_class(1, 1) == "n1/t1"

    def test_split_fingerprint_is_layout_sensitive(self):
        a = split_layout_fingerprint([(0, 10), (10, 20)])
        b = split_layout_fingerprint([(0, 10), (10, 20)])
        c = split_layout_fingerprint([(0, 20)])
        assert a == b != c

    def test_summarize_durations(self):
        s = summarize_durations([0.1, 0.3, 0.2])
        assert s["count"] == 3
        assert s["max"] == pytest.approx(0.3)
        assert s["mean"] == pytest.approx(0.2)
        assert summarize_durations([]) is None


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.append(_profile())
        store.append(_profile(technique_effective="colored"))
        recs = store.load()
        assert len(recs) == 2
        assert recs[0]["digest"] == "d" * 64
        assert recs[1]["technique_effective"] == "colored"
        assert recs[0]["ts"] > 0  # stamped on append
        assert store.skipped_lines == 0

    def test_load_filters_by_digest_shape_and_last(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.append(_profile(digest="a" * 64))
        store.append(_profile(digest="b" * 64))
        store.append(_profile(digest="b" * 64, shape_class="n64/t1"))
        assert len(store.load(digest="b" * 64)) == 2
        assert len(store.load(digest="b" * 64, shape="n64/t1")) == 1
        assert len(store.load(last=1)) == 1

    def test_env_override_selects_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_STORE", str(tmp_path / "custom"))
        assert default_store_root() == tmp_path / "custom"
        store = ProfileStore()
        store.append(_profile())
        assert (tmp_path / "custom").is_dir()
        assert len(ProfileStore(tmp_path / "custom").load()) == 1


class TestResolveStore:
    def test_none_and_false_disable(self):
        assert resolve_store(None) is None
        assert resolve_store(False) is None

    def test_path_and_instance(self, tmp_path):
        s = resolve_store(str(tmp_path))
        assert isinstance(s, ProfileStore) and s.root == tmp_path
        assert resolve_store(s) is s

    def test_true_uses_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_STORE", str(tmp_path))
        assert resolve_store(True).root == tmp_path

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_store(42)


def _append_batch(root: str, tag: str, n: int) -> None:
    store = ProfileStore(root)
    for i in range(n):
        store.append(_profile(spec_name=f"{tag}-{i}"))
    store.close()


class TestConcurrency:
    def test_concurrent_thread_appends_never_interleave(self, tmp_path):
        store = ProfileStore(tmp_path)
        n_threads, per_thread = 8, 25
        threads = [
            threading.Thread(
                target=lambda t=t: [
                    store.append(_profile(spec_name=f"t{t}-{i}"))
                    for i in range(per_thread)
                ]
            )
            for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        recs = store.load()
        assert len(recs) == n_threads * per_thread
        assert store.skipped_lines == 0  # no torn lines
        names = {r["spec_name"] for r in recs}
        assert len(names) == n_threads * per_thread

    def test_spawned_process_appends_its_own_segment(self, tmp_path):
        # a child process must open its own segment, never the parent's
        parent = ProfileStore(tmp_path)
        parent.append(_profile(spec_name="parent"))
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(
            target=_append_batch, args=(str(tmp_path), "child", 5)
        )
        proc.start()
        proc.join(60)
        assert proc.exitcode == 0
        recs = parent.load()
        assert len(recs) == 6
        assert parent.skipped_lines == 0
        assert len(parent.segments()) == 2  # one segment per pid


class TestCorruption:
    def test_partial_trailing_line_skipped_with_warning(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.append(_profile(spec_name="good-1"))
        store.append(_profile(spec_name="good-2"))
        seg = store.segment_path()
        # simulate a writer killed mid-append: truncated final record
        with open(seg, "ab") as fh:
            fh.write(b'{"schema":1,"digest":"trunc')
        with pytest.warns(RuntimeWarning, match="skipped 1 partial"):
            recs = store.load()
        assert [r["spec_name"] for r in recs] == ["good-1", "good-2"]
        assert store.skipped_lines == 1

    def test_non_object_line_counts_as_corrupt(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.append(_profile())
        with open(store.segment_path(), "ab") as fh:
            fh.write(b"[1,2,3]\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recs = store.load()
        assert len(recs) == 1
        assert store.skipped_lines == 1


class TestGc:
    def test_gc_by_keep_compacts(self, tmp_path):
        store = ProfileStore(tmp_path)
        for i in range(10):
            store.append(_profile(ts=float(i + 1), spec_name=f"r{i}"))
        kept, dropped = store.gc(keep=3)
        assert (kept, dropped) == (3, 7)
        recs = store.load()
        assert [r["spec_name"] for r in recs] == ["r7", "r8", "r9"]
        # old per-pid segment replaced by the compacted one
        assert all("gc" in s.name for s in store.segments())

    def test_gc_by_age(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.append(_profile(ts=1.0, spec_name="ancient"))
        store.append(_profile(spec_name="fresh"))  # stamped with now
        kept, dropped = store.gc(max_age_days=1.0)
        assert (kept, dropped) == (1, 1)
        assert store.load()[0]["spec_name"] == "fresh"

    def test_gc_everything_leaves_empty_store(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.append(_profile())
        kept, dropped = store.gc(keep=0)
        assert (kept, dropped) == (0, 1)
        assert store.load() == []
        assert store.segments() == []


class TestProfileLine:
    def test_to_line_is_one_json_object(self):
        line = _profile(phase_seconds={"local": 0.25}).to_line()
        assert line.endswith("\n") and line.count("\n") == 1
        rec = json.loads(line)
        assert rec["phase_seconds"] == {"local": 0.25}
        assert rec["schema"] == 1


class TestOlderRecords:
    """A record keeps loading after a field leaves :class:`RunProfile`:
    readers are schema-blind, so the schema version does not move."""

    #: a schema-1 record as written while the engine still stamped
    #: ``num_nodes``, observed footprints, a decision source and a
    #: histogram's lock contention (one line
    #: of a segment file, keys in writer order)
    OLD_RECORD = {
        "schema": 1, "ts": 1700000000.0, "digest": "e" * 64,
        "spec_name": "histogram-opt-2", "shape_class": "n4096/t2",
        "split_fingerprint": "abcd", "opt_level": None, "backend": None,
        "effective_backend": None, "executor": "serial", "workers": 2,
        "num_nodes": 1, "n_elements": 4000, "num_splits": 2,
        "split_alignment": None, "technique_requested": "auto",
        "technique_effective": "colored",
        "decision": {"chosen": "colored", "reason": "x", "source": "profile"},
        "coloring": None, "wall_seconds": 0.25, "phase_seconds": {},
        "split_seconds": None, "lock_acquisitions": 0,
        "lock_contention_mean": None, "native_cache": None, "faults": {},
        "footprints": [[0, 2000, [0, 1]], [2000, 4000, [2]]],
    }

    def test_a_num_nodes_record_still_loads_and_reports(self, tmp_path, capsys):
        assert PROFILE_SCHEMA_VERSION == 1
        gone = {"num_nodes", "footprints", "lock_contention_mean"}
        assert not gone & set(RunProfile.__dataclass_fields__)
        (tmp_path / "segment-old-1.jsonl").write_text(
            json.dumps(self.OLD_RECORD, separators=(",", ":")) + "\n"
        )
        store = ProfileStore(tmp_path)
        (rec,) = store.load(digest="e" * 64, shape="n4096/t2")
        assert rec["num_nodes"] == 1 and rec["technique_effective"] == "colored"
        assert rec["footprints"] == self.OLD_RECORD["footprints"]
        assert rec["decision"]["source"] == "profile"
        assert store.skipped_lines == 0
        assert profile_main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "records: 1" in out and "e" * 12 in out


# -- what engine runs record ---------------------------------------------------

BINS = 64
N = 4096


def _sorted_data() -> np.ndarray:
    # sorted integer-valued doubles: contiguous splits hit disjoint bin
    # ranges, and every sum is exact in float64
    return np.sort(((np.arange(N) * 7919) % 256).astype(np.float64))


def _runner(store, technique="auto", threads=4, executor="threads", **kw):
    return HistogramRunner(
        bins=BINS, lo=0.0, hi=256.0, num_threads=threads,
        executor=executor, technique=technique, profile_store=store, **kw
    )


class TestDisabledStoreIsInert:
    def test_no_store_means_no_directory_and_static_decision(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "never-created"
        monkeypatch.setenv("REPRO_PROFILE_STORE", str(root))
        data = _sorted_data()
        r = _runner(None)
        r.run(data)
        assert not root.exists()
        decision = r.last_run_stats.technique_decision
        assert list(decision) == ["requested", "chosen", "reason", "inputs"]
        assert r.engine.profile_store is None

    def test_disabled_matches_enabled_results(self, tmp_path):
        data = _sorted_data()
        plain = _runner(None).run(data)
        profiled = _runner(tmp_path).run(data)
        np.testing.assert_array_equal(plain.counts, profiled.counts)
        np.testing.assert_array_equal(plain.sums, profiled.sums)


class TestProcessExecutorAttribution:
    def test_one_record_per_run_with_worker_durations(self, tmp_path):
        data = _sorted_data()
        r = _runner(tmp_path, technique="full_replication",
                    threads=2, executor="process")
        try:
            r.run(data)
            r.run(data)
        finally:
            r.engine.close()
        recs = ProfileStore(tmp_path).load()
        assert len(recs) == 2  # one per engine run, never per worker
        # untraced: the workers' own timings, one per split
        splits = sum(r.last_run_stats.splits_per_thread)
        for rec in recs:
            assert rec["executor"] == "process"
            assert rec["workers"] == 2
            assert rec["split_seconds"]["count"] == splits >= 2
            assert rec["split_seconds"]["p95"] is not None
            assert "footprints" not in rec


class TestTracedDecisions:
    def test_decision_event_is_the_storeless_one(self, tmp_path):
        data = _sorted_data()
        _runner(tmp_path).run(data)
        args = {}
        for store in (tmp_path, None):
            with tracing() as t:
                _runner(store).run(data)
            decisions = [e for e in t.events() if e.name == "technique.decision"]
            assert decisions
            args[store] = decisions[-1].args
        assert args[tmp_path] == args[None]
        assert not {"source", "profile_key"} & set(args[tmp_path])

    def test_engine_run_span_carries_digest(self, tmp_path):
        data = _sorted_data()
        with tracing() as t:
            _runner(tmp_path).run(data)
        run_spans = [s for s in t.spans() if s.name == "engine.run"]
        assert run_spans and run_spans[-1].args["digest"]


class TestRunProfileContents:
    def test_record_captures_configuration(self, tmp_path):
        data = _sorted_data()
        r = _runner(tmp_path)
        r.run(data)
        (rec,) = ProfileStore(tmp_path).load()
        assert rec["spec_name"].startswith("histogram")
        assert rec["opt_level"] is not None
        assert rec["backend"] == "scalar"
        assert rec["effective_backend"] == "scalar"
        assert rec["executor"] == "threads"
        assert rec["workers"] == 4
        assert rec["n_elements"] == N
        assert rec["num_splits"] >= 4
        assert rec["split_fingerprint"]
        assert rec["technique_requested"] == "auto"
        assert rec["wall_seconds"] > 0
        assert "local" in rec["phase_seconds"]
        assert rec["decision"] == {
            "chosen": "full_replication",
            "reason": r.last_run_stats.technique_decision["reason"],
        }

    def test_append_failure_warns_not_raises(self, tmp_path, monkeypatch):
        # an unwritable store warns instead of failing the computation
        data = _sorted_data()

        def broken_append(self, profile):
            raise OSError("disk full")

        monkeypatch.setattr(ProfileStore, "append", broken_append)
        r = _runner(tmp_path)
        with pytest.warns(RuntimeWarning, match="append failed"):
            out = r.run(data)
        assert out.counts.sum() == N
