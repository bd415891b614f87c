"""Self-test of the benchmark (not part of tier-1).

    python -m pytest benchmarks/suite -q

Uses the ``--smoke`` sizes, so the whole file runs in about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import metrics  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SEED = 3
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def session_members(session: int) -> list[str]:
    """``pid (comm) state`` of every process still in ``session``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            head, _, tail = stat.read_text().rpartition(")")
        except OSError:
            continue
        fields = tail.split()  # state, ppid, pgrp, session, ...
        if int(fields[3]) == session:
            found.append(f"{head}) {fields[0]}")
    return found


def smoke(workload: str, trace: int, seed: int = SEED) -> dict:
    """One smoke run in a session of its own, which it must leave empty."""
    proc = subprocess.Popen(
        [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, out + err
    assert session_members(proc.pid) == [], "the run left a process behind"
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    """One untraced and two traced smoke runs of every workload, one seed."""
    return {
        w: {"plain": smoke(w, 0), "traced": [smoke(w, 1), smoke(w, 1)]}
        for w in metrics.WORKLOADS
    }


def test_benchmark_json_repeats_the_declarations():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = metrics.benchmark_json(
        declared["command"], declared["paths"], declared["run_seconds"]
    )
    assert declared == expected
    assert declared["paths"] == ["benchmarks/suite"]
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}
    assert max(m["bound"] for m in declared["end_to_end"]) <= 0.25
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_every_name_and_unit_is_well_formed():
    names = [m.name for m in metrics.END_TO_END] + [m.name for m in metrics.PER_LAYER]
    names += list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in metrics.UNITS.values():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    for why in metrics.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    assert metrics.EXACT_COUNTS <= {m.name for m in metrics.PER_LAYER}


def test_printed_names_equal_declared_names(results):
    for runs in results.values():
        plain = runs["plain"]
        assert set(plain) == {"correct", "attempted", "failed", "metrics"}
        assert set(plain["metrics"]) == {m.name for m in metrics.END_TO_END}
        for traced in runs["traced"]:
            assert set(traced["metrics"]) == {m.name for m in metrics.PER_LAYER}
        for line in (plain, *runs["traced"]):
            assert line["correct"] is True and line["failed"] == 0
            assert line["attempted"] >= 1
            for name, m in line["metrics"].items():
                assert m["unit"] == metrics.UNITS[name]


def test_end_to_end_metrics_are_never_zero(results):
    for runs in results.values():
        for m in runs["plain"]["metrics"].values():
            assert m["value"] > 0


def test_counts_repeat_exactly_at_one_seed(results):
    for workload, runs in results.items():
        first, second = (r["metrics"] for r in runs["traced"])
        for name in metrics.EXACT_COUNTS:
            assert first[name]["value"] == second[name]["value"], (workload, name)


def test_each_workload_exercises_its_own_layer(results):
    traced = {w: runs["traced"][0]["metrics"] for w, runs in results.items()}
    for workload, m in traced.items():
        nested = workload == "nested_linearize"
        assert (m["compiler.linearize_s"]["value"] > 0) == nested
        assert (m["freeride.delta_append_s"]["value"] > 0) == (workload == "delta_epochs")
        assert (m["freeride.per_split_us"]["value"] > 0) == (workload == "fine_splits")
        assert m["compiler.native_fallbacks"]["value"] == 0
        assert m["freeride.shm_leaked"]["value"] == 0


def _generated(workload: str, seed: int):
    from cases import build_workload

    cases = build_workload(workload, smoke=True)
    index = list(metrics.WORKLOADS).index(workload)
    for i, case in enumerate(cases):
        case.generate(np.random.default_rng([seed, index, i]))
    return cases


def _arrays(case) -> dict:
    return {k: v for k, v in vars(case).items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_the_seed_changes_the_inputs_and_nothing_else(workload):
    one, again, other = (_generated(workload, s) for s in (1, 1, 2))
    for a, b, c in zip(one, again, other):
        same, differ = _arrays(a), _arrays(c)
        assert same.keys() == _arrays(b).keys() == differ.keys() and same
        for key, value in same.items():
            assert np.array_equal(value, _arrays(b)[key]), key
        assert any(not np.array_equal(v, differ[k]) for k, v in same.items())
        # what reaches the compiler and the engine does not depend on the seed
        assert a.programs() == c.programs()
        assert (a.chunk_size, a.elements) == (c.chunk_size, c.elements)


def test_the_comparator_catches_a_corrupted_result(tmp_path, monkeypatch):
    from spans import SpanRecorder

    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    off = SpanRecorder(False)
    case = _generated("dense_steady", 1)[2]  # the histogram
    case.cold_start(off)
    try:
        clean = case.run_pass("serial", off)
        assert (clean.attempted, clean.failed) == (1, 0)
        honest = case._program_pass

        def corrupted(engine, spans):
            got = honest(engine, spans)
            got[0] += 1.0  # one count off in one bin
            return got

        monkeypatch.setattr(case, "_program_pass", corrupted)
        outcome = case.run_pass("serial", off)
        assert outcome.attempted == 1 and outcome.failed == 1
        assert outcome.failed / outcome.attempted > 0  # failed_share
    finally:
        case.close()


def test_oracles_do_not_import_the_program():
    source = (HERE / "oracles.py").read_text()
    assert "repro" not in re.findall(r"^\s*(?:from|import)\s+(\w+)", source, re.M)


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    assert compare.verdict(base, base, 0.10)["verdict"] == "unchanged"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.10)["verdict"] == "regressed"
    assert compare.verdict(base, [x * 0.8 for x in base], 0.10)["verdict"] == "improved"
    noisy = [1.0, 1.3, 0.8, 1.25, 0.75, 1.1]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], 0.10)["verdict"] == "unresolved"
    assert compare.verdict(noisy, [x * 0.5 for x in noisy], 0.10)["verdict"] == "improved"


def test_rounds_under_a_slow_layout_are_left_out():
    import measure
    from cases import Outcome

    def a_round(index: int, layout: int, seconds: tuple[float, ...]) -> measure.Round:
        outcomes = [Outcome(s, 1, 0) for s in seconds]
        return measure.Round(index, {"threads": outcomes},
                             {"threads": (0.005, 0.005)}, 2.0, layout=layout)

    rounds = [a_round(i, i // 3, (0.037, 0.050)) for i in range(6)]
    rounds += [a_round(6 + i, 2, (0.090, 0.050)) for i in range(3)]  # false sharing
    assert measure.slow_layouts(rounds, "native") == {2}
    # one lucky round does not make its layout the one the others are judged by
    rounds.append(a_round(9, 3, (0.020, 0.050)))
    assert measure.slow_layouts(rounds, "native") == {2}


def test_it_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "dense_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
