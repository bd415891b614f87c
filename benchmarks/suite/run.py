"""One layer-attributed benchmark for the Chapel -> FREERIDE pipeline.

    python3 benchmarks/suite/run.py --seed 7            # all four workloads
    python3 benchmarks/suite/run.py --seed 7 --traced   # ... plus per-layer runs
    python3 benchmarks/suite/run.py --repeat 2          # run twice, compare to itself
    python3 benchmarks/suite/run.py --compare A.json B.json
    python3 benchmarks/suite/run.py --workload fine_splits --seed 7 \
        --seconds 12 --trace 0                          # one workload, one result line

Each workload runs in a process of its own (that is what ``peak_rss_mb``
measures); without ``--workload`` this script starts those processes one
after another and gathers what they print.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))
# the program under test, from source: <checkout>/src
sys.path.insert(0, str(HERE.parents[1] / "src"))

DEFAULT_SECONDS = 15


# ----------------------------------------------------------- one workload, here


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result line."""
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    # Hermetic: every cache, store and temp file of this run lives in `work`.
    os.environ["REPRO_KERNEL_CACHE"] = str(work / "kernels-unset")
    os.environ["REPRO_PROFILE_STORE"] = str(work / "profiles")
    os.environ["TMPDIR"] = str(work)
    from cases import shm_names

    shm_before = shm_names()
    # a polite kill takes the same way out as an error: through `finally`
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        detail = _measure(args, work)
    finally:
        _stop_children()
        shutil.rmtree(work, ignore_errors=True)
    leaked = shm_names() - shm_before
    if leaked:
        raise SystemExit(f"shared-memory segments of this run survived: {sorted(leaked)}")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail))
    _print_rows(detail)
    line = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            k: {"value": v["median"], "unit": v["unit"]}
            for k, v in detail["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if detail["correct"] else 1


def _children() -> list[int]:
    """Pids of this process's direct children, zombies included."""
    me = str(os.getpid())
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # it ended while we looked
            continue
        if fields[1] == me:  # after "pid (comm)": state, ppid, ...
            pids.append(int(stat.parent.name))
    return pids


def _stop_children() -> None:
    """Leave no process behind: stop and wait for every child of this one.

    The engines' pools are joined by ``close()``; what outlives them is
    ``multiprocessing``'s resource tracker, started with the first
    shared-memory segment of the process executor.  It ends only when the
    pipe to its parent closes, that is *after* this process has exited, so
    it is stopped here and waited for.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the pipe and waits for the tracker
    for pid in _children():  # anything else (or a tracker without _stop)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    left = _children()
    if left:
        raise SystemExit(f"child processes of this run survived: {left}")


def _measure(args: argparse.Namespace, work: Path) -> dict[str, Any]:
    import numpy as np

    import layers
    import measure
    from cases import BOUND_BY, build_workload
    from metrics import END_TO_END, PER_LAYER, WORKLOADS
    from spans import SpanRecorder

    workload = args.workload
    traced = bool(args.trace)
    spans = SpanRecorder(traced, workload=workload, seed=args.seed)
    cases = build_workload(workload, smoke=args.smoke)
    for index, case in enumerate(cases):
        # the seed reaches input generation and nothing else
        rng = np.random.default_rng(
            [args.seed, list(WORKLOADS).index(workload), index]
        )
        case.generate(rng)

    starts = 2 if args.smoke else (1 if traced else measure.COLD_STARTS)
    rounds = 3 if args.smoke else measure.rounds_for(args.seconds)
    counts = measure.Counts()
    try:
        bound_by = BOUND_BY[workload]
        setup = measure.cold_starts(cases, starts, work, spans, counts, bound_by)
        if traced:
            values, log = layers.traced_run(
                workload, cases, rounds, spans, work, counts, args.smoke
            )
            metrics = {
                m.name: measure.summarize([float(values[m.name])], m.unit)
                for m in PER_LAYER
            }
        else:
            log = measure.run_rounds(cases, rounds, spans, counts, bound_by)
            samples = {
                "setup_s": setup,
                "pass_s": log.passes["serial"],
                "pass_threads_s": log.passes["threads"],
                "peak_rss_mb": [measure.peak_rss_mb()],
            }
            metrics = {
                m.name: measure.summarize(samples[m.name], m.unit) for m in END_TO_END
            }
    finally:
        for case in cases:
            case.close()
    attempted, failed = counts.attempted, counts.failed

    if traced:
        spans.write_chrome_trace(
            RESULTS / f"trace-{workload}-seed{args.seed}.json"
        )
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "smoke": bool(args.smoke),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": metrics,
        "cases": {
            executor: {
                case.name: dict(
                    measure.summarize(log.per_case[executor][case.name], "s"),
                    elements_per_pass=case.elements,
                )
                for case in cases
            }
            for executor in measure.EXECUTORS
        },
        "bench": {
            "pass_wall_s": statistics.median(log.wall["serial"]),
            "reference_wall_s": statistics.median(log.reference),
            "parallel_capacity": statistics.median(log.capacity),
            "rounds_discarded": log.discarded,
            "slow_layouts": log.slow_layouts,
            "capacity_ok": log.capacity_ok,
            "nproc": os.cpu_count() or 1,
        },
    }


def _print_rows(detail: dict[str, Any]) -> None:
    w = detail["workload"]
    print(f"# {w}  seed={detail['seed']}  trace={detail['trace']}  "
          f"failed_share={detail['failed_share']:.6f} "
          f"({detail['failed']}/{detail['attempted']} operations)")
    print(f"{'metric':<40} {'unit':<6} {'n':>4} {'median':>14} {'upper':>14}")
    for name, m in detail["metrics"].items():
        print(f"{name:<40} {m['unit']:<6} {m['n']:>4} {m['median']:>14.6g} "
              f"{m['upper']:>14.6g}  (p{m['upper_p']:.0f})")
    for executor, rows in detail["cases"].items():
        for case, m in rows.items():
            print(f"{'case.' + case + '.' + executor + '_s':<40} {'s':<6} {m['n']:>4} "
                  f"{m['median']:>14.6g} {m['upper']:>14.6g}  (p{m['upper_p']:.0f}, "
                  f"{m['elements_per_pass']} elements/pass)")
    for name, value in detail["bench"].items():
        print(f"{'bench.' + name:<40} {'':<6} {1:>4} {value:>14.6g}")


# ------------------------------------------------------- the whole set, children


def _child(workload: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    name = f"{workload}-seed{args.seed}-trace{trace}.json"
    if not (RESULTS / name).exists():
        raise SystemExit(f"workload {workload} (trace {trace}) exited "
                         f"{done.returncode} without a result")
    return json.loads((RESULTS / name).read_text())


def run_set(args: argparse.Namespace, label: str) -> dict[str, Any]:
    """Every workload once, one child process at a time."""
    from metrics import WORKLOADS

    out: dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "smoke": bool(args.smoke),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workloads": {}, "traced": {},
    }
    for workload in WORKLOADS:
        out["workloads"][workload] = _child(workload, args, 0)
        if args.traced:
            out["traced"][workload] = _child(workload, args, 1)
    path = RESULTS / f"run-seed{args.seed}{label}.json"
    path.write_text(json.dumps(out))
    print(f"\nwrote {path}")
    return out


def _print_overhead(result: dict[str, Any]) -> None:
    for workload, traced in result["traced"].items():
        ratio = traced["metrics"]["bench.trace_overhead_ratio"]["median"]
        print(f"bench.trace_overhead_ratio  {workload:<17} {ratio:.4f}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run only this workload, in this process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="run length; scales the fixed round count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = the traced, per-layer run")
    ap.add_argument("--traced", action="store_true",
                    help="whole set: also make the traced run of every workload")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and 3 rounds (self-test)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run the whole set this many times and compare them")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                    help="compare two run-*.json files and exit")
    args = ap.parse_args(argv)

    from compare import compare, format_rows

    if args.compare:
        base, change = (json.loads(Path(p).read_text()) for p in args.compare)
        rows = compare(base, change)
        print(format_rows(rows))
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0

    try:
        import repro  # noqa: F401
    except ImportError:  # before any output: a bare checkout must print no result
        sys.exit(f"run.py: the program is not at {HERE.parents[1] / 'src'}")

    RESULTS.mkdir(exist_ok=True)
    if args.workload:
        from metrics import WORKLOADS

        if args.workload not in WORKLOADS:
            ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        return run_workload(args)

    sets = []
    for i in range(args.repeat):
        label = f"-{i + 1}" if args.repeat > 1 else ""
        sets.append(run_set(args, label))
    status = 0
    for result in sets:
        if args.traced:
            _print_overhead(result)
        if not all(w["correct"] for w in result["workloads"].values()):
            status = 1
    for base, change in zip(sets, sets[1:]):
        rows = compare(base, change)
        print("\n" + format_rows(rows))
        if any(r["verdict"] in ("regressed", "unresolved") for r in rows):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
