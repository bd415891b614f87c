"""Measurement: cold starts, interleaved rounds, the probe, summaries.

Noise policy.  The reference box is a 2-vCPU guest on a shared host, and
two of its speeds wander independently by 20-40 % for seconds to minutes:
how fast one thread runs native code (the same serial ``dense_steady``
pass read 0.176 s and 0.225 s in one process) and how fast it runs the
CPython interpreter (the same ``nested_linearize`` pass read 0.138 s to
0.253 s across processes while native speed barely moved).  Raw wall time
therefore cannot meet any bound.  So:

* every workload names the resource it is bound by (``cases.BOUND_BY``):
  generated native code or the interpreter.  Beside every pass the probe
  times a *reference kernel* bound by the same resource — SHA-256 over
  8 MiB, or a loop of Python method calls and dict stores — and times are
  reported in **reference seconds**: wall x ``REFERENCE_SECONDS`` / the
  reference time measured right before and after.  On a box where the
  reference kernel takes exactly 5 ms a reference second is a wall second.
  (``dense_steady``: quartile distance of the serial pass 21 % of the
  median raw, 3.3 % in reference seconds.)
* ``pass_threads_s`` is in reference seconds where the threaded pass is
  interpreter-bound too (the GIL serialises it) and plain wall seconds on
  the native-bound workload, whose threaded pass depends on whether the
  host grants the second vCPU and follows no reference we tried
  (correlation 0.04-0.3);
* ``setup_s`` is scaled once per run, by the median of the reference
  readings taken between its cold starts: a cold start is long enough for
  the speed to change inside it, and per-start scaling added noise;
* round counts are constants scaled by ``--seconds``, never read off the
  clock; the serial and the threaded pass share rounds, alternating which
  goes first;
* every ``LAYOUT_ROUNDS`` rounds the threaded engines are replaced, so a
  run covers several placements of the kernels' thread-local buffers (see
  ``Case.relayout``), and the rounds measured under a placement where two
  threads' buffers share a cache line are left out (``slow_layouts``):
  which placements a process draws is the allocator's lottery, and with
  them in, the same commit read 0.115 s in ten runs and 0.115-0.19 s in
  the next ten;
* the probe also reads how much GIL-free work W pinned threads finish at
  once.  A round whose best reading falls under 0.8 x what this run saw
  before its first round measured the neighbour and is run again (at most
  2x the round count); ``bench.capacity_ok`` is 0 when the box never
  offered 0.8 x W or too few rounds survived.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.compiler import clear_kernel_cache

from cases import Case, Outcome, W
from spans import SpanRecorder

WARMUP_ROUNDS = 2
MIN_KEPT_ROUNDS = 10
CAPACITY_SHARE = 0.8
COLD_STARTS = 9
#: rounds measured on one set of threaded engines before they are replaced
LAYOUT_ROUNDS = 6
#: a layout is slow when a case's threaded pass takes this many times what it
#: takes under the run's best layout (false sharing measured 1.7-3x; the same
#: ratio between layouts that differ only by the box's noise stays under 1.5
#: in 9 runs of 10)
LAYOUT_SLOW = 1.5
#: a layout's median counts as the best only with this many kept rounds
MIN_LAYOUT_ROUNDS = 3

EXECUTORS = ("serial", "threads")


def rounds_for(seconds: float) -> int:
    """Timed rounds for a requested run length.

    Workloads are sized so one round (a serial and a threaded pass plus the
    probe) takes about 0.4 s at the seed commit; 2.5 rounds per second keeps
    the timed part near ``seconds`` there while both sides of a later
    comparison still run the same number of rounds.
    """
    return max(12, round(2.5 * seconds))


# ------------------------------------------------------------------- summaries


def upper_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: ``(p, value)``.

    With fewer than 20 samples no percentile above the median qualifies and
    the median itself is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    index = n - 11  # ten samples lie strictly beyond it
    return 100.0 * (index + 1) / n, ordered[index]


def summarize(samples: list[float], unit: str) -> dict[str, Any]:
    p, upper = upper_percentile(samples)
    return {
        "unit": unit,
        "n": len(samples),
        "median": statistics.median(samples),
        "upper_p": p,
        "upper": upper,
        "samples": samples,
    }


# ----------------------------------------------------------------------- probe

#: nominal time of either reference kernel; fixes the size of a reference second
REFERENCE_SECONDS = 0.005
_HASH_BLOCK = bytes(1 << 20)
_HASH_REPS = 8  # 8 MiB of hashing: long enough to amortize starting the threads
_INTERPRETER_STEPS = 30_000


def _native_work(cpu: int | None = None) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # pid 0 = the calling thread
    for _ in range(_HASH_REPS):
        hashlib.sha256(_HASH_BLOCK).digest()  # hashlib drops the GIL on big inputs


class _Stepper:
    """What interpreter-bound code does: method calls, attribute and dict traffic."""

    def __init__(self) -> None:
        self.acc = 1
        self.seen: dict[int, int] = {}

    def step(self, i: int) -> int:
        self.seen[i & 255] = self.acc + i
        self.acc = (self.acc * 3 + i) & 0xFFFF
        return self.acc


def _interpreter_work() -> None:
    stepper = _Stepper()
    total = 0
    for i in range(_INTERPRETER_STEPS):
        total += stepper.step(i)


_REFERENCE_WORK = {"native": _native_work, "interpreter": _interpreter_work}


class Reading(NamedTuple):
    reference: float  # seconds the reference kernel took on this thread
    capacity: float   # threads' worth of GIL-free work W pinned threads did at once


class Probe:
    """Times the reference kernel, then GIL-free work on ``W`` pinned threads.

    Pinning makes the capacity reading say whether the box has ``W`` CPUs
    to give right now, not where the guest scheduler put two fresh threads.
    """

    def __init__(self, workers: int, bound_by: str) -> None:
        self.workers = workers
        self._work = _REFERENCE_WORK[bound_by]
        cpus: list[int | None] = [None] * workers
        if hasattr(os, "sched_getaffinity"):
            allowed = sorted(os.sched_getaffinity(0))
            if len(allowed) >= workers:
                cpus = list(allowed[:workers])
        self._cpus = cpus

    def reference(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def read(self) -> Reading:
        reference = self.reference()
        if self.workers == 1:
            return Reading(reference, 1.0)
        t0 = time.perf_counter()
        _native_work()
        alone = time.perf_counter() - t0
        threads = [
            threading.Thread(target=_native_work, args=(cpu,)) for cpu in self._cpus
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        together = time.perf_counter() - t0
        return Reading(reference, self.workers * alone / together)


def reference_seconds(wall: float, *references: float) -> float:
    """Wall time rescaled by the reference kernel timed around it."""
    return wall * REFERENCE_SECONDS / statistics.mean(references)


# ----------------------------------------------------------------- cold starts


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0

    def add(self, outcomes: list[Outcome]) -> None:
        self.attempted += sum(o.attempted for o in outcomes)
        self.failed += sum(o.failed for o in outcomes)


def cold_starts(
    cases: list[Case], starts: int, work: Path, spans: SpanRecorder, counts: Counts,
    bound_by: str,
) -> list[float]:
    """``starts`` in-process cold starts; returns each one's reference seconds.

    Timed: with an empty in-memory kernel cache and a fresh, empty
    ``REPRO_KERNEL_CACHE`` directory, compile every case from source text,
    bind, construct engines and run the first pass on both executors.
    Input generation and the oracle ran earlier and are not in it.  The
    last start's compiled kernels, bound data and engines stay open for
    the rounds that follow.
    """
    probe = Probe(1, bound_by)
    walls = []
    references = [probe.reference()]
    for i in range(starts):
        for case in cases:
            case.close()
        cache_dir = work / f"kernels-{i}"
        cache_dir.mkdir(parents=True)
        os.environ["REPRO_KERNEL_CACHE"] = str(cache_dir)
        clear_kernel_cache()
        t0 = time.perf_counter()
        with spans.span("bench.cold_start", start=i):
            for case in cases:
                case.cold_start(spans)
            for executor in EXECUTORS:
                counts.add(one_pass(cases, executor, spans, round="first"))
        walls.append(time.perf_counter() - t0)
        references.append(probe.reference())
    speed = statistics.median(references)
    return [reference_seconds(wall, speed) for wall in walls]


# ---------------------------------------------------------------------- rounds


def one_pass(
    cases: list[Case], executor: str, spans: SpanRecorder, **ids: Any
) -> list[Outcome]:
    with spans.span("bench.pass", executor=executor, **ids):
        return [case.run_pass(executor, spans) for case in cases]


@dataclass
class Round:
    index: int
    outcomes: dict[str, list[Outcome]]
    #: reference readings taken right before and after each executor's pass
    references: dict[str, tuple[float, float]]
    capacity: float
    #: how many times the threaded engines had been replaced before it
    layout: int = 0

    def seconds(self, executor: str, bound_by: str) -> list[float]:
        """Per-case times of one pass, in reference seconds where that applies."""
        outcomes = self.outcomes[executor]
        if executor == "threads" and bound_by == "native":
            return [o.seconds for o in outcomes]  # follows no reference: wall
        return [
            reference_seconds(o.seconds, *self.references[executor]) for o in outcomes
        ]


@dataclass
class RoundLog:
    """What the kept rounds measured, per executor and per case."""

    passes: dict[str, list[float]] = field(
        default_factory=lambda: {e: [] for e in EXECUTORS}
    )
    #: the same passes in plain wall seconds
    wall: dict[str, list[float]] = field(
        default_factory=lambda: {e: [] for e in EXECUTORS}
    )
    per_case: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    per_case_wall: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    #: the ``round=`` id of each kept round, in order
    rounds: list[int] = field(default_factory=list)
    capacity: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    discarded: int = 0
    capacity_ok: int = 1
    #: layouts left out because a case ran ``LAYOUT_SLOW`` x its best under them
    slow_layouts: int = 0


def slow_layouts(rounds: list[Round], bound_by: str) -> set[int]:
    """The layouts under which some case's threaded pass was ``LAYOUT_SLOW`` x
    slower than under the best layout of the same run (medians over rounds)."""
    by_layout: dict[int, list[list[float]]] = {}
    for this in rounds:
        by_layout.setdefault(this.layout, []).append(this.seconds("threads", bound_by))
    medians = {
        layout: [statistics.median(case) for case in zip(*rows)]
        for layout, rows in by_layout.items()
    }
    settled = [
        medians[layout] for layout, rows in by_layout.items()
        if len(rows) >= MIN_LAYOUT_ROUNDS
    ]
    if not settled:
        return set()
    best = [min(case) for case in zip(*settled)]
    return {
        layout for layout, row in medians.items()
        if any(m > LAYOUT_SLOW * b for m, b in zip(row, best))
    }


def run_rounds(
    cases: list[Case],
    rounds: int,
    spans: SpanRecorder,
    counts: Counts,
    bound_by: str,
    pass_fn: Callable[..., list[Outcome]] = one_pass,
) -> RoundLog:
    """Warm up, then measure ``rounds`` kept rounds of serial + threaded passes."""
    log = RoundLog(
        per_case={e: {c.name: [] for c in cases} for e in EXECUTORS},
        per_case_wall={e: {c.name: [] for c in cases} for e in EXECUTORS},
    )
    probe = Probe(W, bound_by)
    # interference only lowers a reading, so the best of five is the baseline
    baseline = max(probe.read().capacity for _ in range(5))
    if baseline < CAPACITY_SHARE * W:
        log.capacity_ok = 0
    floor = CAPACITY_SHARE * min(W, baseline)

    for i in range(WARMUP_ROUNDS):
        for executor in EXECUTORS:
            counts.add(pass_fn(cases, executor, spans, round=-1 - i))

    kept: list[Round] = []
    spare: list[Round] = []  # rounds whose probe read under the floor
    ran = 0
    last = probe.read()
    while len(kept) < rounds and ran < 2 * rounds:
        if ran and ran % LAYOUT_ROUNDS == 0:
            counts.add([case.relayout() for case in cases])
        order = EXECUTORS if ran % 2 == 0 else EXECUTORS[::-1]
        this = Round(ran, {}, {}, 0.0, layout=ran // LAYOUT_ROUNDS)
        readings = [last.capacity]
        for executor in order:
            this.outcomes[executor] = pass_fn(cases, executor, spans, round=ran)
            counts.add(this.outcomes[executor])
            before, last = last, probe.read()
            this.references[executor] = (before.reference, last.reference)
            readings.append(last.capacity)
        # interference only lowers a reading (late thread start, preemption;
        # quartile distance ~17 % here), so the round is judged by the best
        # of the three around it: a neighbour holding a CPU lowers them all
        this.capacity = max(readings)
        (kept if this.capacity >= floor else spare).append(this)
        ran += 1
    if len(kept) < min(MIN_KEPT_ROUNDS, rounds):
        # too few clean rounds: report every round and say so
        kept.extend(spare)
        log.capacity_ok = 0
    else:
        log.discarded = len(spare)
    slow = slow_layouts(kept, bound_by)
    fast = [this for this in kept if this.layout not in slow]
    if len(fast) >= min(MIN_KEPT_ROUNDS, rounds):
        kept = fast
        log.slow_layouts = len(slow)

    for this in kept:
        log.rounds.append(this.index)
        log.capacity.append(this.capacity)
        for executor, outcomes in this.outcomes.items():
            log.reference.extend(this.references[executor])
            times = this.seconds(executor, bound_by)
            log.passes[executor].append(sum(times))
            log.wall[executor].append(sum(o.seconds for o in outcomes))
            for case, seconds, outcome in zip(cases, times, outcomes):
                log.per_case[executor][case.name].append(seconds)
                log.per_case_wall[executor][case.name].append(outcome.seconds)
    return log


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
