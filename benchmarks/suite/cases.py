"""The benchmark's cases and the four workloads built from them.

A case is one mini-Chapel program (PCA: two) with seeded dyadic inputs, a
NumPy oracle result, and the sequence of public calls that makes one
*pass*.  Cases drive the program only through its public surface; every
call is wrapped in a benchmark span so the traced run can attribute it.

Sizes are constants (never derived from the clock) so both sides of a
comparison do the same work.  They were fixed at the seed commit so one
pass of each workload takes roughly 0.2 s on the 2-vCPU reference box and
no case contributes less than about a fifth of it.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.chapel.domains import Domain
from repro.chapel.types import INT, REAL, ArrayType, array_of, record
from repro.chapel.values import from_python
from repro.compiler import compile_cached
from repro.freeride import FreerideEngine

import oracles
import programs
from spans import SpanRecorder

#: worker count of the threaded pass
W = min(2, os.cpu_count() or 1)

#: the resource each workload's pass is bound by, which picks the reference
#: kernel its times are scaled by (see measure.py): generated native code, or
#: the CPython interpreter running dispatch, commit, linearization, delta logic
BOUND_BY = {
    "dense_steady": "native",
    "fine_splits": "interpreter",
    "nested_linearize": "interpreter",
    "delta_epochs": "interpreter",
}

REQUESTED_BACKEND = "native"
OPT_LEVEL = 2


_NO_SPANS = SpanRecorder(False)


class Program(NamedTuple):
    source: str
    constants: dict[str, Any]
    layout: list[tuple[int, str]]


class Outcome(NamedTuple):
    seconds: float   # the timed part of the pass
    attempted: int   # operations (case-passes, delta epochs)
    failed: int      # raised, disagreed with the oracle, or ran on the wrong tier


def dyadic(rng: np.random.Generator, shape: Any, hi: float, grid: int = 8) -> np.ndarray:
    """Uniform values in ``[0, hi)`` on a ``1/grid`` lattice: float adds stay exact."""
    return np.floor(rng.uniform(0.0, hi, shape) * grid) / grid


def pin_new_threads(before: set[threading.Thread]) -> None:
    """Give every thread started since ``before`` a CPU of its own.

    The paper's testbed: "One thread is allocated on one CPU".  Left to the
    guest scheduler, an engine's two pool threads spent whole runs sharing
    one vCPU on the reference box while pinned threads beside them got two
    (the threaded ``dense_steady`` pass read 0.12 s in most processes and
    0.15-0.20 s in one in five).  Affinity is set from outside, by thread
    id; nothing in the program changes.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    started = sorted(set(threading.enumerate()) - before, key=lambda t: t.name)
    for k, thread in enumerate(started):
        os.sched_setaffinity(thread.native_id, {cpus[k % len(cpus)]})


_NUMPY_CACHED_BYTES = 1024   # numpy/_core/src/multiarray/alloc.c: NBUCKETS
_NUMPY_CACHED_PER_SIZE = 7   # ... and NCACHE


def drain_small_block_cache(sizes: set[int]) -> list[np.ndarray]:
    """Empty NumPy's cache of freed blocks of these byte sizes; hold the
    result while new threads make their first kernel calls.

    NumPy keeps freed array data under 1 KiB in a process-wide cache, seven
    blocks per byte size, and hands them to whichever thread asks next.  The
    native kernel's thread-local ``scratch``/``touched``/``counters`` arrays
    are that small and written once per element, so a pool thread can be
    given a block out of another thread's malloc arena: one thread's
    ``counters`` and the other's ``touched`` in one cache line took the
    threaded k-means pass from 0.037 s to 0.07-0.11 s, every time the two
    shared a line and never otherwise.  Left alone, replacing the engines
    reproduced the same layout each time and whole runs were slow (0 of 10
    runs, then 5 of 10).  With the cache emptied the large buffers come from
    the thread's own arena; 8-byte blocks are back in the cache within
    microseconds (any one-element temporary is one), so a slow layout still
    turns up under about one engine in six, but not under every engine of a
    run, and ``measure.slow_layouts`` leaves those rounds out.  The hazard
    itself is a finding (README, seed-commit findings).
    """
    return [
        np.empty(size, dtype=np.uint8)
        for size in sizes if size < _NUMPY_CACHED_BYTES
        for _ in range(_NUMPY_CACHED_PER_SIZE)
    ]


def shm_names() -> set[str]:
    """Names of the shared-memory segments that exist right now."""
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


def chapel_centroids(centroids: np.ndarray) -> Any:
    """The nested Chapel value of k-means' ``centroids`` field."""
    k, dim = centroids.shape
    centroid_t = ArrayType(Domain(k), record("Centroid", coord=array_of(REAL, dim)))
    return from_python(
        centroid_t, [{"coord": [float(v) for v in row]} for row in centroids]
    )


def _real_vector(values: np.ndarray) -> Any:
    return from_python(ArrayType(Domain(len(values)), REAL), [float(v) for v in values])


class Case:
    """One program, its inputs, its oracle and its pass."""

    name: str
    rtol = 0.0
    chunk_size: int | None = None
    #: nested cases re-bind (re-linearize) on every pass
    rebinds = False

    def __init__(self) -> None:
        self.compiled: list[Any] = []
        self.bound: list[Any] = []
        self.engines: dict[str, FreerideEngine] = {}
        self.expected: np.ndarray = np.empty(0)
        self.elements = 0  # elements folded by one pass
        #: counts off the RunStats of the latest pass, per executor and program
        self.last_splits: dict[str, dict[int, int]] = {}
        self.last_ro_bytes: dict[str, dict[int, int]] = {}
        self._executor = "serial"
        self._pool_pinned = False

    # -- what subclasses define ---------------------------------------------------

    def programs(self) -> list[Program]:
        raise NotImplementedError

    def generate(self, rng: np.random.Generator) -> None:
        """Make the inputs from ``rng`` and compute the oracle result."""
        raise NotImplementedError

    def bind_args(self, index: int) -> tuple[Any, dict[str, Any]]:
        """``(data, extras)`` for binding program ``index``."""
        raise NotImplementedError

    def _program_pass(self, engine: FreerideEngine, spans: SpanRecorder) -> np.ndarray:
        """The public calls of one pass; returns what the oracle is compared to."""
        raise NotImplementedError

    def _after_pass(self) -> None:
        """Untimed: put the case back where the next pass expects it."""

    # -- shared machinery ---------------------------------------------------------

    @property
    def backend_ok(self) -> bool:
        return all(c.effective_backend == REQUESTED_BACKEND for c in self.compiled)

    def cold_start(self, spans: SpanRecorder) -> None:
        """Source text -> compiled kernels -> bound data -> engines."""
        self.compiled = []
        for prog in self.programs():
            with spans.span("compiler.compile", case=self.name):
                self.compiled.append(
                    compile_cached(
                        prog.source, prog.constants,
                        opt_level=OPT_LEVEL, backend=REQUESTED_BACKEND,
                    )
                )
        if not self.rebinds:
            self.bound = [
                self._bind(i, spans) for i in range(len(self.compiled))
            ]
        self._pool_pinned = False
        with spans.span("freeride.engine", case=self.name):
            self.engines = {
                "serial": FreerideEngine(
                    num_threads=1, executor="serial", chunk_size=self.chunk_size
                ),
                "threads": self._threaded_engine(),
            }

    def _threaded_engine(self) -> FreerideEngine:
        return FreerideEngine(
            num_threads=W, executor="threads",
            technique="full_replication", chunk_size=self.chunk_size,
        )

    def relayout(self) -> Outcome:
        """Swap in a fresh threaded engine and warm it with one untimed pass.

        New pool threads allocate new thread-local kernel buffers, and where
        those land decides whether one thread's ``counters`` and the other's
        ``touched`` flags share a cache line (see
        :func:`drain_small_block_cache`): the threaded k-means pass read
        0.037 s, or 0.07-0.11 s for as long as its threads lived.  Like link
        order for a compiler benchmark, a run therefore samples several
        layouts, and ``measure.slow_layouts`` leaves the slow ones out.
        """
        self.engines["threads"].close()
        self.engines["threads"] = self._threaded_engine()
        self._pool_pinned = False
        return self.run_pass("threads", _NO_SPANS)

    def _kernel_buffer_sizes(self) -> set[int]:
        """Byte sizes of the native kernel's thread-local buffers: a flag per
        group, a float64 per reduction-object element, a short float64 vector
        of counters."""
        sizes = set(range(8, 257, 8))
        for prog in self.programs():
            sizes.add(len(prog.layout))
            sizes.add(8 * sum(elements for elements, _op in prog.layout))
        return sizes

    def _bind(self, index: int, spans: SpanRecorder) -> Any:
        data, extras = self.bind_args(index)
        with spans.span("compiler.bind", case=self.name):
            return self.compiled[index].bind(data, extras)

    def _run(self, engine: FreerideEngine, index: int, spans: SpanRecorder) -> Any:
        """make_spec + engine.run for program ``index``; returns the result."""
        layout = self.programs()[index].layout
        with spans.span("compiler.make_spec", case=self.name):
            spec, idx = self.bound[index].make_spec(layout)
        with spans.span("freeride.run", case=self.name):
            result = engine.run(spec, idx)
        self._note_stats(index, result.stats)
        return result

    def _note_stats(self, index: int, stats: Any) -> None:
        self.last_splits.setdefault(self._executor, {})[index] = sum(
            stats.splits_per_thread
        )
        self.last_ro_bytes.setdefault(self._executor, {})[index] = (
            stats.sharedmem.ro_memory_bytes
        )

    def kernel_binds(self) -> list[tuple[Any, list[tuple[int, str]], int]]:
        """``(bound, layout, repeats)``: the bare-kernel work inside one pass."""
        return [
            (bound, prog.layout, 1) for bound, prog in zip(self.bound, self.programs())
        ]

    def run_pass(self, executor: str, spans: SpanRecorder) -> Outcome:
        """One pass on one executor: timed, checked against the oracle, counted."""
        self._executor = executor
        if executor != "threads" or self._pool_pinned:
            return self._pass(executor, spans)
        # the engine starts its pool on the first threaded pass (part of set-up)
        before = set(threading.enumerate())
        held = drain_small_block_cache(self._kernel_buffer_sizes())
        outcome = self._pass(executor, spans)
        del held
        pin_new_threads(before)
        self._pool_pinned = True
        return outcome

    def _pass(self, executor: str, spans: SpanRecorder) -> Outcome:
        t0 = time.perf_counter()
        try:
            got = self._program_pass(self.engines[executor], spans)
        except Exception:
            # the op boundary: one failed operation must not end the run
            traceback.print_exc()
            return Outcome(time.perf_counter() - t0, 1, 1)
        seconds = time.perf_counter() - t0
        ok = self.backend_ok and oracles.agrees(got, self.expected, self.rtol)
        self._after_pass()
        return Outcome(seconds, 1, 0 if ok else 1)

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()
        self.engines = {}


# ------------------------------------------------------------------ flat cases


class KmeansCase(Case):
    """One k-means iteration: run, centroid update, ``update_extras``."""

    def __init__(self, name: str, n: int, k: int = 8, dim: int = 4,
                 chunk_size: int | None = None) -> None:
        super().__init__()
        self.name, self.n, self.k, self.dim = name, n, k, dim
        self.chunk_size = chunk_size
        self.elements = n

    def programs(self) -> list[Program]:
        return [Program(programs.KMEANS, {"k": self.k, "dim": self.dim},
                        [(self.dim + 2, "add")] * self.k)]

    def generate(self, rng: np.random.Generator) -> None:
        self.points = dyadic(rng, (self.n, self.dim), 8.0)
        self.centroids = dyadic(rng, (self.k, self.dim), 8.0)
        self.expected = oracles.kmeans_iteration(self.points, self.centroids)

    def bind_args(self, index: int) -> tuple[Any, dict[str, Any]]:
        return self.points, {"centroids": chapel_centroids(self.centroids)}

    def _program_pass(self, engine: FreerideEngine, spans: SpanRecorder) -> np.ndarray:
        ro = self._run(engine, 0, spans).ro.snapshot()
        moved = oracles.centroid_update(ro, self.centroids)
        with spans.span("chapel.from_python", case=self.name):
            extras = {"centroids": chapel_centroids(moved)}
        with spans.span("compiler.update_extras", case=self.name):
            self.bound[0].update_extras(extras)
        return ro

    def _after_pass(self) -> None:
        # every pass is the same iteration: start again from the seeded centroids
        self.bound[0].update_extras(self.bind_args(0)[1])


class PcaCase(Case):
    """Mean pass, then covariance pass centred on that mean."""

    rtol = 1e-9  # the mean is not dyadic, so centred products round

    def __init__(self, name: str, n: int, m: int = 16) -> None:
        super().__init__()
        self.name, self.n, self.m = name, n, m
        self.elements = 2 * n

    def programs(self) -> list[Program]:
        m = self.m
        return [
            Program(programs.PCA_MEAN, {"m": m}, [(m, "add"), (1, "add")]),
            Program(programs.PCA_COV, {"m": m}, [(m, "add")] * m),
        ]

    def generate(self, rng: np.random.Generator) -> None:
        self.columns = dyadic(rng, (self.n, self.m), 8.0)
        mean_ro = oracles.pca_mean(self.columns)
        mean = mean_ro[: self.m] / mean_ro[self.m]
        self.expected = np.concatenate([mean_ro, oracles.pca_cov(self.columns, mean)])

    def bind_args(self, index: int) -> tuple[Any, dict[str, Any]]:
        extras = {"mean": _real_vector(np.zeros(self.m))} if index == 1 else {}
        return self.columns, extras

    def _program_pass(self, engine: FreerideEngine, spans: SpanRecorder) -> np.ndarray:
        mean_ro = self._run(engine, 0, spans).ro.snapshot()
        mean = mean_ro[: self.m] / mean_ro[self.m]
        with spans.span("chapel.from_python", case=self.name):
            extras = {"mean": _real_vector(mean)}
        with spans.span("compiler.update_extras", case=self.name):
            self.bound[1].update_extras(extras)
        cov_ro = self._run(engine, 1, spans).ro.snapshot()
        return np.concatenate([mean_ro, cov_ro])


class HistogramCase(Case):
    def __init__(self, name: str, n: int, bins: int,
                 chunk_size: int | None = None) -> None:
        super().__init__()
        self.name, self.n, self.bins = name, n, bins
        self.chunk_size = chunk_size
        self.elements = n
        self.width = 8.0 / bins  # one lattice value per bin at grid = bins / 8

    def programs(self) -> list[Program]:
        return [Program(programs.HISTOGRAM,
                        {"bins": self.bins, "lo": 0.0, "width": self.width},
                        [(2, "add")] * self.bins)]

    def generate(self, rng: np.random.Generator) -> None:
        self.x = dyadic(rng, self.n, 8.0, grid=max(8, self.bins // 8))
        self.expected = oracles.histogram(self.x, self.bins, 0.0, self.width)

    def bind_args(self, index: int) -> tuple[Any, dict[str, Any]]:
        return self.x, {}

    def _program_pass(self, engine: FreerideEngine, spans: SpanRecorder) -> np.ndarray:
        return self._run(engine, 0, spans).ro.snapshot()


class WindowedCase(Case):
    """Position-dependent groups plus a bounded gather from ``scale``."""

    def __init__(self, name: str, n: int, win: int, nb: int = 16,
                 chunk_size: int | None = None) -> None:
        super().__init__()
        self.name, self.n, self.win, self.nb = name, n, win, nb
        self.nw = max(1, n // win)
        self.chunk_size = chunk_size
        self.elements = n

    def programs(self) -> list[Program]:
        consts = {"win": self.win, "nw": self.nw, "nb": self.nb,
                  "lo": 0.0, "width": 8.0 / self.nb}
        return [Program(programs.WINDOWED, consts, [(2, "add")] * self.nw)]

    def generate(self, rng: np.random.Generator) -> None:
        self.x = dyadic(rng, self.n, 8.0)
        self.scale = dyadic(rng, self.nb, 2.0)
        self.expected = oracles.windowed_sum(
            self.x, self.win, self.nw, self.nb, 0.0, 8.0 / self.nb, self.scale
        )

    def bind_args(self, index: int) -> tuple[Any, dict[str, Any]]:
        return self.x, {"scale": _real_vector(self.scale)}

    def _program_pass(self, engine: FreerideEngine, spans: SpanRecorder) -> np.ndarray:
        return self._run(engine, 0, spans).ro.snapshot()


# ---------------------------------------------------------------- nested cases


class NestedCase(Case):
    """The dataset is a nested Chapel value: every pass binds (Algorithm 1-2) and runs."""

    rebinds = True

    def __init__(self) -> None:
        super().__init__()
        self.value: Any = None
        self.from_python_s = 0.0

    def _records(self) -> tuple[Any, list[Any]]:
        """The dataset's element type and its records as Python values."""
        raise NotImplementedError

    def _build_value(self) -> None:
        elem_t, rows = self._records()
        t0 = time.perf_counter()
        self.value = from_python(ArrayType(Domain(len(rows)), elem_t), rows)
        self.from_python_s = time.perf_counter() - t0

    def bind_args(self, index: int) -> tuple[Any, dict[str, Any]]:
        return self.value, {}

    def _program_pass(self, engine: FreerideEngine, spans: SpanRecorder) -> np.ndarray:
        self.bound = [self._bind(0, spans)]
        return self._run(engine, 0, spans).ro.snapshot()


class PointSumCase(NestedCase):
    """``[1..n] Point``, ``Point { coord: [1..4] real; w: real }``: weighted sum."""

    def __init__(self, name: str, n: int) -> None:
        super().__init__()
        self.name, self.n = name, n
        self.elements = n

    def programs(self) -> list[Program]:
        return [Program(programs.POINT_SUM, {}, [(4, "add"), (1, "add")])]

    def generate(self, rng: np.random.Generator) -> None:
        self.coords = dyadic(rng, (self.n, 4), 8.0)
        self.weights = dyadic(rng, self.n, 2.0)
        self.expected = oracles.point_sum(self.coords, self.weights)
        self._build_value()

    def _records(self) -> tuple[Any, list[Any]]:
        point_t = record("Point", coord=array_of(REAL, 4), w=REAL)
        rows = [
            {"coord": [float(v) for v in c], "w": float(w)}
            for c, w in zip(self.coords, self.weights)
        ]
        return point_t, rows


class Figure6Case(NestedCase):
    """The paper's Figure-6 shape: ``[1..t] B``, ``B { b1: [1..4] A; b2 }``, ``A { a1: [1..5] real; a2 }``."""

    def __init__(self, name: str, t: int) -> None:
        super().__init__()
        self.name, self.t = name, t
        self.elements = t

    def programs(self) -> list[Program]:
        return [Program(programs.FIGURE6, {}, [(2, "add")])]

    def generate(self, rng: np.random.Generator) -> None:
        self.a1 = dyadic(rng, (self.t, 4, 5), 8.0)
        self.expected = oracles.figure6_sum(self.a1)
        self._build_value()

    def _records(self) -> tuple[Any, list[Any]]:
        a_t = record("A", a1=array_of(REAL, 5), a2=INT)
        b_t = record("B", b1=array_of(a_t, 4), b2=INT)
        rows = [
            {"b1": [{"a1": [float(v) for v in self.a1[i, j]], "a2": j}
                    for j in range(4)],
             "b2": i}
            for i in range(self.t)
        ]
        return b_t, rows


# ----------------------------------------------------------------- delta cases

CHURN = 0.005  # per epoch: 3/4 appended, 1/4 retracted


class DeltaCase(Case):
    """An untimed baseline, then ``epochs`` timed append+retract epochs.

    The deltas are drawn once from the seed and replayed identically on
    every pass (each pass binds a fresh copy of the base data), so the
    final reduction object has one oracle value.  Each epoch is one
    operation; the oracle check after the last epoch covers all of them.
    """

    def __init__(self, name: str, n: int, epochs: int) -> None:
        super().__init__()
        self.name, self.n, self.epochs = name, n, epochs
        self.append_n = max(1, int(n * CHURN * 0.75))
        self.retract_n = max(1, int(n * CHURN * 0.25))
        self.elements = epochs * (self.append_n + self.retract_n)
        self.base: np.ndarray = np.empty(0)
        self.appends: list[np.ndarray] = []
        self.retracts: list[np.ndarray] = []

    def _draw(self, rng: np.random.Generator, shape: Any) -> np.ndarray:
        return dyadic(rng, shape, 2.0)

    def _draw_retracts(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Disjoint retractions from the base data, so every epoch's are live."""
        picked = rng.choice(self.n, size=self.epochs * self.retract_n, replace=False)
        return [np.sort(chunk) for chunk in np.split(picked, self.epochs)]

    def generate(self, rng: np.random.Generator) -> None:
        tail = self.base_shape[1:]
        self.base = self._draw(rng, self.base_shape)
        self.appends = [
            self._draw(rng, (self.append_n, *tail)) for _ in range(self.epochs)
        ]
        self.retracts = self._draw_retracts(rng)
        everything = np.concatenate([self.base, *self.appends])
        live = np.ones(len(everything), dtype=bool)
        live[np.concatenate(self.retracts)] = False
        self.expected = self._oracle(everything, live)

    @property
    def base_shape(self) -> tuple[int, ...]:
        return (self.n,)

    def _oracle(self, everything: np.ndarray, live: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _extras(self) -> dict[str, Any]:
        return {}

    def bind_args(self, index: int) -> tuple[Any, dict[str, Any]]:
        # appends grow the bound buffer in place: every session owns a copy
        return np.array(self.base, copy=True), self._extras()

    def open_session(self, engine: FreerideEngine, spans: SpanRecorder) -> Any:
        self.bound = [self._bind(0, spans)]
        with spans.span("freeride.run_baseline", case=self.name):
            result, session = engine.run_baseline(
                bound=self.bound[0], ro_layout=self.programs()[0].layout
            )
        self._note_stats(0, result.stats)
        return session

    def kernel_binds(self) -> list[tuple[Any, list[tuple[int, str]], int]]:
        # per epoch the kernel folds one append batch and re-reads one
        # retraction batch; the baseline pass is not part of the timed pass
        batch = np.array(self.base[: self.append_n + self.retract_n], copy=True)
        bound = self.compiled[0].bind(batch, self._extras())
        return [(bound, self.programs()[0].layout, self.epochs)]

    def _pass(self, executor: str, spans: SpanRecorder) -> Outcome:
        engine = self.engines[executor]
        try:
            session = self.open_session(engine, spans)
        except Exception:
            traceback.print_exc()
            return Outcome(0.0, self.epochs, self.epochs)
        seconds = 0.0
        raised = 0
        for epoch in range(self.epochs):
            t0 = time.perf_counter()
            try:
                with spans.span("freeride.run_delta", case=self.name, epoch=epoch):
                    engine.run_delta(
                        session, append=self.appends[epoch], retract=self.retracts[epoch]
                    )
            except Exception:
                traceback.print_exc()
                raised += 1
            seconds += time.perf_counter() - t0
        ok = (
            raised == 0 and self.backend_ok
            and oracles.agrees(session.ro.snapshot(), self.expected)
        )
        return Outcome(seconds, self.epochs, 0 if ok else self.epochs)


class DeltaHistogramCase(DeltaCase):
    BINS = 16

    def programs(self) -> list[Program]:
        return [Program(programs.HISTOGRAM,
                        {"bins": self.BINS, "lo": 0.0, "width": 2.0 / self.BINS},
                        [(2, "add")] * self.BINS)]

    def _oracle(self, everything: np.ndarray, live: np.ndarray) -> np.ndarray:
        return oracles.histogram(everything[live], self.BINS, 0.0, 2.0 / self.BINS)


class DeltaKmeansCase(DeltaCase):
    K, DIM = 8, 4

    @property
    def base_shape(self) -> tuple[int, ...]:
        return (self.n, self.DIM)

    def programs(self) -> list[Program]:
        return [Program(programs.KMEANS, {"k": self.K, "dim": self.DIM},
                        [(self.DIM + 2, "add")] * self.K)]

    def generate(self, rng: np.random.Generator) -> None:
        self.centroids = dyadic(rng, (self.K, self.DIM), 2.0)
        super().generate(rng)

    def _extras(self) -> dict[str, Any]:
        return {"centroids": chapel_centroids(self.centroids)}

    def _oracle(self, everything: np.ndarray, live: np.ndarray) -> np.ndarray:
        return oracles.kmeans_iteration(everything[live], self.centroids)


class DeltaWindowMinCase(DeltaCase):
    """``roMin`` per window; each epoch's retractions cluster in 3 windows."""

    WIN = 256
    CLUSTER = 3

    def __init__(self, name: str, n: int, epochs: int) -> None:
        super().__init__(name, n, epochs)
        self.nw = max(self.CLUSTER + 1, n // self.WIN)

    def programs(self) -> list[Program]:
        return [Program(programs.WINDOW_MIN, {"win": self.WIN, "numWin": self.nw},
                        [(1, "min")] * self.nw)]

    def _draw_retracts(self, rng: np.random.Generator) -> list[np.ndarray]:
        # distinct windows per epoch keep every retraction live; the last
        # window is left alone because appends fold into it
        windows = rng.choice(
            self.nw - 1, size=self.epochs * self.CLUSTER, replace=False
        ).reshape(self.epochs, self.CLUSTER)
        out = []
        for wins in windows:
            pool = (wins[:, None] * self.WIN + np.arange(self.WIN)).reshape(-1)
            out.append(np.sort(rng.choice(pool, size=self.retract_n, replace=False)))
        return out

    def _oracle(self, everything: np.ndarray, live: np.ndarray) -> np.ndarray:
        return oracles.window_min(everything, live, self.WIN, self.nw)


# ------------------------------------------------------------------- workloads


def build_workload(name: str, smoke: bool = False) -> list[Case]:
    """The case list of one workload (inputs not generated yet).

    Each size is ``(full, smoke)``; smoke sizes exist for the self-test.
    """
    def n(full: int, small: int) -> int:
        return small if smoke else full

    if name == "dense_steady":
        return [
            KmeansCase("kmeans", n(1_000_000, 20_000)),
            PcaCase("pca", n(80_000, 2_000)),
            HistogramCase("histogram", n(6_000_000, 100_000), bins=64),
        ]
    if name == "fine_splits":
        return [
            KmeansCase("kmeans_fine", n(250_000, 10_000), chunk_size=244),
            HistogramCase("histogram_wide", n(500_000, 12_500), bins=1024,
                          chunk_size=n(15_625, 1_000)),
            WindowedCase("windowed", n(600_000, 20_000), win=n(10_000, 500),
                         chunk_size=1953),
        ]
    if name == "nested_linearize":
        return [
            PointSumCase("point_sum", n(6_000, 200)),
            Figure6Case("figure6", n(1_500, 50)),
        ]
    if name == "delta_epochs":
        epochs = n(8, 3)
        return [
            DeltaHistogramCase("delta_histogram", n(1_000_000, 20_000), epochs),
            DeltaKmeansCase("delta_kmeans", n(500_000, 10_000), epochs),
            DeltaWindowMinCase("delta_window_min", n(16_384, 4_096), epochs),
        ]
    raise ValueError(f"unknown workload {name!r}")
