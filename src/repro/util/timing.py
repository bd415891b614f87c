"""Wall-clock timing helpers for the real-execution benchmark mode."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Stopwatch", "PhaseTimer", "timed"]


@dataclass
class Stopwatch:
    """A simple accumulating stopwatch based on ``time.perf_counter``."""

    elapsed: float = 0.0
    _start: float | None = None

    def start(self) -> None:
        if self._start is not None:
            raise RuntimeError("stopwatch already running")
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop and return the elapsed time of this interval."""
        if self._start is None:
            raise RuntimeError("stopwatch not running")
        interval = time.perf_counter() - self._start
        self.elapsed += interval
        self._start = None
        return interval

    def reset(self) -> None:
        self.elapsed = 0.0
        self._start = None

    @property
    def running(self) -> bool:
        return self._start is not None


@dataclass
class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Mirrors the phase decomposition the paper discusses (linearization,
    local reduction, combination) so real runs can report the same
    breakdown the simulator produces.

    Thread-safe: concurrent ``phase`` blocks (e.g. worker-thread span
    recording) accumulate under a lock, so no update is ever lost to a
    racing read-modify-write of :attr:`phases`.
    """

    phases: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def phase(self, name: str) -> "_Phase":
        """A ``with`` block whose wall time is added to phase ``name``."""
        return _Phase(self, name)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self.phases.values())

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return dict(self.phases)


class _Phase:
    """One :meth:`PhaseTimer.phase` block (a class: a generator-based
    context manager costs several times the clock reads it wraps)."""

    __slots__ = ("timer", "name", "start")

    def __init__(self, timer: PhaseTimer, name: str) -> None:
        self.timer, self.name = timer, name

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self.start
        timer = self.timer
        with timer._lock:
            timer.phases[self.name] = timer.phases.get(self.name, 0.0) + elapsed


@contextmanager
def timed() -> Iterator[Stopwatch]:
    """Context manager yielding a stopwatch that stops on exit."""
    sw = Stopwatch()
    sw.start()
    try:
        yield sw
    finally:
        if sw.running:
            sw.stop()
