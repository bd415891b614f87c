"""Fault tolerance for the FREERIDE reduction loop.

The middleware owns the whole processing structure (split, per-thread local
reduction, local/global combination), which makes it the one place where
transient worker failures can be absorbed without the application noticing.
This module provides the two halves of that story:

:class:`FaultPolicy`
    what the engine does when processing a split raises or overruns its
    deadline: bounded retries with exponential backoff, a soft per-split
    timeout, straggler re-dispatch for the ``"threads"`` executor, and the
    terminal degradation mode (``fail_fast`` re-raises, ``skip_and_report``
    drops the split and records it in the run's stats).

:class:`FaultInjector`
    a deterministic, seeded source of injected failures and delays, keyed
    by split id, so recovery paths can be exercised reproducibly in tests
    and benchmarks.  The same ``(seed, fail_rate)`` pair always selects the
    same set of split ids.

Retry correctness is the engine's job (see ``execute.py``): under a fault
policy every attempt processes into a *fresh scratch reduction object* that
is committed to the thread's accessor only on success, so a failed attempt
leaves no partial accumulations behind and a retried split is never counted
twice.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.util.errors import FaultToleranceError
from repro.util.validation import check_nonnegative_int, check_one_of

__all__ = [
    "FaultPolicy",
    "FaultInjector",
    "InjectedFault",
    "SplitTimeout",
    "SplitFailureRecord",
    "FAIL_FAST",
    "SKIP_AND_REPORT",
]

#: Terminal degradation modes once a split exhausts its retries.
FAIL_FAST = "fail_fast"
SKIP_AND_REPORT = "skip_and_report"


class InjectedFault(FaultToleranceError):
    """A failure raised by a :class:`FaultInjector` (never by real code)."""


class SplitTimeout(FaultToleranceError):
    """An attempt exceeded :attr:`FaultPolicy.split_timeout` seconds."""


@dataclass(frozen=True)
class FaultPolicy:
    """How the engine reacts when processing a split fails.

    Parameters
    ----------
    max_retries:
        additional attempts after the first one, per split.  ``0`` means a
        single attempt.
    backoff_base:
        seconds slept before retry ``k`` is ``backoff_base * backoff_factor
        ** (k - 1)``; ``0.0`` (the default) retries immediately.
    backoff_factor:
        exponential growth factor of the backoff (>= 1).
    split_timeout:
        soft per-attempt deadline in seconds.  An attempt whose wall time
        exceeds it is discarded and treated as a failure (its scratch
        reduction object is dropped, so no partial state leaks).  ``None``
        disables the deadline.
    straggler_timeout:
        ``"threads"`` executor only: once the queue is drained, idle workers
        speculatively re-dispatch splits that have been in flight for at
        least this many seconds.  The first copy to finish commits; the
        other is discarded.  ``None`` disables re-dispatch.
    mode:
        ``"fail_fast"`` re-raises the last error once a split exhausts its
        retries; ``"skip_and_report"`` abandons the split, finishes the run,
        and records it in ``RunStats.failed_splits`` /
        ``RunStats.failed_split_ids``.
    """

    max_retries: int = 2
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    split_timeout: float | None = None
    straggler_timeout: float | None = None
    mode: str = FAIL_FAST

    def __post_init__(self) -> None:
        check_nonnegative_int(self.max_retries, "max_retries")
        check_one_of(self.mode, (FAIL_FAST, SKIP_AND_REPORT), "mode")
        if self.backoff_base < 0:
            raise FaultToleranceError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise FaultToleranceError("backoff_factor must be >= 1")
        if self.split_timeout is not None and self.split_timeout <= 0:
            raise FaultToleranceError("split_timeout must be positive or None")
        if self.straggler_timeout is not None and self.straggler_timeout <= 0:
            raise FaultToleranceError("straggler_timeout must be positive or None")

    @property
    def max_attempts(self) -> int:
        """Total attempts allowed per split (first attempt + retries)."""
        return self.max_retries + 1

    def backoff_seconds(self, retry_number: int) -> float:
        """Sleep before the ``retry_number``-th retry (1-based)."""
        if retry_number < 1 or self.backoff_base == 0.0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (retry_number - 1)


class FaultInjector:
    """Deterministic, seeded failure and delay injection, keyed by split id.

    Whether a split is selected for failure (or delay) depends only on
    ``(seed, split_id)``, never on thread interleaving or wall clock, so
    every run with the same configuration injects the same faults — the
    property the recovery tests and benchmarks rely on.

    Parameters
    ----------
    fail_rate:
        fraction of split ids selected for failure injection (0..1).
    fail_attempts:
        how many consecutive attempts of a selected split fail before it is
        allowed to succeed.  The default (1) makes the first attempt fail
        and the first retry succeed; a value >= the policy's
        ``max_attempts`` makes the split permanently faulty.
    fail_split_ids:
        explicit split ids to fail, in addition to the rate-selected ones.
    delay_rate / delay_seconds:
        fraction of split ids whose attempts sleep ``delay_seconds`` before
        processing — the knob for exercising timeouts and stragglers.
    seed:
        base seed for the per-split selection.
    """

    def __init__(
        self,
        fail_rate: float = 0.0,
        fail_attempts: int = 1,
        fail_split_ids: "set[int] | frozenset[int] | list[int] | None" = None,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= fail_rate <= 1.0:
            raise FaultToleranceError("fail_rate must be in [0, 1]")
        if not 0.0 <= delay_rate <= 1.0:
            raise FaultToleranceError("delay_rate must be in [0, 1]")
        if delay_seconds < 0:
            raise FaultToleranceError("delay_seconds must be >= 0")
        self.fail_rate = fail_rate
        self.fail_attempts = check_nonnegative_int(fail_attempts, "fail_attempts")
        self.fail_split_ids = frozenset(fail_split_ids or ())
        self.delay_rate = delay_rate
        self.delay_seconds = delay_seconds
        self.seed = seed
        #: injection counters, for introspection (the engine keeps its own
        #: per-run counters in ``RunStats``)
        self.faults_injected = 0
        self.delays_injected = 0

    # -- deterministic selection ------------------------------------------------

    def _draw(self, split_id: int, salt: str) -> float:
        # str seeds hash deterministically in random.Random regardless of
        # PYTHONHASHSEED, so selection is stable across processes.
        return random.Random(f"{self.seed}:{salt}:{split_id}").random()

    def selects_for_failure(self, split_id: int) -> bool:
        """Is ``split_id`` in the injected-failure set?"""
        if split_id in self.fail_split_ids:
            return True
        return self.fail_rate > 0 and self._draw(split_id, "fail") < self.fail_rate

    def selects_for_delay(self, split_id: int) -> bool:
        """Is ``split_id`` in the injected-delay set?"""
        return self.delay_rate > 0 and self._draw(split_id, "delay") < self.delay_rate

    def selected_failures(self, num_splits: int) -> list[int]:
        """Split ids in ``range(num_splits)`` that will fail (for tests)."""
        return [s for s in range(num_splits) if self.selects_for_failure(s)]

    # -- the hook the engine calls ----------------------------------------------

    def inject(self, split_id: int, attempt: int) -> None:
        """Called before each processing attempt; may sleep and/or raise.

        Raises :class:`InjectedFault` while ``attempt <= fail_attempts`` for
        a selected split, so retries eventually succeed (or never do, if
        ``fail_attempts`` outlasts the policy's budget).
        """
        if self.selects_for_delay(split_id) and self.delay_seconds > 0:
            self.delays_injected += 1
            time.sleep(self.delay_seconds)
        if self.selects_for_failure(split_id) and attempt <= self.fail_attempts:
            self.faults_injected += 1
            raise InjectedFault(
                f"injected fault: split {split_id}, attempt {attempt}"
            )


@dataclass
class SplitFailureRecord:
    """One abandoned split, as reported under ``skip_and_report``."""

    split_id: int
    attempts: int
    error: str = ""
    elements_lost: int = 0
