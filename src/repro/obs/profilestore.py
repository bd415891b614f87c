"""Persistent run-history profiles — a recorder, never an input.

The tracer observes one engine lifetime and forgets everything at process
exit.  This module is the cross-lifetime record: every traced or untraced
:meth:`~repro.freeride.runtime.FreerideEngine.run` with a store attached
appends one compact :class:`RunProfile` record — program digest, split
layout fingerprint, technique decision, wall/phase times, split-duration
summary, lock, cache and fault counters.  Nothing reads it back into a
run: the planner decides from the run's own inputs, so a store changes
neither the plan nor the result bits.  The readers are tools:

* ``python -m repro.profile`` renders reports, diffs two snapshots for
  regressions, and garbage-collects old records;
* ``python -m repro.trace report --profile`` joins a trace against the
  history of the same digest.

Storage layout
--------------
One directory (default ``~/.cache/repro-profiles``, overridden by the
``REPRO_PROFILE_STORE`` environment variable or an explicit path) holding
append-only JSONL *segments*, one per writing process
(``segment-<host>-<pid>.jsonl``).  A writer never touches another
process's segment, and each record is appended with a single
``O_APPEND`` write, so concurrent engines — threads or separate
processes — never interleave bytes within a record.  Readers merge all
segments, sort by timestamp, and *skip* partial trailing lines (a writer
killed mid-append) with a counted warning rather than crashing.

The store is entirely opt-in: an engine constructed without one performs
zero store writes, and nothing in this module is imported on the engine's
per-split hot path.
"""

from __future__ import annotations

import json
import os
import socket
import time
import warnings
from dataclasses import asdict, dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "REPRO_PROFILE_STORE_ENV",
    "ProfileKey",
    "RunProfile",
    "ProfileStore",
    "record_run",
    "default_store_root",
    "resolve_store",
    "shape_class",
    "split_layout_fingerprint",
    "summarize_durations",
]

PROFILE_SCHEMA_VERSION = 1

#: environment override for the store root directory
REPRO_PROFILE_STORE_ENV = "REPRO_PROFILE_STORE"


def default_store_root() -> Path:
    """The store directory: ``$REPRO_PROFILE_STORE`` or ``~/.cache/repro-profiles``."""
    env = os.environ.get(REPRO_PROFILE_STORE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-profiles"


def shape_class(n_elements: int, num_threads: int) -> str:
    """The dataset-shape bucket records are grouped under.

    Exact element counts rarely repeat across runs (k-means on 60 000 vs
    59 999 points is the same workload); the class buckets ``n_elements``
    to its power-of-two ceiling and appends the thread count, so history
    matches runs of the same *scale* and parallelism.
    """
    n = max(1, int(n_elements))
    ceil = 1 << (n - 1).bit_length()
    return f"n{ceil}/t{int(num_threads)}"


def split_layout_fingerprint(ranges: Iterable[tuple[int, int]]) -> str:
    """Stable digest of a split layout's ``(start, end)`` pairs: two
    records with one fingerprint cut their data into the same splits."""
    text = ";".join(f"{int(a)}:{int(b)}" for a, b in ranges)
    return sha256(text.encode()).hexdigest()[:16]


def summarize_durations(durations: Iterable[float]) -> dict[str, float] | None:
    """Compact ``{count, mean, p50, p95, max}`` summary of split durations."""
    vals = sorted(float(d) for d in durations)
    if not vals:
        return None

    def pct(q: float) -> float:
        return vals[min(len(vals) - 1, int(q * len(vals)))]

    return {
        "count": len(vals),
        "mean": sum(vals) / len(vals),
        "p50": pct(0.50),
        "p95": pct(0.95),
        "max": vals[-1],
    }


@dataclass(frozen=True)
class ProfileKey:
    """What one run's record is filed under: the program digest and the
    fingerprint of its split layout, built by :func:`record_run` from the
    plan's layout arrays (no ``Split`` object is needed)."""

    digest: str | None
    split_fingerprint: str

    @classmethod
    def of(
        cls, digest: str | None, starts: np.ndarray, ends: np.ndarray
    ) -> "ProfileKey":
        """The key of a layout given as split start and end positions."""
        return cls(
            digest, split_layout_fingerprint(zip(starts.tolist(), ends.tolist()))
        )


@dataclass
class RunProfile:
    """One engine run's persisted record (a single JSONL line).

    Everything is JSON-native so a record survives schema-blind readers.
    """

    schema: int = PROFILE_SCHEMA_VERSION
    ts: float = 0.0
    # -- identity / keying ------------------------------------------------
    digest: str | None = None
    spec_name: str = ""
    shape_class: str = ""
    split_fingerprint: str | None = None
    # -- configuration ----------------------------------------------------
    opt_level: int | None = None
    backend: str | None = None
    effective_backend: str | None = None
    executor: str = "serial"
    workers: int = 1
    n_elements: int = 0
    num_splits: int = 0
    split_alignment: int | None = None
    # -- technique outcome ------------------------------------------------
    technique_requested: str = ""
    technique_effective: str = ""
    decision: dict[str, Any] | None = None
    coloring: dict[str, Any] | None = None
    # -- timings ----------------------------------------------------------
    wall_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    split_seconds: dict[str, float] | None = None
    # -- synchronization / caches / faults --------------------------------
    lock_acquisitions: int = 0
    native_cache: dict[str, int] | None = None
    faults: dict[str, int] = field(default_factory=dict)

    def to_line(self) -> str:
        """The record as one newline-terminated JSONL line."""
        return json.dumps(asdict(self), separators=(",", ":")) + "\n"


class ProfileStore:
    """Append-only on-disk run history (see module docstring).

    Thread- and process-safe by construction: each process appends to its
    own segment with atomic ``O_APPEND`` writes; readers merge segments.
    """

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        #: partial/undecodable lines skipped by the most recent load()
        self.skipped_lines = 0
        self._segment_fd: int | None = None
        self._segment_path: Path | None = None
        self._pid = os.getpid()

    # -- writing ----------------------------------------------------------

    def segment_path(self) -> Path:
        """This process's private segment file."""
        host = socket.gethostname().split(".")[0] or "host"
        return self.root / f"segment-{host}-{os.getpid()}.jsonl"

    def append(self, profile: RunProfile) -> Path:
        """Append one record atomically; returns the segment written to."""
        if profile.ts == 0.0:
            profile.ts = time.time()
        line = profile.to_line().encode("utf-8")
        fd = self._fd()
        # a single write(2) on an O_APPEND descriptor: concurrent appends
        # from other processes/threads cannot interleave within the record
        os.write(fd, line)
        assert self._segment_path is not None
        return self._segment_path

    def _fd(self) -> int:
        # the fd is cached per process; after a fork the child must open
        # its own segment, never inherit (and append into) the parent's
        if self._segment_fd is not None and self._pid == os.getpid():
            return self._segment_fd
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.segment_path()
        self._segment_fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._segment_path = path
        self._pid = os.getpid()
        return self._segment_fd

    def close(self) -> None:
        """Close the writer fd (appends reopen it on demand).  Idempotent."""
        if self._segment_fd is not None and self._pid == os.getpid():
            try:
                os.close(self._segment_fd)
            except OSError:
                pass
        self._segment_fd = None
        self._segment_path = None

    # -- reading ----------------------------------------------------------

    def segments(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("segment-*.jsonl"))

    def load(
        self,
        digest: str | None = None,
        shape: str | None = None,
        last: int | None = None,
    ) -> list[dict[str, Any]]:
        """All records (oldest first), optionally filtered and truncated.

        Partial trailing lines — a writer killed mid-append — and
        undecodable lines are skipped; the count lands in
        :attr:`skipped_lines` and a single warning reports it.
        """
        records: list[dict[str, Any]] = []
        skipped = 0
        for seg in self.segments():
            try:
                raw = seg.read_bytes()
            except OSError:
                continue
            for line in raw.split(b"\n"):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    skipped += 1
                    continue
                if not isinstance(rec, dict):
                    skipped += 1
                    continue
                records.append(rec)
        self.skipped_lines = skipped
        if skipped:
            warnings.warn(
                f"profile store {self.root}: skipped {skipped} partial or "
                "corrupt line(s) (a writer may have been interrupted "
                "mid-append)",
                RuntimeWarning,
                stacklevel=2,
            )
        if digest is not None:
            records = [r for r in records if r.get("digest") == digest]
        if shape is not None:
            records = [r for r in records if r.get("shape_class") == shape]
        records.sort(key=lambda r: (r.get("ts") or 0.0))
        if last is not None and last >= 0:
            records = records[len(records) - min(last, len(records)):]
        return records

    # -- retention ---------------------------------------------------------

    def gc(
        self, max_age_days: float | None = None, keep: int | None = None
    ) -> tuple[int, int]:
        """Drop old records; returns ``(kept, dropped)``.

        ``max_age_days`` drops records older than that; ``keep`` bounds the
        survivor count (newest win).  Survivors are compacted into a fresh
        segment owned by this process and every old segment is removed —
        concurrent writers keep appending to *their* segments untouched,
        so at worst a record written during the rewrite survives alongside
        the compacted file.
        """
        records = self.load()
        total = len(records)
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            records = [r for r in records if (r.get("ts") or 0.0) >= cutoff]
        if keep is not None and keep >= 0:
            records = records[len(records) - min(keep, len(records)):]
        old_segments = self.segments()
        self.close()
        if records:
            self.root.mkdir(parents=True, exist_ok=True)
            compacted = self.root / (
                f"segment-gc-{os.getpid()}-{int(time.time() * 1000)}.jsonl"
            )
            with open(compacted, "w", encoding="utf-8") as fh:
                for rec in records:
                    fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        for seg in old_segments:
            try:
                seg.unlink()
            except OSError:
                pass
        return len(records), total - len(records)


def resolve_store(
    store: "ProfileStore | str | Path | bool | None",
) -> ProfileStore | None:
    """Coerce an engine's ``profile_store`` argument into a store (or None).

    ``None``/``False`` disable profiling entirely; ``True`` opens the
    default root (env override honored); a path opens that directory; an
    existing :class:`ProfileStore` passes through.
    """
    if store is None or store is False:
        return None
    if store is True:
        return ProfileStore()
    if isinstance(store, ProfileStore):
        return store
    if isinstance(store, (str, Path)):
        return ProfileStore(store)
    raise TypeError(
        "profile_store must be a ProfileStore, path, bool or None, "
        f"got {type(store).__name__}"
    )


def record_run(
    store: ProfileStore,
    spec: Any,
    stats: Any,
    plan: Any,
    durations: "list[float] | None",
    wall_seconds: float,
) -> None:
    """Append one :class:`RunProfile` for a finished engine run.

    ``spec``/``stats`` are the run's :class:`~repro.freeride.spec.ReductionSpec`
    and :class:`~repro.freeride.runtime.RunStats`, ``plan`` its
    :class:`~repro.freeride.plan.ExecutionPlan` (whose layout arrays name
    the record) and ``durations`` the run's split durations: what worker
    processes shipped back, or what a traced run's ``split`` spans timed
    (an untraced in-process run times none).  One record per run —
    process-executor runs fold their workers' durations into it rather than
    appending per worker.  Store
    I/O failures degrade to a warning: profiling must never fail a
    computation that already succeeded.
    """
    compiled = spec.bound.compiled if spec.bound is not None else None
    key = ProfileKey.of(
        compiled.request.digest if compiled is not None else None, *plan.layout
    )
    decision = stats.technique_decision
    native_cache = None
    if compiled is not None and compiled.native_kernel is not None:
        # did this process run the C compiler, or find the ``.so`` on disk
        built = compiled.native_kernel.native.compiled
        native_cache = {"hits": int(not built), "misses": int(built)}
    profile = RunProfile(
        digest=key.digest,
        spec_name=spec.name,
        # the elements the run processed, which abandoned splits make
        # differ from the planned data's
        shape_class=shape_class(stats.total_elements, stats.num_threads),
        split_fingerprint=key.split_fingerprint if plan.num_splits else None,
        opt_level=compiled.opt_level if compiled is not None else None,
        backend=compiled.backend if compiled is not None else None,
        effective_backend=(
            compiled.effective_backend if compiled is not None else None
        ),
        executor=stats.executor,
        workers=stats.num_threads,
        n_elements=stats.total_elements,
        num_splits=plan.num_splits,
        split_alignment=stats.split_alignment,
        technique_requested=stats.technique_requested,
        technique_effective=stats.technique_effective.value,
        decision=(
            {"chosen": decision["chosen"], "reason": decision["reason"]}
            if decision is not None
            else None
        ),
        coloring=stats.coloring,
        wall_seconds=wall_seconds,
        phase_seconds=dict(stats.phase_seconds),
        split_seconds=summarize_durations(durations) if durations else None,
        lock_acquisitions=stats.sharedmem.lock_acquisitions,
        native_cache=native_cache,
        faults={
            name: value
            for name in (
                "retries", "failed_splits", "injected_faults", "requeues", "timeouts",
            )
            if (value := getattr(stats, name))
        },
    )
    try:
        store.append(profile)
    except OSError as exc:
        warnings.warn(
            f"profile store append failed: {exc!r}", RuntimeWarning, stacklevel=2
        )
