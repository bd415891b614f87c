"""repro.obs — end-to-end tracing and run records for the reproduction.

The observability layer the engine, compiler, apps and benchmarks share:

* :mod:`repro.obs.tracer` — :class:`Tracer` / :class:`Span` /
  :class:`Event`, with a no-op :data:`NULL_TRACER` fast path when
  disabled and a process-wide active tracer
  (:func:`get_tracer` / :func:`set_tracer` / :func:`tracing`);
* :mod:`repro.obs.export` — JSONL event logs and Chrome ``trace_event``
  JSON (loadable in Perfetto / ``chrome://tracing``), plus a
  dependency-free schema validator;
* :mod:`repro.obs.report` — replay a trace into the per-phase /
  per-thread decomposition the paper's figures use
  (``python -m repro.trace report <file>``);
* :mod:`repro.obs.profilestore` — the persistent cross-process run
  history behind reports and regression diffs (``python -m repro.profile``).

Quickstart::

    from repro.obs import trace_to

    with trace_to("kmeans_trace.json"):
        KmeansRunner(8, 4, version="opt-2", num_threads=4,
                     executor="threads").run(points, cents, 5)
    # -> kmeans_trace.json loads in Perfetto; also:
    #    python -m repro.trace report kmeans_trace.json
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.obs.export import (
    load_jsonl,
    load_trace,
    to_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profilestore import (
    PROFILE_SCHEMA_VERSION,
    REPRO_PROFILE_STORE_ENV,
    ProfileStore,
    RunProfile,
    default_store_root,
    resolve_store,
    shape_class,
    split_layout_fingerprint,
    summarize_durations,
)
from repro.obs.report import (
    ThreadSummary,
    TraceReport,
    format_report,
    summarize_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Event,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "Event",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "trace_to",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "load_jsonl",
    "load_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "ThreadSummary",
    "TraceReport",
    "summarize_trace",
    "format_report",
    "ProfileStore",
    "RunProfile",
    "default_store_root",
    "resolve_store",
    "shape_class",
    "split_layout_fingerprint",
    "summarize_durations",
    "PROFILE_SCHEMA_VERSION",
    "REPRO_PROFILE_STORE_ENV",
]


@contextmanager
def trace_to(
    path: "str | Path",
    tracer: Tracer | None = None,
    metadata: dict[str, Any] | None = None,
) -> Iterator[Tracer]:
    """Trace a ``with`` block and write the Chrome trace file on exit.

    The one-liner benchmarks and CLIs use to turn any run into a trace
    artifact; the file is written even if the block raises (a trace of a
    failed run is the most valuable kind).
    """
    with tracing(tracer) as t:
        try:
            yield t
        finally:
            write_chrome_trace(path, t, metadata=metadata)
