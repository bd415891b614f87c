"""The benchmark's own in-memory spans, recorded around public calls.

The program under test is timed from outside: nothing here reaches into
``src/``.  A span is (name, start, end, parent, ids); ids carry the
workload, case, executor and round a span belongs to and are inherited
from the enclosing span.  Spans stay in memory and are
written as Chrome ``trace_event`` JSON when the run ends.  A disabled
recorder hands out one shared no-op context manager, so the end-to-end
runs pay a method call and nothing else.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec: "SpanRecorder", index: int) -> None:
        self.rec = rec
        self.index = index

    def __enter__(self) -> "_Span":
        self.rec.records[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.rec.records[self.index][2] = time.perf_counter()
        self.rec._stack.pop()


class SpanRecorder:
    """Records spans from the one driver thread of a benchmark run."""

    def __init__(self, enabled: bool, **common_ids: Any) -> None:
        self.enabled = enabled
        self.common_ids = common_ids
        #: [name, start, end, parent index or None, ids]
        self.records: list[list[Any]] = []
        self._stack: list[int] = []

    def span(self, name: str, **ids: Any) -> "_Span | _NullSpan":
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            # a span belongs to the round, executor and case of the span around it
            ids = {**self.records[parent][4], **ids}
        index = len(self.records)
        self.records.append([name, 0.0, 0.0, parent, ids])
        self._stack.append(index)
        return _Span(self, index)

    # -- queries ---------------------------------------------------------------

    def durations(self, name: str, **ids: Any) -> list[float]:
        """Durations of every finished span called ``name`` matching ``ids``."""
        return [
            end - start
            for n, start, end, _parent, span_ids in self.records
            if n == name and all(span_ids.get(k) == v for k, v in ids.items())
        ]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [end - start for _n, start, end, _p, _ids in self.records]
        for _n, start, end, parent, _ids in self.records:
            if parent is not None:
                own[parent] -= end - start
        return own

    # -- export ----------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome ``trace_event`` JSON (Perfetto-loadable)."""
        if not self.records:
            origin = 0.0
        else:
            origin = min(rec[1] for rec in self.records)
        own = self.self_times()
        events = []
        for index, (name, start, end, parent, ids) in enumerate(self.records):
            args = dict(self.common_ids)
            args.update(ids)
            args["span"] = index
            args["parent"] = parent
            args["self_us"] = round(own[index] * 1e6, 3)
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
