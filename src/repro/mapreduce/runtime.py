"""A Phoenix-style Map-Reduce runtime — the paper's structural comparator.

Figure 4 (right) shows the Map-Reduce processing structure the paper argues
against for data mining: all elements are processed in the map step, the
intermediate ``(key, value)`` pairs are **stored**, sorted and grouped, and
only then reduced.  FREERIDE fuses process+reduce per element and therefore
"avoids the overhead due to sorting, grouping, and shuffling ... [and] the
need for storage of intermediate (key, value) pairs".

This engine makes those overheads measurable: it counts every intermediate
pair, its storage bytes, and the sort/group work, so the Figure 4 ablation
benchmark can report exactly what FREERIDE saves.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.freeride.splitter import SplitQueue, chunked_splitter, default_splitter
from repro.util.errors import ReproError
from repro.util.timing import PhaseTimer
from repro.util.validation import check_one_of, check_positive_int

__all__ = ["MapReduceStats", "MapReduceResult", "MapReduceEngine"]

#: ``map_fn(element, emit)`` calls ``emit(key, value)`` any number of times.
MapFn = Callable[[Any, Callable[[Hashable, Any], None]], None]
#: ``reduce_fn(key, values) -> reduced value`` over the grouped values.
ReduceFn = Callable[[Hashable, list[Any]], Any]
#: Optional map-side combiner with reduce semantics.
CombineFn = ReduceFn


@dataclass
class MapReduceStats:
    """Overhead accounting for one job."""

    num_threads: int = 1
    total_elements: int = 0
    pairs_emitted: int = 0
    pairs_after_combine: int = 0
    intermediate_bytes: int = 0
    sort_comparisons: int = 0
    distinct_keys: int = 0
    elements_per_thread: list[int] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class MapReduceResult:
    """Final key -> reduced-value mapping plus overhead stats."""

    output: dict[Hashable, Any]
    stats: MapReduceStats


class _CountingKey:
    """Sort key wrapper that counts comparisons for the stats."""

    __slots__ = ("key", "counter")

    def __init__(self, key: Any, counter: list[int]) -> None:
        self.key = key
        self.counter = counter

    def __lt__(self, other: "_CountingKey") -> bool:
        self.counter[0] += 1
        return self.key < other.key


class MapReduceEngine:
    """Runs map -> sort/group -> reduce jobs with overhead accounting.

    Parameters mirror :class:`~repro.freeride.runtime.FreerideEngine` so the
    Figure 4 comparison holds everything but the processing structure fixed.
    """

    def __init__(
        self,
        num_threads: int = 1,
        executor: str = "serial",
        chunk_size: int | None = None,
        use_combiner: bool = False,
    ) -> None:
        self.num_threads = check_positive_int(num_threads, "num_threads")
        self.executor = check_one_of(executor, ("serial", "threads"), "executor")
        if chunk_size is not None:
            check_positive_int(chunk_size, "chunk_size")
        self.chunk_size = chunk_size
        self.use_combiner = use_combiner

    def run(
        self,
        map_fn: MapFn,
        reduce_fn: ReduceFn,
        data: Sequence[Any],
        combine_fn: CombineFn | None = None,
    ) -> MapReduceResult:
        """Execute one Map-Reduce job over ``data``."""
        if not callable(map_fn) or not callable(reduce_fn):
            raise ReproError("map_fn and reduce_fn must be callable")
        if self.use_combiner and combine_fn is None:
            combine_fn = reduce_fn

        timer = PhaseTimer()
        stats = MapReduceStats(num_threads=self.num_threads)

        if self.chunk_size is not None:
            splits = chunked_splitter(data, self.chunk_size)
        else:
            splits = default_splitter(data, self.num_threads)

        # ---- Map phase: every element processed, pairs buffered ----------
        buffers: list[list[tuple[Hashable, Any]]] = [
            [] for _ in range(self.num_threads)
        ]
        elems = [0] * self.num_threads

        def map_split(thread_id: int, split) -> None:
            buf = buffers[thread_id]
            emit = lambda k, v: buf.append((k, v))  # noqa: E731 - hot path
            for element in split.data:
                map_fn(element, emit)
                elems[thread_id] += 1

        with timer.phase("map"):
            if self.executor == "serial":
                for i, split in enumerate(splits):
                    if len(split):
                        map_split(i % self.num_threads, split)
            else:
                queue = SplitQueue(range(len(splits)))

                def worker(thread_id: int) -> None:
                    while (pos := queue.take()) is not None:
                        if len(splits[pos]):
                            map_split(thread_id, splits[pos])

                with ThreadPoolExecutor(max_workers=self.num_threads) as pool:
                    for f in [
                        pool.submit(worker, t) for t in range(self.num_threads)
                    ]:
                        f.result()

        stats.total_elements = sum(elems)
        stats.elements_per_thread = elems
        stats.pairs_emitted = sum(len(b) for b in buffers)

        # ---- Optional map-side combine (per thread buffer) ----------------
        with timer.phase("combine"):
            if combine_fn is not None:
                combined_buffers = []
                for buf in buffers:
                    grouped: dict[Hashable, list[Any]] = defaultdict(list)
                    for k, v in buf:
                        grouped[k].append(v)
                    combined_buffers.append(
                        [(k, combine_fn(k, vs)) for k, vs in grouped.items()]
                    )
                buffers = combined_buffers

        all_pairs = [pair for buf in buffers for pair in buf]
        stats.pairs_after_combine = len(all_pairs)
        stats.intermediate_bytes = sum(
            sys.getsizeof(k) + sys.getsizeof(v) for k, v in all_pairs
        )

        # ---- Sort and group ("Sort (i,val) pairs using i") -----------------
        with timer.phase("sort_group"):
            counter = [0]
            all_pairs.sort(key=lambda kv: _CountingKey(kv[0], counter))
            stats.sort_comparisons = counter[0]
            groups: list[tuple[Hashable, list[Any]]] = []
            for k, v in all_pairs:
                if groups and groups[-1][0] == k:
                    groups[-1][1].append(v)
                else:
                    groups.append((k, [v]))
            stats.distinct_keys = len(groups)

        # ---- Reduce phase ("Reduce to compute each RObj(i)") ---------------
        with timer.phase("reduce"):
            output = {k: reduce_fn(k, vs) for k, vs in groups}

        stats.phase_seconds = timer.as_dict()
        return MapReduceResult(output=output, stats=stats)
