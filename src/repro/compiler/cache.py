"""Process-wide compiled-kernel cache.

``compile_reduction`` re-lowers, re-plans and re-``exec``'s kernel source on
every call; apps and benchmarks compile the same program again and again
(apriori even recompiles per counting pass).  :func:`compile_cached`
memoizes the finished :class:`~repro.compiler.translate.CompiledReduction`
keyed by ``(program digest, version, backend)``, matching the paper's
one-time translation cost model.  A kernel is the same under every
shared-memory technique, so the technique is no part of the key.
Cached objects hold no bound data — binding happens per dataset on the
shared compiled object — so reuse across callers is safe.

The in-memory cache is the first tier of a two-tier lookup: entries are
kept in an **LRU** ordered dict bounded at :func:`kernel_cache_capacity`
entries (``set_kernel_cache_capacity`` to resize; evictions are counted
and reported per run as ``RunStats.kernel_cache_evictions``).  The second
tier is the *on-disk* native-kernel cache (:mod:`repro.compiler.native`):
an evicted or cold-started ``backend="native"`` entry recompiles its
Python/batch parts but finds the compiled shared library on disk and
dlopens it without invoking the toolchain.

Hit/miss totals are exposed via :func:`kernel_cache_stats`; the engine
snapshots the counters before and after each run and reports the
*per-run deltas* as ``RunStats.kernel_cache_hits`` /
``RunStats.kernel_cache_evictions``, so back-to-back runs never inherit
each other's totals.  With tracing enabled every hit/miss also emits a
``kernel_cache.hit`` / ``kernel_cache.miss`` trace event.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any

from repro.chapel import ast as A
from repro.compiler.passes import CompilationPlan
from repro.compiler.translate import (
    BACKENDS,
    CompiledReduction,
    compile_reduction,
)
from repro.obs.tracer import get_tracer
from repro.util.errors import CompilerError

__all__ = [
    "compile_cached",
    "compile_for_digest",
    "clear_kernel_cache",
    "kernel_cache_capacity",
    "kernel_cache_stats",
    "plan_fingerprint",
    "program_digest",
    "set_kernel_cache_capacity",
]

_lock = threading.Lock()
_cache: OrderedDict[tuple[str, int, str], CompiledReduction] = OrderedDict()
_hits = 0
_misses = 0
_evictions = 0
#: Default LRU bound — generous for every realistic app mix (apps compile a
#: handful of (version, backend) variants), small enough that a
#: sweep over thousands of distinct programs cannot hold every kernel alive.
_DEFAULT_CAPACITY = 128
_capacity = _DEFAULT_CAPACITY


def kernel_cache_capacity() -> int:
    """The current LRU bound on the in-memory kernel cache."""
    with _lock:
        return _capacity


def set_kernel_cache_capacity(capacity: int) -> int:
    """Resize the LRU bound (evicting immediately if shrinking).

    Returns the previous capacity.  ``capacity`` must be >= 1.
    """
    global _capacity, _evictions
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity!r}")
    with _lock:
        previous = _capacity
        _capacity = capacity
        while len(_cache) > _capacity:
            _cache.popitem(last=False)
            _evictions += 1
    return previous


def program_digest(
    source: str | A.Program,
    constants: dict[str, Any],
    class_name: str | None = None,
) -> str:
    """Stable digest of one compilation request (program + constants)."""
    text = source if isinstance(source, str) else repr(source)
    payload = "\n".join(
        [
            text,
            json.dumps(constants, sort_keys=True, default=repr),
            class_name or "",
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def plan_fingerprint(plan: CompilationPlan) -> str:
    """Digest of the plan's decisions (site modes + hoist structure)."""
    parts = [f"opt{plan.opt_level}"]
    for sp in plan.site_plans.values():
        parts.append(f"{sp.site.expr}:{sp.site.kind}:{sp.mode}:{sp.hoist_id}")
    for hoists in list(plan.loop_hoists.values()) + list(
        plan.incremental_hoists.values()
    ):
        for h in hoists:
            parts.append(
                f"h{h.hoist_id}:{h.site.expr}:{h.incremental}:{h.step_bytes}"
            )
    return hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()[:16]


def compile_cached(
    source: str | A.Program,
    constants: dict[str, Any],
    opt_level: int = 0,
    class_name: str | None = None,
    backend: str = "scalar",
) -> CompiledReduction:
    """Like :func:`compile_reduction`, but memoized process-wide.

    The cache key is ``(program digest, opt_level, backend)``: a digest
    pins source + constants, which fully determine plan and group bounds
    at a given level, so distinct compilation outcomes can never alias.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    global _hits, _misses
    tracer = get_tracer()
    key = (program_digest(source, constants, class_name), opt_level, backend)
    with _lock:
        entry = _cache.get(key)
        if entry is not None:
            _hits += 1
            _cache.move_to_end(key)  # LRU: a hit refreshes recency
            if tracer.enabled:
                tracer.event(
                    "kernel_cache.hit", cat="cache", digest=key[0][:12],
                    opt_level=opt_level, backend=backend,
                )
            return entry
    compiled = compile_reduction(source, constants, opt_level, class_name, backend)
    global _evictions
    with _lock:
        entry = _cache.get(key)
        if entry is not None:  # lost a compile race; keep the first
            _hits += 1
            _cache.move_to_end(key)
            return entry
        _misses += 1
        _cache[key] = compiled
        while len(_cache) > _capacity:
            _cache.popitem(last=False)
            _evictions += 1
    if tracer.enabled:
        tracer.event(
            "kernel_cache.miss", cat="cache", digest=key[0][:12],
            opt_level=opt_level, backend=backend, reduction=compiled.name,
        )
    return compiled


def compile_for_digest(
    digest: str,
    source: str | A.Program,
    constants: dict[str, Any],
    opt_level: int = 0,
    class_name: str | None = None,
    backend: str = "scalar",
) -> CompiledReduction:
    """Worker-process entry: compile through the cache, verifying ``digest``.

    A process-mode worker receives the parent's program digest alongside the
    source and constants; recomputing and checking it here guarantees the
    worker keys into *its* process-wide cache exactly where the parent keyed
    into its own — a payload whose source/constants drifted from its digest
    (a serialization bug, not a user error) fails loudly instead of
    compiling a different kernel than the parent measured.
    """
    actual = program_digest(source, constants, class_name)
    if actual != digest:
        raise CompilerError(
            f"kernel payload digest mismatch: expected {digest[:12]}..., "
            f"source+constants hash to {actual[:12]}..."
        )
    return compile_cached(source, constants, opt_level, class_name, backend)


def kernel_cache_stats() -> dict[str, int]:
    """Process-wide totals: hits, misses, evictions, entries, capacity."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "evictions": _evictions,
            "entries": len(_cache),
            "capacity": _capacity,
        }


def clear_kernel_cache() -> None:
    """Drop all cached kernels and reset the counters (tests).

    The capacity is reset to the default; the on-disk native-kernel cache
    is untouched (delete its directory, or point ``REPRO_KERNEL_CACHE``
    elsewhere, to cold-start the second tier too).
    """
    global _hits, _misses, _evictions, _capacity
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
        _evictions = 0
        _capacity = _DEFAULT_CAPACITY
