"""Process-wide compiled-kernel cache.

``compile_reduction`` re-lowers, re-plans and re-``exec``'s kernel source on
every call; apps and benchmarks compile the same program again and again
(apriori even recompiles per counting pass).  A compilation is identified by
one value, :class:`CompileRequest` — source, constants, class name, opt level
and backend — and :func:`compile_cached` memoizes the finished
:class:`~repro.compiler.translate.CompiledReduction` under its
:attr:`~CompileRequest.key`, matching the paper's one-time translation cost
model.  A kernel is the same under every shared-memory technique, so the
technique is no part of the key.  Cached objects hold no bound data, so
reuse across callers is safe; each keeps its request (``.request``): the
profile store keys on its digest, and the process executor ships it to the
workers, which look it up in *their* copy of this cache.

The in-memory cache is the first tier of a two-tier lookup: entries are
kept in an **LRU** ordered dict bounded at :data:`CAPACITY` entries.  The
second tier is the *on-disk* native-kernel cache
(:mod:`repro.compiler.native`), content-addressed by the emitted C: an
evicted or cold-started ``backend="native"`` entry recompiles its
Python/batch parts but finds the compiled shared library on disk and
dlopens it without invoking the toolchain.

Hit/miss/eviction totals are exposed via :func:`kernel_cache_stats`; with
tracing enabled every hit/miss also emits a ``kernel_cache.hit`` /
``kernel_cache.miss`` trace event.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.chapel import ast as A
from repro.compiler.translate import BACKENDS, CompiledReduction, compile_request
from repro.obs.tracer import get_tracer
from repro.util.errors import CompilerError

__all__ = [
    "CAPACITY",
    "CompileRequest",
    "compile_cached",
    "clear_kernel_cache",
    "kernel_cache_stats",
    "program_digest",
]

#: LRU bound of the in-memory tier — generous for every realistic app mix
#: (apps compile a handful of (version, backend) variants), small enough that
#: a sweep over thousands of distinct programs cannot hold every kernel alive.
CAPACITY = 128

_lock = threading.Lock()
_cache: OrderedDict[tuple[str, int, str], CompiledReduction] = OrderedDict()
_hits = 0
_misses = 0
_evictions = 0


def _plain(name: str, value: Any) -> Any:
    """A constant as the plain value both the digest and the lowering read."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_plain(name, v) for v in value)
    raise CompilerError(
        f"constant {name!r} must be None, a bool, int, float or str, or a "
        f"list/tuple of them (compile-time values for scalar class fields), "
        f"got {type(value).__name__}"
    )


def program_digest(
    source: str | A.Program,
    constants: dict[str, Any],
    class_name: str | None = None,
) -> str:
    """Stable digest of a program and its constants (as :func:`_plain` values)."""
    text = source if isinstance(source, str) else repr(source)
    plain = {name: _plain(name, v) for name, v in constants.items()}
    payload = "\n".join([text, json.dumps(plain, sort_keys=True), class_name or ""])
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class CompileRequest:
    """What identifies a compiled kernel: one picklable value, one key.

    Construction normalises the constants (NumPy scalars become Python
    scalars, sequences tuples) and refuses what its text would not pin — an
    array, an arbitrary object — so equal requests digest equally in every
    process and distinct ones never alias.
    """

    source: str | A.Program
    constants: dict[str, Any]
    class_name: str | None = None
    opt_level: int = 0
    backend: str = "scalar"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        plain = {name: _plain(name, v) for name, v in self.constants.items()}
        object.__setattr__(self, "constants", plain)

    @cached_property
    def digest(self) -> str:
        """:func:`program_digest` of source + constants + class name: the
        program's identity across opt levels and backends (profile store)."""
        return program_digest(self.source, self.constants, self.class_name)

    @property
    def key(self) -> tuple[str, int, str]:
        """The kernel-cache key, here and in every worker process."""
        return (self.digest, self.opt_level, self.backend)

    def compile(self) -> CompiledReduction:
        """This request's kernel from the process-wide cache, compiling on a
        miss.  The digest pins source + constants, which determine plan and
        group bounds at a level: distinct outcomes can never alias."""
        global _hits, _misses, _evictions
        tracer = get_tracer()
        key = self.key
        with _lock:
            entry = _cache.get(key)
            if entry is not None:
                _hits += 1
                _cache.move_to_end(key)  # LRU: a hit refreshes recency
                if tracer.enabled:
                    tracer.event(
                        "kernel_cache.hit", cat="cache", digest=key[0][:12],
                        opt_level=self.opt_level, backend=self.backend,
                    )
                return entry
        compiled = compile_request(self)
        with _lock:
            entry = _cache.get(key)
            if entry is not None:  # lost a compile race; keep the first
                _hits += 1
                _cache.move_to_end(key)
                return entry
            _misses += 1
            _cache[key] = compiled
            while len(_cache) > CAPACITY:
                _cache.popitem(last=False)
                _evictions += 1
        if tracer.enabled:
            tracer.event(
                "kernel_cache.miss", cat="cache", digest=key[0][:12],
                opt_level=self.opt_level, backend=self.backend,
                reduction=compiled.name,
            )
        return compiled


def compile_cached(
    source: str | A.Program,
    constants: dict[str, Any],
    opt_level: int = 0,
    class_name: str | None = None,
    backend: str = "scalar",
) -> CompiledReduction:
    """Like :func:`compile_reduction`, but memoized process-wide under
    :attr:`CompileRequest.key`."""
    return CompileRequest(source, constants, class_name, opt_level, backend).compile()


def kernel_cache_stats() -> dict[str, int]:
    """Process-wide totals: hits, misses, evictions, entries, capacity."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "evictions": _evictions,
            "entries": len(_cache),
            "capacity": CAPACITY,
        }


def clear_kernel_cache() -> None:
    """Drop all cached kernels and reset the counters (tests).

    The on-disk native-kernel cache is untouched (delete its directory, or
    point ``REPRO_KERNEL_CACHE`` elsewhere, to cold-start the second tier
    too).
    """
    global _hits, _misses, _evictions
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
        _evictions = 0
