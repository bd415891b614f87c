"""The one build step of every native artifact: key, disk hit or ``cc``, load.

Kernels and their checked twins (``repro_native_*``), the lane-team runtime
(``repro_team_*``) and the linearizer walker (``repro_walk_*``) are each an
:class:`Artifact`, keyed by ``sha256(kind's parts | toolchain fingerprint |
build flags | C source)`` and built alike: a cached file that loads is a
hit; no file, or a torn or foreign one that will not load, is a miss, which
``cc`` rebuilds and republishes atomically.  Only a second load failure is
:class:`NativeUnsupported`, which each kind turns into its own fallback.
Each runtime is loaded once per process by its :class:`Runtime` holder.

``freeride.h`` is the native contract: a source's ``#include "freeride.h"``
line is replaced by the header's text before it is keyed and compiled, and
:func:`dlopen` loads a library whose functions are declared by its typedefs.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Callable

from repro.compiler.native import toolchain
from repro.compiler.native.toolchain import NativeUnsupported, kernel_cache_dir
from repro.obs.tracer import get_tracer

#: The exported symbols' name in a C source until it is keyed.
_SYMBOL_SENTINEL = "__NATIVE_SYMBOL__"

#: The line of a C source that stands for the contract.
_INCLUDE = '#include "freeride.h"\n'
_HEADER = (Path(__file__).parent / "freeride.h").read_text()
#: :func:`contract_ffi`'s one FFI, once made
_contract: list[Any] = []


def contract_ffi() -> Any:
    """``freeride.h`` parsed by cffi, once per process: every library
    :func:`dlopen` loads shares its struct and function types, which a
    second parse would not.  Racing first calls (build threads loading
    kernels) wait for one parse under the probe's lock, which a forked child
    re-makes."""
    if not _contract:
        with toolchain._probe_lock:
            if not _contract:
                import cffi

                ffi = cffi.FFI()
                ffi.cdef("\n".join(
                    line for line in _HEADER.splitlines() if not line.lstrip().startswith("#")
                ))
                _contract.append(ffi)
    return _contract[0]


def dlopen(so_path: Path, declarations: str) -> Any:
    """The cffi library at ``so_path``, whose ``declarations`` name its
    functions by ``freeride.h``'s typedefs (``freeride_ranges f;``)."""
    import cffi

    ffi = cffi.FFI()
    ffi.include(contract_ffi())
    ffi.cdef(declarations)
    return ffi.dlopen(str(so_path))

#: What loading a torn or foreign shared library raises (cffi, importlib).
_LOAD_ERRORS = (OSError, ImportError)


class Artifact:
    """One C source as a shared library in the kernel cache, keyed for the
    probed toolchain.  The flags (default :data:`CC_FLAGS`), cache directory
    and tracer are read here, so no later change of process state can split
    a build from its key.  :attr:`source` is the source ``cc`` compiles: the
    header inlined, the symbol substituted."""

    def __init__(
        self, kind: str, parts: tuple[str, ...], template: str, probe: dict[str, Any],
        load: Callable[[Path, str], Any], flags: tuple[str, ...] | None = None,
        cache_dir: Path | None = None, trace: dict[str, Any] | None = None,
    ) -> None:
        self.cc, self.flags = probe["cc"], toolchain.CC_FLAGS if flags is None else flags
        template = template.replace(_INCLUDE, _HEADER)
        self.digest = hashlib.sha256(
            "|".join((*parts, probe["fingerprint"], " ".join(self.flags), template)).encode()
        ).hexdigest()
        #: the file's stem and the exported name
        self.symbol = f"repro_{kind}_{self.digest[:16]}"
        self.source = template.replace(_SYMBOL_SENTINEL, self.symbol)
        self.so_path = (cache_dir or kernel_cache_dir()) / f"{self.symbol}.so"
        #: ``load(so_path, symbol)``; raises one of :data:`_LOAD_ERRORS` when
        #: the file will not load
        self.load = load
        #: ``(tracer, labels)`` of a kernel's ``native_cache.*`` events and
        #: ``native_compile`` span; a runtime traces neither
        self.trace = None if trace is None else (get_tracer(), trace)

    def _event(self, verdict: str, **args: Any) -> None:
        if self.trace is not None:
            tracer, labels = self.trace
            tracer.event(
                f"native_cache.{verdict}", cat="cache", **labels, digest=self.digest[:12], **args
            )

    def attach(self) -> Any:
        """Loaded from the cache; None on a miss."""
        if not self.so_path.exists():
            return None
        try:
            loaded = self.load(self.so_path, self.symbol)
        except _LOAD_ERRORS:
            return None
        self._event("hit", path=str(self.so_path))
        return loaded

    def build(self) -> tuple[Any, bool]:
        """``(loaded, compiled)``: attached, or built, published and loaded
        here.  For a build thread.  Raises :class:`NativeUnsupported` when
        ``cc`` fails or its output will not load."""
        loaded = self.attach()
        if loaded is not None:
            return loaded, False
        self._event("miss")
        span = contextlib.nullcontext()
        if self.trace is not None:
            tracer, labels = self.trace
            span = tracer.span("native_compile", cat="compiler", **labels, cc=self.cc)
        with span:
            self._publish()
        try:
            return self.load(self.so_path, self.symbol), True
        except _LOAD_ERRORS as exc:
            raise NativeUnsupported(f"cannot load {self.so_path.name}: {exc}")

    def _publish(self) -> None:
        """Compile the source into ``so_path`` (its ``.c`` beside it),
        published atomically.  Raises :class:`NativeUnsupported`."""
        cache_dir = self.so_path.parent
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp_c = cache_dir / f".{self.symbol}.{os.getpid()}.c"
        tmp_so = cache_dir / f".{self.symbol}.{os.getpid()}.so"
        try:
            tmp_c.write_text(self.source)
            run = subprocess.run(
                [self.cc, str(tmp_c), *self.flags, "-o", str(tmp_so)],
                capture_output=True, text=True, timeout=120,
            )
            if run.returncode != 0 or not tmp_so.exists():
                raise NativeUnsupported(
                    "C compilation failed: "
                    + (run.stderr.strip()[:500] or "unknown error")
                )
            os.replace(tmp_c, cache_dir / f"{self.symbol}.c")
            os.replace(tmp_so, self.so_path)
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeUnsupported(f"C compilation failed: {exc}")
        finally:
            for leftover in (tmp_c, tmp_so):
                try:
                    leftover.unlink()
                except OSError:
                    pass


class Runtime:
    """A C runtime a process loads at most once: ``start()``, called by its
    first :meth:`submit`, returns the build's future.  A forked child adopts
    its parent's build once landed; one in flight at the fork never lands
    there, so the child submits its own, reported with ``building``."""

    def __init__(self, name: str, start: Callable[[], Future], event: tuple[str, str],
                 fallback: str, **building: Any) -> None:
        self.name, self._start, self._event = name, start, event
        self._fallback, self._building = fallback, building
        #: the runtime, the build, the process whose build it is, and the
        #: process that warned
        self.loaded = self.build = self._pid = self._warned = None

    def submit(self) -> Future:
        """This process's build, submitted by its first call."""
        pid, orphaned = os.getpid(), False
        if self._pid != pid:
            with toolchain._runtime_lock:
                if self._pid != pid:  # the first call of this process
                    orphaned = self.build is not None and not self.build.done()
                    if self.build is None or orphaned:
                        try:
                            self.build = self._start()
                        except NativeUnsupported as exc:
                            self.build = Future()
                            self.build.set_exception(exc)
                    self._pid = pid
        if orphaned:
            self.report(NativeUnsupported(
                f"the parent's {self.name} build was in flight at the fork: "
                "this process builds its own"
            ), **self._building)
        return self.build  # type: ignore[return-value]

    def get(self, wait: bool = False) -> Any:
        """The runtime; None while its build is in flight, unless ``wait``.
        Raises what the build raised."""
        if self.loaded is None:
            build = self.submit()
            if wait or build.done():
                self.loaded = build.result()
        return self.loaded

    def landed(self) -> Any:
        """The runtime once this process has it, else None: while its build
        is unsubmitted or in flight, and where it failed.  Starts, waits
        for and raises nothing."""
        if self.loaded is None:
            build = self.build
            if build is None or not build.done() or build.exception() is not None:
                return None
            self.loaded = build.result()
        return self.loaded

    def report(self, exc: BaseException, **args: Any) -> None:
        """The runtime is missing: its trace event each time, and one warning
        per process (none for a failed probe, which has warned)."""
        reason = str(exc) or type(exc).__name__
        get_tracer().event(self._event[0], cat=self._event[1], reason=reason, **args)
        pid = os.getpid()
        with toolchain._runtime_lock:
            first, self._warned = self._warned != pid, pid
        if first and not getattr(exc, "toolchain", False):
            toolchain._log.warning(
                "%s unavailable, %s: %s", self.name, self._fallback, reason,
                exc_info=None if isinstance(exc, (NativeUnsupported, *_LOAD_ERRORS)) else exc,
            )
