"""The C toolchain native artifacts are built with, and where they build.

The compiler is probed once per process (``REPRO_CC``); artifacts live in one
cache directory (``REPRO_KERNEL_CACHE``), built with :data:`CC_FLAGS` on a
process's build threads, one per CPU, made by its first build and joined at
exit.  The one fork hook below covers every lock the artifact path takes.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Any, Callable

from repro.util.logging import get_logger

_log = get_logger("compiler.native")

#: Everything ``cc`` is told besides the input and output paths.  The same
#: tuple is part of the on-disk cache key, so a change here can never attach
#: a shared library built with other flags.  ``-O2``: ``-O3``'s loop
#: peeling slows k-means and gains nothing on the other dense kernels
#: (docs/PERFORMANCE.md, "Counters"); ``-lm`` follows the source file on
#: the command line.
CC_FLAGS: tuple[str, ...] = ("-O2", "-fPIC", "-shared", "-lm")

#: Environment overrides.
CC_ENV = "REPRO_CC"
CACHE_ENV = "REPRO_KERNEL_CACHE"


class NativeUnsupported(Exception):
    """The native emitter cannot compile this kernel (fall back instead).

    ``toolchain`` marks process-wide failures (no C compiler, cffi
    missing) that should be reported once, not once per kernel.
    """

    def __init__(self, message: str, toolchain: bool = False) -> None:
        super().__init__(message)
        self.toolchain = toolchain


# ----------------------------------------------------------- toolchain probe

_probe_lock = threading.Lock()
_probe_state: dict[str, Any] | None = None
_toolchain_event_pending = True


def probe_toolchain() -> dict[str, Any]:
    """Probe the C toolchain once per process.

    Returns ``{"ok", "cc", "fingerprint", "reason"}``.  ``REPRO_CC``
    overrides the compiler (default ``cc``).  A failed probe logs one
    warning; :func:`take_toolchain_event` lets the compiler emit exactly
    one ``native_fallback`` trace event for it.
    """
    global _probe_state
    with _probe_lock:
        if _probe_state is not None:
            return _probe_state
        cc = os.environ.get(CC_ENV) or "cc"
        state: dict[str, Any] = {
            "ok": False, "cc": cc, "fingerprint": "", "reason": None,
        }
        try:
            import cffi  # noqa: F401
        except ImportError:
            state["reason"] = "cffi is not installed"
        else:
            try:
                version = subprocess.run(
                    [cc, "--version"], capture_output=True, text=True, timeout=30
                )
                if version.returncode != 0:
                    raise OSError(version.stderr.strip() or "cc --version failed")
                with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as td:
                    src = Path(td) / "probe.c"
                    out = Path(td) / "probe.so"
                    src.write_text("int repro_probe(void) { return 42; }\n")
                    run = subprocess.run(
                        [cc, str(src), *CC_FLAGS, "-o", str(out)],
                        capture_output=True, text=True, timeout=60,
                    )
                    if run.returncode != 0 or not out.exists():
                        raise OSError(run.stderr.strip() or "probe compile failed")
                state["ok"] = True
                state["fingerprint"] = hashlib.sha256(
                    f"{cc}\n{version.stdout.splitlines()[0] if version.stdout else ''}".encode()
                ).hexdigest()[:16]
            except (OSError, subprocess.SubprocessError, IndexError) as exc:
                state["reason"] = f"C compiler {cc!r} unusable: {exc}"
        if not state["ok"]:
            _log.warning(
                "native backend disabled for this process: %s "
                "(set %s to point at a working compiler)",
                state["reason"], CC_ENV,
            )
        _probe_state = state
        return state


def take_toolchain_event() -> bool:
    """True exactly once per process — gates the toolchain fallback event."""
    global _toolchain_event_pending
    with _probe_lock:
        if _toolchain_event_pending:
            _toolchain_event_pending = False
            return True
        return False


def reset_toolchain_probe() -> None:
    """Forget the probe result and event gate (tests only)."""
    global _probe_state, _toolchain_event_pending
    with _probe_lock:
        _probe_state = None
        _toolchain_event_pending = True


def kernel_cache_dir() -> Path:
    """The on-disk kernel cache directory (``REPRO_KERNEL_CACHE`` override)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


# ------------------------------------------------------------ build threads
#
# The locks, in the order a thread may take them: ``_runtime_lock`` (every
# runtime holder), ``_build_lock`` (the pool, the builds in flight).  A build
# takes neither, so a fork can wait for builds holding both.  One build of a
# file at a time: a second joins the one in flight.

_runtime_lock = threading.Lock()
_build_lock = threading.Lock()
_build_pool: ThreadPoolExecutor | None = None
#: ``.so`` path -> the build publishing it; finished ones are pruned on submit
_inflight: dict[Path, Future] = {}


def _build_width() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def submit(build: Callable[[], Any], so_path: Path | None = None) -> Future:
    """Run ``build`` on a build thread.  With ``so_path``, a fork waits for
    it, and a build for the same file in flight is joined instead."""
    global _build_pool
    with _build_lock:
        for path in [p for p, f in _inflight.items() if f.done()]:
            del _inflight[path]
        future = _inflight.get(so_path) if so_path is not None else None
        if future is None:
            if _build_pool is None:
                _build_pool = ThreadPoolExecutor(_build_width(), thread_name_prefix="repro-cc")
            future = _build_pool.submit(build)
            if so_path is not None:
                _inflight[so_path] = future
        return future


def _before_fork() -> None:
    # Held until the fork is done: no holder decides and no build starts.  A
    # build that names its file (a kernel, a twin, the team runtime) is waited
    # for, so a ``process`` executor's workers inherit finished builds only; a
    # build thread never waits for itself.  The walker's build is not: the
    # child re-makes the probe lock it may hold, and its holder submits the
    # child's own.
    _runtime_lock.acquire()
    _build_lock.acquire()
    if not threading.current_thread().name.startswith("repro-cc"):
        wait(list(_inflight.values()))


def _after_fork_in_parent() -> None:
    _build_lock.release()
    _runtime_lock.release()


def _after_fork_in_child() -> None:
    global _build_pool, _probe_lock
    _build_pool = None  # its threads did not survive the fork
    _inflight.clear()
    _probe_lock = threading.Lock()  # probe again if the parent's was unset
    _after_fork_in_parent()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=_after_fork_in_parent,
        after_in_child=_after_fork_in_child,
    )
