"""The lane team: FREERIDE's daemon threads (the paper's Fig 4) for native waves.

A :class:`LaneTeam` is ``W`` threads, each parked for its whole life inside
one cffi call into ``team.c`` — GIL released — and woken per wave through a
futex.  A lane claims ``ceil(pending / (2 W))`` split positions at a time by
compare-and-swap and passes each claim to the kernel's ``freeride_ranges``
entry, through its function pointer, with its own ``struct freeride_ro``.
``freeride.h`` holds the structs for the C and the cffi side alike; a wave is
positions ``[0, n)``, the first ``cut`` in segment 0; position ``joined``
(-1: none) continues the range before it, so it is no split of its own.

The same runtime carries ``epoch.c``, a delta epoch's bookkeeping loops,
which :mod:`repro.freeride.delta` takes once the runtime has landed: one
runtime ``cc`` per process.
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
from concurrent.futures import Future
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.compiler.native import artifact, toolchain
from repro.compiler.native.printer import _COUNTER_FIELDS
from repro.compiler.native.toolchain import NativeUnsupported, probe_toolchain
from repro.freeride import delta
from repro.freeride.reduction_object import aligned_empty

#: team.c then epoch.c, one translation unit
_SOURCE = "".join((Path(__file__).parent / name).read_text() for name in ("team.c", "epoch.c"))
#: the runtime's entries, as :class:`_TeamRuntime` names them, and their
#: ``freeride.h`` types
_ENTRIES = {
    "lane": "freeride_lane_main", "run": "freeride_wave", "stop": "freeride_stop",
    "retract": "freeride_retract", "live_runs": "freeride_live_runs",
    "commit_save": "freeride_commit_save", "commit_apply": "freeride_commit_apply",
}

#: A lane's counter row, in float64s: whole cache lines, so no two lanes'
#: per-range counter stores share one.
_TEAM_COUNTER_STRIDE = -(-len(_COUNTER_FIELDS) // 8) * 8


class _TeamRuntime(NamedTuple):
    lib: Any  # the dlopen'd library, alive as long as its functions are used
    lane: Any
    run: Any
    stop: Any
    retract: Any
    live_runs: Any
    commit_save: Any
    commit_apply: Any
    #: the contract's FFI, whose types the functions take
    ffi: Any


def _load(so_path: Path, symbol: str) -> _TeamRuntime:
    lib = artifact.dlopen(
        so_path, " ".join(f"{typedef} {symbol}_{fn};" for fn, typedef in _ENTRIES.items())
    )
    return _TeamRuntime(
        lib, *(getattr(lib, f"{symbol}_{fn}") for fn in _ENTRIES), artifact.contract_ffi()
    )


def _start() -> Future:
    if not sys.platform.startswith("linux"):
        raise NativeUnsupported(
            f"lane teams park on futexes, which {sys.platform} does not have"
        )
    probe = probe_toolchain()
    if not probe["ok"]:
        raise NativeUnsupported(probe["reason"], toolchain=True)
    art = artifact.Artifact("team", ("team",), _SOURCE, probe, _load)
    return toolchain.submit(lambda: art.build()[0], art.so_path)


#: The runtime, built beside the process's first native build.  Where it
#: cannot exist, each wave that wanted a team runs inline, loudly.
RUNTIME = artifact.Runtime(
    "native lane team", _start, ("native_team", "compiler"), "threaded waves run inline"
)

# a delta session takes epoch.c's loops from the landed runtime; until it
# lands, and where it cannot exist, epochs run the NumPy path
delta.use_epoch_runtime(RUNTIME.landed)


def _retire_team(pid: int, lock: threading.Lock, rt: _TeamRuntime, team: Any,
                 threads: tuple[threading.Thread, ...], *keep: Any) -> None:
    """Stop and join a team's lanes; ``keep`` is the memory they use.  In a
    forked child there are no lanes to stop (and a parent thread may have
    held ``lock`` at the fork)."""
    if os.getpid() != pid:
        return
    with lock:
        rt.stop(team)
        for thread in threads:
            if thread.ident is not None:
                thread.join()


class LaneTeam:
    """``lanes`` persistent threads, named ``freeride_<k>``, that run batched
    native waves (see the module docstring).

    :meth:`run` is one wave, one at a time per team; :meth:`close` stops and
    joins the lanes (also when the team is garbage collected).  Raises
    :class:`NativeUnsupported` when no team can exist here: no futex on the
    platform, a failed runtime build, a thread that cannot start.
    """

    def __init__(self, lanes: int) -> None:
        rt = RUNTIME.get(wait=True)
        self._ffi = ffi = artifact.contract_ffi()
        self.lanes = lanes
        self._rt = rt
        self._team = team = ffi.new("struct freeride_team *")
        self._lane = lane = ffi.new("struct freeride_lane[]", lanes)
        team.lanes, team.lane = lanes, lane
        self.counters = aligned_empty(lanes * _TEAM_COUNTER_STRIDE, np.float64).reshape(
            lanes, _TEAM_COUNTER_STRIDE
        )
        for k in range(lanes):
            lane[k].counters = ffi.cast("double *", self.counters[k].ctypes.data)
        self._wave_lock = threading.Lock()
        self._pid: int | None = os.getpid()
        #: the lane threads, lane ``k`` at ``k``
        self.threads = threads = tuple(
            threading.Thread(
                target=rt.lane, args=(team, k), name=f"freeride_{k}", daemon=True
            )
            for k in range(lanes)
        )
        self._retire = weakref.finalize(
            self, _retire_team, os.getpid(), self._wave_lock, rt, team, threads,
            lane, self.counters,
        )
        try:
            for thread in threads:
                thread.start()
        except RuntimeError as exc:  # the OS refused a thread
            self._retire()
            raise NativeUnsupported(f"cannot start a lane thread: {exc}")

    @property
    def alive(self) -> bool:
        """False once closed, or in a forked child (which has no lanes)."""
        return self._pid == os.getpid()

    def close(self) -> None:
        """Stop and join the lanes.  Idempotent."""
        self._pid = None
        self._retire()

    def run(
        self,
        segments: "list[tuple[np.ndarray, np.ndarray, int, list[np.ndarray]]]",
        joined: int,
        targets: "list[tuple[Any, Any]]",
    ) -> "list[tuple[int, int, int, list[float]]]":
        """One wave over one or two ``(starts, ends, element base, data
        buffers)`` segments, lane ``k`` running ``targets[k]``: a
        ``freeride_ranges *`` and the ``struct freeride_ro *`` it stores
        through, which the caller keeps alive.

        Returns ``(rc, splits, elements, counters)`` per lane that took part:
        the first ``min(lanes, positions)``.
        """
        ffi, team, lane = self._ffi, self._team, self._lane
        if len(segments) == 1:
            starts, ends = segments[0][0], segments[0][1]
        else:
            starts = np.concatenate([seg[0] for seg in segments])
            ends = np.concatenate([seg[1] for seg in segments])
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        ends = np.ascontiguousarray(ends, dtype=np.int64)
        c_starts = ffi.from_buffer("long long[]", starts)
        c_ends = ffi.from_buffer("long long[]", ends)
        c_bufs = []
        for _, _, _, buffers in segments:
            c_bufs.append(ffi.new("const unsigned char *[]", max(1, len(buffers))))
            for i, buf in enumerate(buffers):
                c_bufs[-1][i] = ffi.from_buffer("const unsigned char[]", buf)
        n = len(starts)
        active = min(self.lanes, n)
        with self._wave_lock:
            if not self.alive:
                raise RuntimeError("the lane team is closed")
            team.n, team.joined = n, joined
            team.cut = len(segments[0][0])
            team.starts, team.ends = c_starts, c_ends
            team.bufs[0], team.bufs[1] = c_bufs[0], c_bufs[-1]
            team.e0[0], team.e0[1] = segments[0][2], segments[-1][2]
            for k in range(active):
                lane[k].fn, lane[k].ro = targets[k]
            counters = self.counters[:active]
            counters.fill(0.0)
            self._rt.run(team, active)
            counts = counters[:, : len(_COUNTER_FIELDS)].tolist()
            return [
                (lane[k].rc, lane[k].splits, lane[k].elements, counts[k])
                for k in range(active)
            ]


def lane_team(owner: Any, lanes: int) -> "LaneTeam | None":
    """``owner.team``, made on first use (and again in a forked child);
    ``None`` when no team can exist here (reported by :data:`RUNTIME`)."""
    team = owner.team
    if team is not None and team.alive:
        return team
    try:
        team = owner.team = LaneTeam(lanes)
    except NativeUnsupported as exc:
        RUNTIME.report(exc, lanes=lanes)
        return None
    return team
