"""Native-code backend: lowered kernel IR -> C -> shared library (JIT).

The third compiled backend (``backend="native"``).  Here is a kernel's path:
:func:`submit_native` probes, prints (:mod:`.printer`) and keys it, the one
build step of every C artifact (:mod:`.artifact`) attaches or builds it, and
:func:`make_native_kernel` wraps the loaded C function for the tiers.  The
same step builds :mod:`.team`'s and :mod:`.walker`'s C runtimes.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.compiler.lower import LoweredReduction
from repro.compiler.native import artifact, team, toolchain
from repro.compiler.native.printer import (
    _COUNTER_FIELDS,
    _IDX_RO_UPDATES,
    _RC_MESSAGES,
    PREFETCH_DISTANCE,
    NativeCodegen,
)
from repro.compiler.native.team import LaneTeam, lane_team
from repro.compiler.native.toolchain import (
    CACHE_ENV,
    CC_ENV,
    CC_FLAGS,
    NativeUnsupported,
    kernel_cache_dir,
    probe_toolchain,
    reset_toolchain_probe,
    take_toolchain_event,
)
from repro.compiler.native.walker import linearizer
from repro.compiler.passes import CompilationPlan
from repro.freeride.reduction_object import aligned_empty
from repro.obs.tracer import get_tracer

__all__ = [
    "CC_FLAGS",
    "LaneTeam",
    "NATIVE_FORMAT_VERSION",
    "NativeBuild",
    "NativeCodegen",
    "NativeKernel",
    "NativeUnsupported",
    "PREFETCH_DISTANCE",
    "compile_native",
    "kernel_cache_dir",
    "lane_team",
    "linearizer",
    "make_native_kernel",
    "probe_toolchain",
    "proof_mask",
    "reset_toolchain_probe",
    "submit_native",
]

#: Bump on any change to the generated C's calling convention or layout —
#: part of every on-disk cache key, so stale artifacts are never dlopen'd.
NATIVE_FORMAT_VERSION = 6


@dataclass
class NativeKernel:
    """A compiled-to-machine-code kernel plus everything to invoke it."""

    #: the C ``cc`` compiled (``freeride.h`` inlined), as its ``.c`` beside
    #: ``so_path`` holds it
    source: str
    symbol: str
    so_path: Path
    buf_order: tuple[int, ...]
    lib: Any  # the dlopen'd library, alive as long as ``fn`` is used
    fn: Any
    #: True when this process ran the C compiler (False = disk-cache hit)
    compiled: bool
    #: ``(glo, ghi, ehi, opcode)`` per proof site, in ``_proven`` bit order
    proofs: tuple[tuple[int, int, int, int], ...]
    #: the on-disk cache key (sha256 hex) the symbol is named after
    digest: str
    #: the checked twin, submitted on the first call and waited for (raises
    #: :class:`NativeUnsupported` if its ``cc`` fails); None for a kernel
    #: without proof sites and for the twin itself
    twin: Callable[[], NativeKernel] | None = None


class NativeBuild(NamedTuple):
    """A native compile as :func:`submit_native` returns it."""

    #: the printed C, symbol substituted; it includes ``freeride.h`` by name
    source: str
    symbol: str
    #: resolves to the :class:`NativeKernel` (already resolved on a disk hit);
    #: its result raises :class:`NativeUnsupported` when ``cc`` fails
    kernel: Future


def submit_native(
    lowered: LoweredReduction,
    plan: CompilationPlan,
    summary: Any = None,
) -> NativeBuild:
    """Emit the native kernel and start its build; returns without ``cc``.

    The caller's half runs here: the toolchain probe, the C emission and the
    key.  A warm start dlopens the cached ``.so`` right here, with zero
    toolchain invocations; a miss builds on a build thread.  A kernel with
    proof sites carries its checked twin as :attr:`NativeKernel.twin`, built
    the same way when a layout first needs it.  The process's first call
    also submits the lane team's runtime, so a threaded wave never waits for
    ``cc``.  Raises :class:`NativeUnsupported` for an unusable toolchain and
    a kernel the emitter refuses; :attr:`NativeBuild.kernel`'s result raises
    it where ``cc`` fails or its output will not load.
    """
    probe = probe_toolchain()
    if not probe["ok"]:
        raise NativeUnsupported(probe["reason"], toolchain=True)
    build = _submit_emitted(NativeCodegen(lowered, plan, summary=summary), probe)
    team.RUNTIME.submit()  # beside the process's first native build
    return build


def _on_first_call(submit: Callable[[], NativeBuild]) -> Callable[[], NativeKernel]:
    """``submit``'s kernel, submitted by the first call.  Racing first calls
    may both submit; the build path joins them to one ``cc`` run."""
    builds: list[Future] = []

    def kernel() -> NativeKernel:
        if not builds:
            builds.append(submit().kernel)
        return builds[0].result()

    return kernel


def _submit_emitted(gen: NativeCodegen, probe: dict[str, Any]) -> NativeBuild:
    """:func:`submit_native` from the printer on: emit, key, attach or build."""
    lowered, plan, summary = gen.low, gen.plan, gen.summary
    template = gen.generate()
    twin = None
    if gen.proofs and not gen.checked:
        twin = _on_first_call(lambda: _submit_emitted(
            NativeCodegen(lowered, plan, summary=summary, checked=True), probe
        ))
    art = artifact.Artifact(
        "native", (f"v{NATIVE_FORMAT_VERSION}",), template, probe, _load,
        trace={"reduction": lowered.name, "opt_level": plan.opt_level},
    )

    def kernel(loaded: tuple[Any, Any], compiled: bool) -> NativeKernel:
        return NativeKernel(
            art.source, art.symbol, art.so_path, tuple(gen.buf_order), *loaded,
            compiled, tuple(gen.proofs), art.digest, twin,
        )

    loaded = art.attach()  # a warm start never leaves the caller
    if loaded is None:
        future = toolchain.submit(lambda: kernel(*art.build()), art.so_path)
    else:
        future = Future()
        future.set_result(kernel(loaded, False))
    return NativeBuild(template.replace(artifact._SYMBOL_SENTINEL, art.symbol), art.symbol, future)


def _load(so_path: Path, symbol: str) -> tuple[Any, Any]:
    """The kernel's ``(lib, fn)``."""
    lib = artifact.dlopen(so_path, f"freeride_ranges {symbol};")
    return lib, getattr(lib, symbol)


def compile_native(
    lowered: LoweredReduction,
    plan: CompilationPlan,
    summary: Any = None,
) -> NativeKernel:
    """:func:`submit_native`, then its result (raises :class:`NativeUnsupported`)."""
    return submit_native(lowered, plan, summary).kernel.result()


def proof_mask(proofs: tuple[tuple[int, int, int, int], ...], store: Any) -> int:
    """The ``_proven`` mask of a kernel's proof sites on ``store``'s layout.

    Bit ``s`` is set iff site ``s``'s groups ``[glo, ghi]`` all exist, are
    declared with its op and hold more than ``ehi`` elements: then none of
    its three checks can fail for indices inside its bounds.
    """
    mask = 0
    for bit, (glo, ghi, ehi, opcode) in enumerate(proofs):
        groups = slice(glo, ghi + 1)
        if (
            ghi < len(store.nelems)
            and (store.opcodes[groups] == opcode).all()
            and (store.nelems[groups] > ehi).all()
        ):
            mask |= 1 << bit
    return mask


#: data buffers a thread's call state remembers the pointers of
_HELD_BUFFERS = 8


class _ThreadState(NamedTuple):
    """One thread's call state of one kernel."""

    counters: np.ndarray
    c_counters: Any
    #: store -> prepared call arguments
    targets: weakref.WeakKeyDictionary
    #: the data buffers' pointers, one slot per buffer the kernel reads
    c_bufs: Any
    #: ``id(buffer) -> (weak reference to it, its pointer)`` of the data
    #: buffers seen lately (a dataset's prefix and its tail, an extra)
    held: dict


def make_native_kernel(native: NativeKernel, name: str) -> Callable:
    """The ``_kernel(_start, _end, _ro, _env, _C)`` twin of the C function.

    The returned kernel's ``ranges`` attribute is the one path every call
    takes: ``ranges(starts, ends, _ro, _env, _C)`` reduces the element
    ranges ``[starts[i], ends[i])`` — two int64 arrays whose pointers go to
    C as they are — in a single C call (GIL released by cffi for all of
    it) and folds the counter array into the ledger once.
    ``_ro`` — a reduction object or a locking lane — decides where the
    kernel stores: into the buffers its ``direct_store()`` names, the
    wrapper reporting the update count through ``note_updates`` — on
    failure too, so what a failing call stored before it failed is
    accounted for like any other update.  What depends only on the store
    — the layout tables' and buffers' C pointers — is prepared once per
    (thread, store), a data buffer's pointer once per (thread, buffer
    object the env holds), and the proof verdict once per layout; nothing
    per call walks the groups.  The verdict also picks the C function: the
    default build on a full verdict, the checked twin on any other (built
    the first time such a layout arrives, and reported by a
    ``native_checked`` trace event per layout).

    Its ``wave`` attribute, ``wave(owner, pieces, joined, lanes, _C)``, is
    ``ranges`` for a threaded wave: the ``(starts, ends, env)`` pieces (one
    per dataset segment; position ``joined`` of their concatenation, or -1,
    continues the range before it) are claimed by the lanes of
    ``owner.team`` (:func:`lane_team`), lane ``k`` into ``lanes[k]``.  Once
    every lane has left the wave, each lane's counters and updates are
    settled as one call's would be; then the lowest failing lane's error is
    raised.  Returns ``(elements, splits)`` per lane, or ``None`` when no
    team can exist here.
    """
    # the contract's types, parsed once per process (cffi caches them)
    ffi = artifact.contract_ffi()
    double_p, const_ll_p, bool_p, ro_p, bufs_t, bytes_t, bytes_p, ll_array = map(
        ffi.typeof, ("double *", "const long long *", "_Bool *", "struct freeride_ro *",
                     "const unsigned char *[]", "const unsigned char[]",
                     "const unsigned char *", "long long[]"),
    )
    codes = ffi.typeof("enum freeride_rc").relements
    unstored_rc = codes["FREERIDE_UNSTORED"]
    raises = {codes[rc]: raised for rc, raised in _RC_MESSAGES.items()}
    buf_names = [f"buf_{kid}" for kid in native.buf_order]
    tls = threading.local()
    ledger_lock = threading.Lock()  # lanes of one run share the ledger
    full = (1 << len(native.proofs)) - 1
    #: interned layout -> (its proof_mask, the C function that runs it)
    verdicts: dict[Any, tuple[int, Any]] = {}

    def _thread_state() -> _ThreadState:
        counters = aligned_empty(len(_COUNTER_FIELDS), np.float64)
        tls.state = state = _ThreadState(
            counters,
            ffi.cast(double_p, counters.ctypes.data),
            weakref.WeakKeyDictionary(),
            ffi.new(bufs_t, max(1, len(buf_names))),
            {},
        )
        return state

    def _verdict(store: Any) -> tuple[int, Any]:
        proven = proof_mask(native.proofs, store)
        if proven == full:
            return proven, native.fn
        assert native.twin is not None  # a clear bit implies a proof site
        twin = native.twin()
        get_tracer().event(
            "native_checked", cat="compiler", kernel=name,
            digest=twin.digest[:12], mask=proven, sites=len(native.proofs),
            twin="built" if twin.compiled else "attached",
        )
        return proven, twin.fn

    def _prepare(store: Any) -> tuple[Any, Any]:
        # ``(fn, its struct freeride_ro)``, a team lane's target as it is.
        # The entry must not reference its (weak) key; the buffers behind
        # the pointers live as long as the key does.  A racing thread may
        # decide a new layout's verdict twice, to the same mask.
        verdict = verdicts.get(store.layout)
        if verdict is None:
            verdict = verdicts[store.layout] = _verdict(store)
        proven, fn = verdict
        ro = ffi.new(ro_p)
        ro.acc = ffi.cast(double_p, store.elements.ctypes.data)
        ro.off, ro.n, ro.op = (
            ffi.cast(const_ll_p, table.ctypes.data)
            for table in (store.offsets, store.nelems, store.opcodes)
        )
        ro.groups, ro.proven = len(store.offsets), proven
        ro.touched = ffi.cast(bool_p, store.touched.ctypes.data)
        return fn, ro

    def _native_ranges(_starts, _ends, _ro, _env, _C):
        # what C dereferences: two C-contiguous int64 arrays of one length
        _starts = np.ascontiguousarray(_starts, dtype=np.int64)
        _ends = np.ascontiguousarray(_ends, dtype=np.int64)
        if _starts.ndim != 1 or _starts.shape != _ends.shape:
            raise ValueError(
                f"native kernel {name}: ranges need two 1-D arrays of one "
                f"length, got shapes {_starts.shape} and {_ends.shape}"
            )
        try:
            counters, c_counters, targets, c_bufs, held = tls.state
        except AttributeError:
            counters, c_counters, targets, c_bufs, held = _thread_state()
        store = _ro.direct_store()
        prepared = targets.get(store)
        if prepared is None:
            prepared = targets[store] = _prepare(store)
        fn, c_ro = prepared
        # the env owns the data buffers and may swap them between calls: a
        # buffer's pointer is taken once per buffer object (its weak
        # reference alive and naming it means the same memory)
        for i, buf_name in enumerate(buf_names):
            buf = _env[buf_name]
            known = held.get(id(buf))
            if known is None or known[0]() is not buf:
                if len(held) >= _HELD_BUFFERS:
                    held.clear()
                known = held[id(buf)] = (
                    weakref.ref(buf),
                    ffi.cast(bytes_p, ffi.from_buffer(bytes_t, buf)),
                )
            c_bufs[i] = known[1]
        counters[:] = 0.0

        rc = fn(
            len(_starts),
            ffi.from_buffer(ll_array, _starts),
            ffi.from_buffer(ll_array, _ends),
            _env.get("_elem_base", 0), c_bufs, c_ro, c_counters,
        )

        # A failing call counts like the scalar kernel: everything up to the
        # statement that failed is in the ledger and in the target.
        counts = counters.tolist()
        with ledger_lock:
            for field, value in zip(_COUNTER_FIELDS, counts):
                if value:
                    setattr(_C, field, getattr(_C, field) + value)
        unstored, rc = divmod(rc, unstored_rc)
        _ro.note_updates(int(counts[_IDX_RO_UPDATES]) - unstored)
        if rc != 0:
            _raise(rc)

    def _raise(rc: int) -> None:
        exc_type, msg = raises.get(rc, (RuntimeError, f"native kernel error {rc}"))
        raise exc_type(f"native kernel {name}: {msg}")

    def _native_wave(owner, pieces, joined, lanes, _C):
        # ``ranges`` over a wave's ranges on the owner's lane team: lane k
        # claims positions into lanes[k].  ``pieces`` are (starts, ends, env)
        # per dataset segment.  None when no team can exist here.
        team = lane_team(owner, len(lanes))
        if team is None:
            return None
        try:
            targets = tls.state.targets
        except AttributeError:
            targets = _thread_state().targets
        lane_targets = []
        for ro in lanes[: min(len(lanes), sum(len(p[0]) for p in pieces))]:
            store = ro.direct_store()
            prepared = targets.get(store)
            if prepared is None:
                prepared = targets[store] = _prepare(store)
            lane_targets.append(prepared)
        segments = [
            (starts, ends, env.get("_elem_base", 0), [env[b] for b in buf_names])
            for starts, ends, env in pieces
        ]
        # every lane that took part settles as one call would, before the
        # lowest failing one raises
        per_lane, failed = [(0, 0)] * len(lanes), 0
        results = team.run(segments, joined, lane_targets)
        with ledger_lock:
            for counts in (result[3] for result in results):
                for field, value in zip(_COUNTER_FIELDS, counts):
                    if value:
                        setattr(_C, field, getattr(_C, field) + value)
        for k, (rc, splits, elements, counts) in enumerate(results):
            unstored, rc = divmod(rc, unstored_rc)
            lanes[k].note_updates(int(counts[_IDX_RO_UPDATES]) - unstored)
            failed = failed or rc
            per_lane[k] = (elements, splits)
        if failed:
            _raise(failed)
        return per_lane

    def _native_kernel(_start, _end, _ro, _env, _C):
        _native_ranges(
            np.array([_start], dtype=np.int64), np.array([_end], dtype=np.int64),
            _ro, _env, _C,
        )

    _native_kernel.native = native  # type: ignore[attr-defined]
    _native_kernel.ranges = _native_ranges  # type: ignore[attr-defined]
    _native_kernel.wave = _native_wave  # type: ignore[attr-defined]
    return _native_kernel

