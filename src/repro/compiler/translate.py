"""The end-to-end Chapel-to-FREERIDE translator (the paper's §IV).

Pipeline::

    mini-Chapel source --parse--> AST --lower--> LoweredReduction
        --plan (opt level)--> CompilationPlan --codegen--> kernel source
        --exec--> CompiledReduction --bind(data, extras)--> BoundReduction
        --make_spec--> ReductionSpec, runnable on FreerideEngine

``opt_level`` selects the paper's versions: 0 = ``generated``,
1 = ``opt-1`` (strength reduction), 2 = ``opt-2`` (extras linearized too).
The ``manual FR`` comparison versions are hand-written per application in
:mod:`repro.apps`.

Binding is where linearization actually happens (and is charged to the
bound kernel's counter ledger): the dataset is linearized once; extras
(e.g. centroids) are linearized at every (re)bind, matching the per-
iteration cost the paper describes for opt-2.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.chapel import ast as A
from repro.chapel.domains import Domain
from repro.chapel.parser import parse_program
from repro.chapel.types import ArrayType, ChapelType, PrimitiveType
from repro.chapel.values import ChapelArray
from repro.compiler.batch import (
    BATCH_NAMESPACE,
    BatchCodegen,
    BatchUnsupported,
)
from repro.compiler.codegen import CLikeCodegen, PythonCodegen
from repro.compiler.groupbounds import analyze_group_bounds
from repro.compiler.linearize import LinearizedBuffer, linearize_append, linearize_it
from repro.compiler.lower import LoweredReduction, lower_reduction
from repro.compiler.mapping import compute_index
from repro.compiler.passes import (
    VERSION_NAMES,
    CompilationPlan,
    SiteResource,
    plan_compilation,
)
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.machine.counters import OpCounters
from repro.obs.tracer import get_tracer
from repro.util.errors import CompilerError
from repro.util.logging import get_logger

if TYPE_CHECKING:
    from repro.compiler.cache import CompileRequest

__all__ = [
    "CompiledReduction",
    "BoundReduction",
    "compile_reduction",
    "compile_request",
    "BACKENDS",
]

#: Supported execution backends: per-element interpretation, whole-split
#: NumPy vectorization (see :mod:`repro.compiler.batch`), or JIT-compiled
#: C over the linearized buffers (see :mod:`repro.compiler.native`).
BACKENDS = ("scalar", "batch", "native")

#: average run length below which the batch tier gathers a list of ranges
#: into one contiguous buffer and reduces it in a single dispatch — the
#: batch kernel's fixed per-dispatch cost is roughly the vectorized cost of
#: this many elements, so shorter runs lose more to dispatch than the
#: gather copy costs
GATHER_RUN_THRESHOLD = 1024


_log = get_logger("compiler.batch")


def _make_reader(raw: np.ndarray, dtype: np.dtype) -> Callable[[int], Any]:
    dt = np.dtype(dtype)

    def read(offset: int) -> Any:
        return np.frombuffer(raw, dt, 1, offset)[0].item()

    return read


def _make_viewer(raw: np.ndarray, dtype: np.dtype, extent: int) -> Callable[[int], np.ndarray]:
    dt = np.dtype(dtype)

    def view(offset: int) -> np.ndarray:
        return np.frombuffer(raw, dt, extent, offset)

    return view


def _make_lane_reader(
    raw: np.ndarray, dtype: np.dtype, elem_size: int
) -> Callable[[int, int, int], np.ndarray]:
    """Batch backend: 1-D strided view, one scalar per element of a split.

    ``lanes(start, n, inner)[i]`` is the value the scalar kernel reads at
    byte ``(start + i) * elem_size + inner`` — the same data-site scalar,
    for all ``n`` elements of the split at once.
    """
    dt = np.dtype(dtype)

    def lanes(start: int, n: int, inner: int) -> np.ndarray:
        return np.ndarray(
            (n,), dt, buffer=raw, offset=start * elem_size + inner, strides=(elem_size,)
        )

    return lanes


def _make_lane_viewer(
    raw: np.ndarray, dtype: np.dtype, elem_size: int, extent: int
) -> Callable[[int, int, int], np.ndarray]:
    """Batch backend: 2-D ``(n, extent)`` view — one hoisted row per element."""
    dt = np.dtype(dtype)

    def rows(start: int, n: int, inner: int) -> np.ndarray:
        return np.ndarray(
            (n, extent),
            dt,
            buffer=raw,
            offset=start * elem_size + inner,
            strides=(elem_size, dt.itemsize),
        )

    return rows


class _Tiers(NamedTuple):
    """How a compile ended: the tiers it built and the one runs dispatch."""

    native_kernel: Callable | None
    native_fallback_reason: str | None
    batch_source: str | None
    batch_kernel: Callable | None
    batch_fallback_reason: str | None
    effective_kernel: Callable
    effective_backend: str


@dataclass
class CompiledReduction:
    """One optimization level of one reduction class, ready to bind.

    A native compile returns once its C is emitted; ``cc`` runs on a build
    thread meanwhile.  :attr:`native_kernel`, :attr:`native_fallback_reason`,
    :attr:`batch_kernel`, :attr:`batch_source`,
    :attr:`batch_fallback_reason`, :attr:`effective_kernel` and
    :attr:`effective_backend` depend on how that build ends: the first read
    of any of them waits for it and settles all seven, once.  ``bind`` and
    ``update_extras`` read none of them, so binding overlaps ``cc``;
    ``make_spec`` and ``run_serial`` are where a kernel is first needed.
    An ``OSError`` from dlopen'ing the built library surfaces there too.
    """

    lowered: LoweredReduction
    plan: CompilationPlan
    python_source: str
    kernel: Callable
    #: what this was compiled from: its identity in the kernel cache and the
    #: profile store, and what a worker process compiles to get the same kernel
    request: "CompileRequest"
    #: flow-sensitive bounds on the group index of every RO update site
    #: (:func:`repro.compiler.groupbounds.analyze_group_bounds`); the
    #: engine's split coloring consumes this via the spec
    group_bounds: Any = field(default=None, repr=False)
    #: JIT native backend (``backend="native"``): the generated C source
    native_source: str | None = None
    #: the native build (a ``Future`` of a
    #: :class:`~repro.compiler.native.NativeKernel`), the
    #: ``NativeUnsupported`` that refused the kernel at compile, or None
    _native: Any = field(default=None, repr=False)
    #: the tracer active at compile: settling the tiers records into it
    _tracer: Any = field(default=None, repr=False)
    _tiers: _Tiers | None = field(default=None, init=False, repr=False)
    _settle_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    @property
    def opt_level(self) -> int:
        return self.plan.opt_level

    @property
    def backend(self) -> str:
        """The *requested* tier; :attr:`effective_backend` is what runs."""
        return self.request.backend

    # -- what waits for the native build ----------------------------------------------

    @property
    def native_kernel(self) -> Callable | None:
        """The dlopen'd kernel behind the standard 5-arg calling convention."""
        return self._settled().native_kernel

    @property
    def native_fallback_reason(self) -> str | None:
        """Why a native request downgraded to batch/scalar."""
        return self._settled().native_fallback_reason

    @property
    def batch_source(self) -> str | None:
        return self._settled().batch_source

    @property
    def batch_kernel(self) -> Callable | None:
        return self._settled().batch_kernel

    @property
    def batch_fallback_reason(self) -> str | None:
        return self._settled().batch_fallback_reason

    @property
    def effective_kernel(self) -> Callable:
        """The kernel runs actually dispatch: native when JIT-compiled, then
        batch when vectorized, else the interpreted scalar kernel."""
        return self._settled().effective_kernel

    @property
    def effective_backend(self) -> str:
        """Which tier :attr:`effective_kernel` actually dispatches to."""
        return self._settled().effective_backend

    def _settled(self) -> _Tiers:
        tiers = self._tiers
        if tiers is None:
            with self._settle_lock:
                if self._tiers is None:
                    self._tiers = self._settle()
                tiers = self._tiers
        return tiers

    def _settle(self) -> _Tiers:
        """Wait for the native build, then fall back where it failed: the
        batch kernel is the fallback tier of a downgraded native request, so
        branch-heavy kernels still vectorize what they can.  Records the
        ``native_fallback`` and ``kernel_backend`` events."""
        tracer, name, opt_level = self._tracer, self.lowered.name, self.opt_level
        native_kernel: Callable | None = None
        native_fallback_reason: str | None = None
        if self.backend == "native":
            from repro.compiler import native as native_mod

            refused = self._native
            if isinstance(refused, Future):
                try:
                    native_kernel = native_mod.make_native_kernel(
                        refused.result(), name
                    )
                    refused = None
                except native_mod.NativeUnsupported as exc:
                    refused = exc
            if refused is not None:
                native_fallback_reason = str(refused)
                if refused.toolchain:
                    # the probe already warned once; emit exactly one
                    # process-wide native_fallback event for it too
                    if native_mod.take_toolchain_event():
                        tracer.event(
                            "native_fallback",
                            cat="compiler",
                            reduction=name,
                            opt_level=opt_level,
                            reason=native_fallback_reason,
                            toolchain=True,
                        )
                else:
                    _log.warning(
                        "native backend fell back for %s [opt%d]: %s",
                        name,
                        opt_level,
                        native_fallback_reason,
                    )
                    tracer.event(
                        "native_fallback",
                        cat="compiler",
                        reduction=name,
                        opt_level=opt_level,
                        reason=native_fallback_reason,
                        toolchain=False,
                    )

        batch_source: str | None = None
        batch_kernel: Callable | None = None
        batch_fallback_reason: str | None = None
        if self.backend == "batch" or (
            self.backend == "native" and native_kernel is None
        ):
            with tracer.span(
                "batch_codegen", cat="compiler", reduction=name
            ) as batch_span:
                batchgen = BatchCodegen(
                    self.lowered, self.plan, summary=self.group_bounds.summary
                )
                try:
                    batch_source = batchgen.generate()
                except BatchUnsupported as exc:
                    batch_fallback_reason = str(exc)
                    batch_span.set(fallback=True)
                    _log.warning(
                        "batch backend fell back to scalar for %s [opt%d]: %s",
                        name,
                        opt_level,
                        batch_fallback_reason,
                    )
                    tracer.event(
                        "batch_fallback",
                        cat="compiler",
                        reduction=name,
                        opt_level=opt_level,
                        reason=batch_fallback_reason,
                    )
                else:
                    batch_ns: dict[str, Any] = dict(BATCH_NAMESPACE)
                    exec(
                        compile(
                            batch_source,
                            f"<batch-kernel:{name}:opt{opt_level}>",
                            "exec",
                        ),
                        batch_ns,
                    )
                    batch_kernel = batch_ns["_batch_kernel"]
                for proof in batchgen.taint.gather_proofs.values():
                    tracer.event(
                        "batch_gather_proof" if proof["proven"]
                        else "batch_gather_refuted",
                        cat="compiler",
                        reduction=name,
                        opt_level=opt_level,
                        **{
                            k: v
                            for k, v in proof.items()
                            if k != "proven" and v is not None
                        },
                    )

        if native_kernel is not None:
            effective_kernel, effective_backend = native_kernel, "native"
        elif batch_kernel is not None:
            effective_kernel, effective_backend = batch_kernel, "batch"
        else:
            effective_kernel, effective_backend = self.kernel, "scalar"
        tracer.event(
            "kernel_backend",
            cat="compiler",
            reduction=name,
            opt_level=opt_level,
            requested=self.backend,
            effective=effective_backend,
            reason=native_fallback_reason or batch_fallback_reason,
        )
        return _Tiers(
            native_kernel, native_fallback_reason, batch_source, batch_kernel,
            batch_fallback_reason, effective_kernel, effective_backend,
        )

    @property
    def version_name(self) -> str:
        return VERSION_NAMES[self.plan.opt_level]

    @property
    def name(self) -> str:
        return self.lowered.name

    @property
    def keys(self) -> dict[str, int]:
        """Site key -> the id its env entries (``info_k``, ``buf_k``, ...) carry."""
        return {key: res.kid for key, res in self.plan.resources.items()}

    @cached_property
    def c_source(self) -> str:
        """The C-like reduction function (paper Figure 8, right-hand side)."""
        return CLikeCodegen(self.lowered, self.plan).generate()

    @cached_property
    def c_program(self) -> str:
        """A complete C-like FREERIDE application (paper Figure 5 shape)."""
        return CLikeCodegen(self.lowered, self.plan).generate_program()

    # -- binding --------------------------------------------------------------------

    def bind(
        self,
        data: ChapelArray | np.ndarray | LinearizedBuffer,
        extras: dict[str, Any] | None = None,
        n_elements: int | None = None,
    ) -> "BoundReduction":
        """Bind the compiled kernel to a dataset and extra values.

        ``data`` may be a Chapel array over the element type (linearized via
        Algorithm 2), a numpy fast path for flat real elements, or an
        already-linearized buffer (reuse across outer iterations; pass
        ``n_elements``).
        """
        counters = OpCounters()
        elem_t = self.lowered.element_type
        with get_tracer().span(
            "linearize_data", cat="linearize", reduction=self.name
        ) as span:
            data_buf, n = self._linearize_data(data, elem_t, counters, n_elements)
            span.set(n_elements=n, bytes=data_buf.nbytes)
            if isinstance(data, ChapelArray):  # Algorithm 2 ran
                span.set(walk=data_buf.walk)

        env: dict[str, Any] = {
            "compute_index": compute_index,
            "elem_sizeof": elem_t.sizeof,
            "sqrt": math.sqrt,
            "floor": math.floor,
            "exp": math.exp,
            "log": math.log,
        }
        bound = BoundReduction(
            compiled=self, env=env, counters=counters, n_elements=n, data_buf=data_buf
        )
        self._install_site_resources(env, data_buf)
        bound.update_extras(extras or {})
        return bound

    def _linearize_data(
        self,
        data: ChapelArray | np.ndarray | LinearizedBuffer,
        elem_t: ChapelType,
        counters: OpCounters,
        n_elements: int | None,
    ) -> tuple[LinearizedBuffer, int]:
        if isinstance(data, LinearizedBuffer):
            if n_elements is None:
                if data.nbytes % elem_t.sizeof:
                    raise CompilerError("buffer size is not a multiple of element size")
                n_elements = data.nbytes // elem_t.sizeof
            return data, n_elements
        if isinstance(data, ChapelArray):
            if data.type.elt != elem_t:
                raise CompilerError(
                    f"dataset elements are {data.type.elt}, kernel expects {elem_t}"
                )
            buf = linearize_it(data, data.type, counters)
            return buf, len(data)
        if isinstance(data, np.ndarray):
            # Fast path: flat arrays of one primitive element type.
            expected = self._numpy_element_shape(elem_t)
            arr = np.ascontiguousarray(data, dtype=expected[1])
            if arr.ndim >= 1 and arr.shape[1:] == expected[0]:
                raw = arr.reshape(-1).view(np.uint8)
                counters.bytes_linearized += raw.size
                dataset_t = ArrayType(Domain(int(arr.shape[0])), elem_t)
                return LinearizedBuffer(typ=dataset_t, raw=raw), int(arr.shape[0])
            raise CompilerError(
                f"numpy dataset shape {arr.shape} does not match element {elem_t}"
            )
        raise CompilerError(f"cannot bind data of type {type(data)}")

    @staticmethod
    def _numpy_element_shape(elem_t: ChapelType) -> tuple[tuple[int, ...], np.dtype]:
        if isinstance(elem_t, PrimitiveType):
            return (), np.dtype(elem_t.dtype)
        if isinstance(elem_t, ArrayType) and isinstance(elem_t.elt, PrimitiveType):
            return elem_t.domain.shape, np.dtype(elem_t.elt.dtype)
        raise CompilerError(
            f"numpy fast path supports flat primitive elements, not {elem_t}"
        )

    def _install(self, env: dict[str, Any], res: SiteResource, raw: np.ndarray) -> None:
        """Point one linearized site resource's env entries at ``raw``.

        The one author of the env contract the emitted kernels read:
        ``info_k``/``read_k``/``view_k`` (scalar, batch), ``buf_k`` (native)
        and, for the dataset of a request that can end on the batch tier
        (batch or native requested), ``lanes_k``/``rows_k`` — decided from
        the request, so binding never waits for a native build.
        """
        kid, info = res.kid, res.info
        assert info is not None
        env[f"info_{kid}"] = info
        env[f"buf_{kid}"] = raw
        env[f"read_{kid}"] = _make_reader(raw, info.inner_dtype)
        env[f"view_{kid}"] = _make_viewer(raw, info.inner_dtype, info.inner_extent)
        if res.kind == "data" and self.backend != "scalar":
            esz = self.lowered.element_type.sizeof
            env[f"lanes_{kid}"] = _make_lane_reader(raw, info.inner_dtype, esz)
            env[f"rows_{kid}"] = _make_lane_viewer(
                raw, info.inner_dtype, esz, info.inner_extent
            )

    def _install_site_resources(self, env: dict[str, Any], data_buf: LinearizedBuffer) -> None:
        """(Re)install the dataset's resources; extras' are ``update_extras``'s."""
        for res in self.plan.resources.values():
            if res.kind == "data" and res.linearized:
                self._install(env, res, data_buf.raw)

    # -- compiled artifacts ---------------------------------------------------------

    def describe(self) -> str:
        """Human-readable summary (version, sites, plan modes)."""
        lines = [f"{self.name} [{self.version_name}]"]
        for plan in self.plan.site_plans.values():
            lines.append(
                f"  {plan.site.expr} ({plan.site.kind}) -> {plan.mode}"
            )
        return "\n".join(lines)


@dataclass
class BoundReduction:
    """A compiled kernel bound to concrete data — runnable on the engine.

    The dataset is at most two segments.  The *prefix* is the buffer
    ``bind`` made — on the numpy path the caller's own array — and is never
    grown or copied.  The *tail* (:attr:`tail_buf`) is one owned buffer,
    made by the first :meth:`append_elements`, that every append lands in.
    No kernel call spans the two: ranges are cut at :attr:`n_prefix`, and a
    tail range runs at tail-local positions with ``_elem_base`` =
    :attr:`n_prefix` in its env, so ``elemIdx()`` stays global.
    """

    compiled: CompiledReduction
    env: dict[str, Any]
    counters: OpCounters
    n_elements: int
    data_buf: LinearizedBuffer
    extras_values: dict[str, Any] = field(default_factory=dict)
    #: bumped on every (re)bind of extras; process-mode workers cache their
    #: bound kernel per dataset and re-run ``update_extras`` only when the
    #: parent's epoch moved (one small pickle per k-means iteration, not per
    #: split)
    extras_epoch: int = 0
    #: shared-memory publication key.  ``None``: the content-addressed cache
    #: (one segment per distinct buffer); ``run_baseline`` sets a delta
    #: session's, so each delta ships only its tail into one growable segment
    shm_session: str | None = None
    #: elements in the prefix segment (:attr:`data_buf`)
    n_prefix: int = field(init=False)
    #: the appended elements, once there are any
    tail_buf: LinearizedBuffer | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.n_prefix = self.n_elements

    def update_extras(self, extras: dict[str, Any]) -> None:
        """(Re)bind extra values — e.g. new centroids each k-means iteration.

        Extras that the plan linearizes (opt-2) are copied into fresh dense
        buffers here, charging ``bytes_linearized``; nested extras are
        installed as live Chapel values.
        """
        self.extras_values = dict(extras)
        comp = self.compiled
        needed = set(comp.lowered.extra_types)
        missing = needed - set(extras)
        if missing:
            raise CompilerError(f"missing extras: {sorted(missing)}")

        buffers: dict[str, LinearizedBuffer] = {}
        tracer = get_tracer()
        for res in comp.plan.resources.values():
            if res.kind != "extra":
                continue
            root = res.root
            if "nested" in res.modes:
                self.env[f"val_{root}"] = extras[root]
            if not res.linearized:
                continue
            if root not in buffers:
                with tracer.span(
                    "linearize_extras", cat="linearize",
                    reduction=comp.name, extra=root,
                ) as span:
                    buffers[root] = linearize_it(
                        extras[root], comp.lowered.extra_types[root], self.counters
                    )
                    span.set(bytes=buffers[root].nbytes, walk=buffers[root].walk)
            comp._install(self.env, res, buffers[root].raw)
        self.extras_epoch += 1

    # -- the two segments ---------------------------------------------------------------

    def segments(self) -> tuple[np.ndarray, ...]:
        """The dataset's bytes, in position order: the prefix, then the tail
        once there is one."""
        if self.tail_buf is None:
            return (self.data_buf.raw,)
        esz = self.compiled.lowered.element_type.sizeof
        return self.data_buf.raw[: self.n_prefix * esz], self.tail_buf.raw

    def dataset_raw(self) -> np.ndarray:
        """The whole dataset as one byte array — a copy once there is a
        tail (tests)."""
        parts = self.segments()
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @property
    def dataset_type(self) -> ChapelType:
        """The array type of the whole dataset, both segments."""
        if self.tail_buf is None:
            return self.data_buf.typ
        return ArrayType(Domain(self.n_elements), self.compiled.lowered.element_type)

    # -- direct execution (tests) -----------------------------------------------------

    def run_serial(self, ro: Any) -> None:
        """Run the kernel over all elements with a bare accessor (tests)."""
        self.reduce_ranges(
            np.zeros(1, dtype=np.int64), np.full(1, self.n_elements, dtype=np.int64), ro
        )

    def reduce_ranges(self, starts: np.ndarray, ends: np.ndarray, ro: Any) -> None:
        """The kernel over ``[starts[i], ends[i])`` in order, into ``ro``.

        ``ReductionSpec.reduce_ranges`` for every tier, and the one path
        every kernel call over the dataset takes (:meth:`run_serial` and the
        spec's per-split ``reduction`` come here with a list of one).  A
        native kernel takes the two arrays into one C call per segment; the
        scalar kernel is called once per range; the batch kernel too,
        unless the runs are short — each dispatch costs about what
        :data:`GATHER_RUN_THRESHOLD` vectorized elements do — and then it
        runs once over a gathered copy (:meth:`run_gathered`).

        The ranges are ascending, as every caller's are, and are cut at
        :attr:`n_prefix`: a tail range runs at tail-local positions over a
        per-call env that reads the tail, with ``_elem_base`` =
        :attr:`n_prefix` so ``elemIdx()`` stays global.
        """
        comp = self.compiled
        kernel = comp.effective_kernel
        ranges = getattr(kernel, "ranges", None)
        if ranges is None and len(starts) > 1 and comp.effective_backend == "batch":
            lengths = ends - starts
            total = int(lengths.sum())
            if total < len(starts) * GATHER_RUN_THRESHOLD:
                # positions of run i follow starts[i]; `before` is what
                # earlier runs already placed
                before = np.cumsum(lengths) - lengths
                self.run_gathered(
                    np.repeat(starts - before, lengths) + np.arange(total), ro
                )
                return
        if self.tail_buf is None or not len(ends) or ends[-1] <= self.n_prefix:
            pieces = [(starts, ends, self.env)]  # the prefix alone: no call
        else:
            pieces = self._pieces(starts, ends)[0]
        for starts, ends, env in pieces:
            if ranges is not None:
                ranges(starts, ends, ro, env, self.counters)
                continue
            for start, end in zip(starts.tolist(), ends.tolist()):
                if start < end:
                    kernel(start, end, ro, env, self.counters)

    def _pieces(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[list[tuple[np.ndarray, np.ndarray, dict[str, Any]]], int]:
        """Ascending ranges cut at :attr:`n_prefix`: ``(starts, ends, env)``
        per segment they reach, and the position in the pieces'
        concatenation of the second half of a range cut in two (-1: none)."""
        n0 = self.n_prefix
        if self.tail_buf is None or not len(ends) or ends[-1] <= n0:
            return [(starts, ends, self.env)], -1
        tail_env = dict(self.env)
        for res in self.compiled.plan.resources.values():  # the tail's data sites
            if res.kind == "data" and res.linearized:
                self.compiled._install(tail_env, res, self.tail_buf.raw)
        tail_env["_elem_base"] = n0
        if starts[0] >= n0:
            return [(starts - n0, ends - n0, tail_env)], -1
        k = int(starts.searchsorted(n0))  # ranges that start in the prefix
        j = int(ends.searchsorted(n0, side="right"))  # ... and end there
        pieces = [
            (starts[:k], np.minimum(ends[:k], n0), self.env),
            (np.maximum(starts[j:], n0) - n0, ends[j:] - n0, tail_env),
        ]
        return pieces, (k if k > j else -1)

    def lane_wave(
        self, owner: Any, starts: np.ndarray, ends: np.ndarray, lanes: list[Any]
    ) -> list[tuple[int, int]] | None:
        """``ReductionSpec.lane_wave`` of a native kernel: the ranges
        ``[starts[i], ends[i])``, ascending, claimed by the lanes of
        ``owner.team`` — lane ``k`` into ``lanes[k]`` — cut at
        :attr:`n_prefix` as :meth:`reduce_ranges` cuts them."""
        pieces, joined = self._pieces(starts, ends)
        return self.compiled.effective_kernel.wave(
            owner, pieces, joined, lanes, self.counters
        )

    def run_gathered(self, indices: np.ndarray, ro: Any) -> int:
        """Run the batch kernel once over a gathered copy of scattered elements.

        The elements — from either segment — are copied into a temporary
        contiguous buffer that is installed into a per-call copy of the env
        (the kernel reads its data buffers out of the env at call time),
        and their true global indices ride along as ``_elem_indices`` so
        ``elemIdx()`` sees original positions, not positions in the copy.
        Only the batch kernel reads that entry: other tiers are refused.
        Returns the element count.
        """
        comp = self.compiled
        if comp.effective_backend != "batch":
            raise CompilerError(
                f"gathered execution of {comp.name} needs the batch "
                f"backend, not {comp.effective_backend}"
            )
        idx = np.asarray(indices, dtype=np.intp)
        k = int(idx.size)
        if k == 0:
            return 0
        elem_t = comp.lowered.element_type
        esz = elem_t.sizeof
        n0 = self.n_prefix
        rows = self.data_buf.raw[: n0 * esz].reshape(n0, esz)
        if self.tail_buf is None:
            gathered = np.ascontiguousarray(rows[idx])
        else:
            gathered = np.empty((k, esz), dtype=np.uint8)
            head = idx < n0
            gathered[head] = rows[idx[head]]
            gathered[~head] = self.tail_buf.raw.reshape(-1, esz)[idx[~head] - n0]
        shim = LinearizedBuffer(typ=ArrayType(Domain(k), elem_t), raw=gathered.reshape(-1))
        env = dict(self.env)
        comp._install_site_resources(env, shim)
        env["_elem_indices"] = idx.astype(np.int64, copy=False)
        comp.effective_kernel(0, k, ro, env, self.counters)
        return k

    # -- delta execution ---------------------------------------------------------------

    def append_elements(self, data: "ChapelArray | np.ndarray") -> int:
        """Extend the bound dataset with new elements.

        The delta-execution append path: only the new elements are
        linearized, into the tail (made on the first append, grown by
        :meth:`~repro.compiler.linearize.LinearizedBuffer.grow`); the
        prefix is never copied or re-walked.  Returns the new element
        count; a refused batch leaves the dataset as it was.
        """
        comp = self.compiled
        elem_t = comp.lowered.element_type
        if isinstance(data, np.ndarray):
            expected = comp._numpy_element_shape(elem_t)
            arr = np.ascontiguousarray(data, dtype=expected[1])
            if not (arr.ndim >= 1 and arr.shape[1:] == expected[0]):
                raise CompilerError(
                    f"appended numpy shape {arr.shape} does not match "
                    f"element {elem_t}"
                )
            raw = arr.reshape(-1).view(np.uint8)
            tail = self.tail_buf if self.tail_buf is not None else self._new_tail()
            old_bytes = tail.raw.size
            tail.grow(old_bytes + raw.size)
            tail.raw[old_bytes:] = raw
            n_tail = self.n_elements - self.n_prefix + int(arr.shape[0])
            tail.typ = ArrayType(Domain(n_tail), elem_t)
            self.counters.bytes_linearized += int(raw.size)
        elif isinstance(data, ChapelArray):
            if data.type.elt != elem_t:
                raise CompilerError(
                    f"appended elements are {data.type.elt}, kernel "
                    f"expects {elem_t}"
                )
            tail = self.tail_buf if self.tail_buf is not None else self._new_tail()
            n_tail = linearize_append(tail, data, self.counters)
        else:
            raise CompilerError(f"cannot append data of type {type(data)}")
        self.n_elements = self.n_prefix + n_tail
        return self.n_elements

    def _new_tail(self) -> LinearizedBuffer:
        elem_t = self.compiled.lowered.element_type
        self.tail_buf = LinearizedBuffer(
            typ=ArrayType(Domain(0), elem_t), raw=np.empty(0, dtype=np.uint8)
        )
        return self.tail_buf

    def truncate_elements(self, n_elements: int) -> None:
        """Roll the appended elements back to ``n_elements`` (failed append
        batch); the prefix is never cut."""
        if not self.n_prefix <= n_elements <= self.n_elements:
            raise CompilerError(
                f"cannot truncate to {n_elements} of {self.n_elements} elements "
                f"({self.n_prefix} bound)"
            )
        if self.tail_buf is not None:
            elem_t = self.compiled.lowered.element_type
            n_tail = n_elements - self.n_prefix
            self.tail_buf.shrink(n_tail * elem_t.sizeof)
            self.tail_buf.typ = ArrayType(Domain(n_tail), elem_t)
        self.n_elements = n_elements

    # -- FREERIDE integration ------------------------------------------------------------

    def make_spec(
        self,
        ro_layout: Sequence[tuple[int, str]],
        finalize: Callable[[ReductionObject], Any] | None = None,
    ) -> tuple[ReductionSpec, range]:
        """Build a FREERIDE spec; the engine data is the element index range.

        The spec closes over :attr:`CompiledReduction.effective_kernel`, so
        the engine dispatches the batch kernel per split (under both the
        serial and threaded executors) whenever the batch backend compiled,
        and the scalar kernel otherwise.  Lists of ranges — a lane's batch of
        splits, a delta epoch's runs — enter through :meth:`reduce_ranges`,
        and so does a split that reaches past the prefix.
        """
        kernel = self.compiled.effective_kernel
        env = self.env
        counters = self.counters
        layout = list(ro_layout)

        def setup(ro: ReductionObject) -> None:
            ro.alloc_many(layout)

        def reduction(args: ReductionArgs) -> None:
            # args.data is a contiguous slice of the element index range;
            # use its VALUES (not split-local positions) so the kernel
            # addresses the right elements when the run's data is a
            # sub-range that does not start at 0.
            indices = args.data
            if len(indices) == 0:
                return
            start, end = indices[0], indices[-1] + 1
            if end <= self.n_prefix:
                kernel(start, end, args.ro, env, counters)
            else:
                self.reduce_ranges(
                    np.array([start], dtype=np.int64),
                    np.array([end], dtype=np.int64),
                    args.ro,
                )

        spec = ReductionSpec(
            name=f"{self.compiled.name}-{self.compiled.version_name}",
            setup_reduction_object=setup,
            reduction=reduction,
            finalize=finalize,
            bound=self,
            group_bounds=self.compiled.group_bounds,
            reduce_ranges=self.reduce_ranges,
            lane_wave=self.lane_wave if hasattr(kernel, "wave") else None,
        )
        return spec, range(self.n_elements)


def compile_reduction(
    source: str | A.Program,
    constants: dict[str, Any],
    opt_level: int = 0,
    class_name: str | None = None,
    backend: str = "scalar",
) -> CompiledReduction:
    """Compile a mini-Chapel reduction class at one optimization level.

    ``backend`` selects the execution strategy: ``"scalar"`` (default)
    emits only the per-element interpreted kernel; ``"batch"`` additionally
    emits the split-level NumPy kernel and dispatches it everywhere the
    scalar kernel would run.  If the batch emitter cannot vectorize the
    reduction, compilation falls back to the scalar kernel for the whole
    reduction and records (and logs) the reason in
    :attr:`CompiledReduction.batch_fallback_reason`.  ``"native"`` JIT
    compiles the kernel to machine code via the system C compiler
    (:mod:`repro.compiler.native`; ``.so`` artifacts persist in an
    on-disk cache keyed by format version + toolchain fingerprint, so a
    warm start only dlopens).  A kernel the C emitter refuses — or an
    unusable toolchain — downgrades to the batch tier (then scalar) with
    the reason in :attr:`CompiledReduction.native_fallback_reason`; a
    ``cc`` that fails is found where the kernel is first needed and
    downgrades the same way.  Every compile records a ``kernel_backend``
    trace event with the requested vs. effective backend when it settles,
    into the tracer active at compile.  The one kernel runs under every
    shared-memory technique: how updates are synchronized is the
    accessor's business.
    """
    from repro.compiler.cache import CompileRequest  # cache.py imports this module

    return compile_request(
        CompileRequest(source, constants, class_name, opt_level, backend)
    )


def compile_request(request: "CompileRequest") -> CompiledReduction:
    """The pipeline behind :func:`compile_reduction` (and, on a miss,
    ``compile_cached``): parse → lower → plan → emit, with ``cc`` started
    on a build thread (a disk hit, a refusal and the other tiers settle
    here; a cold native build settles where its kernel is first needed)."""
    source, constants = request.source, request.constants
    opt_level, backend = request.opt_level, request.backend
    tracer = get_tracer()
    with tracer.span(
        "compile", cat="compiler", opt_level=opt_level, backend=backend
    ) as compile_span:
        with tracer.span("parse", cat="compiler"):
            program = parse_program(source) if isinstance(source, str) else source
        with tracer.span("lower", cat="compiler"):
            lowered = lower_reduction(program, constants, request.class_name)
        compile_span.set(reduction=lowered.name)
        with tracer.span("plan", cat="compiler", reduction=lowered.name):
            plan = plan_compilation(lowered, opt_level)
        with tracer.span("codegen", cat="compiler", reduction=lowered.name):
            python_source = PythonCodegen(lowered, plan).generate()
            namespace: dict[str, Any] = {}
            exec(
                compile(
                    python_source, f"<kernel:{lowered.name}:opt{opt_level}>", "exec"
                ),
                namespace,
            )

        # One effect analysis drives the group-bounds hull (coloring), the
        # batch emitter's bounded-gather proofs, and the native emitter's
        # bounds-check elision.
        group_bounds = analyze_group_bounds(lowered)

        native_source: str | None = None
        native: Any = None
        if backend == "native":
            from repro.compiler import native as native_mod

            with tracer.span(
                "native_codegen", cat="compiler", reduction=lowered.name
            ) as native_span:
                try:
                    build = native_mod.submit_native(
                        lowered, plan, summary=group_bounds.summary
                    )
                except native_mod.NativeUnsupported as exc:
                    native = exc
                    native_span.set(fallback=True)
                else:
                    native_source, native = build.source, build.kernel
                    native_span.set(symbol=build.symbol)

        compiled = CompiledReduction(
            lowered=lowered,
            plan=plan,
            python_source=python_source,
            kernel=namespace["_kernel"],
            request=request,
            group_bounds=group_bounds,
            native_source=native_source,
            _native=native,
            _tracer=tracer,
        )
        if not (isinstance(native, Future) and not native.done()):
            compiled._settled()  # nothing to wait for: settle it now
    return compiled
