"""Native-code backend: lowered kernel IR -> C -> shared library (JIT).

The third compiled backend (``backend="native"``).  :class:`NativeCodegen`
is the C printer of the shared :class:`~repro.compiler.codegen.KernelEmitter`
walk the Python and batch printers also serve; it emits one self-contained C
translation unit per kernel version, mirroring the instrumented Python
kernel *exactly*:

* the walker applies the same SitePlan/LoopHoist decisions to every access
  site; the printer realizes them in C (``computeIndex`` inlined as a
  constant-folded affine byte offset, hoisted rows as base pointers,
  incremental bases bumped per iteration);
* the walker's static per-statement :class:`~repro.compiler.codegen._Cost`
  bumps land in ``long long`` locals (``_c0 … _c12``, one per
  :class:`~repro.machine.counters.OpCounters` slot the kernel uses) that
  the back-end compiler keeps in registers and merges; they are stored
  into the ``double`` counter array once per range, at the split body's
  single exit, which a failing check reaches by ``goto _out`` — so the
  ledger folded back after each call is the scalar kernel's, statement
  for statement, on success and on failure alike;
* reduction-object updates are *reduced in one step* (paper §III-A):
  the kernel accumulates straight into the element buffer its target —
  a reduction object or a lane's accessor — hands out (``direct_store()``),
  with the same group/element/op validation the scalar path performs,
  and sets the group's touched flag itself; the wrapper only reports the
  update count back (``note_updates``).  Which buffer that is, and what
  synchronization a store still owes afterwards, is the target's business
  (:mod:`repro.freeride.sharedmem`), not this module's.

The exported C function takes a *list* of ``[start, end)`` ranges and
loops the per-split body over it, so one cffi call — GIL released for
all of it, in cffi's ABI mode — covers a whole batch of splits: threads
scale, and the interpreter's share of a pass no longer grows with the
split count.  A single split is a list of one.  A threaded wave calls the
entry from C: the lanes of a :class:`LaneTeam`, threads parked in a small
runtime of their own, claim batches of splits and pass each to it through
its function pointer.  The ranges are positions
in one dataset segment, whose first global position comes as ``_e0``:
``elemIdx()`` is ``_e + _e0``, and data offsets stay segment-local.
The loop already holds the whole list before it reads a row, so it
prefetches the first data row of the range :data:`PREFETCH_DISTANCE`
ahead: a scattered list (a retraction) is a gather that otherwise waits on
memory at every range.  Element-dependent branches and bounded gathers
that force the batch backend whole-kernel scalar compile to ordinary C
control flow.

Compiled artifacts are **cached on disk** per
``(format version, toolchain fingerprint, build flags, C source)`` under
``~/.cache/repro-kernels/`` (override with ``REPRO_KERNEL_CACHE``), so a
warm start dlopens the existing shared library and never invokes the
toolchain, and a cold build runs ``cc`` on a build thread beside its caller
(:func:`submit_native`).  The C compiler is probed once per process
(override with ``REPRO_CC``); a missing or broken toolchain downgrades
every native request to the batch/scalar path with a single warning and a
single ``native_fallback`` trace event.  The same cache and build threads
serve the linearizer walker (:func:`linearizer`): Algorithm 2 over a nested
value as one call into a small CPython extension.

Semantics notes (all chosen to match the *scalar* Python kernel):

* ``/`` is always double division (Python 3 true division);
* ``%`` uses Python's sign convention for both ints and doubles;
* ``floor``/``toInt`` return integers (``math.floor`` / ``int()``);
* for-loop bounds are evaluated once, and the loop variable is driven by
  a hidden iterator so assignments to it inside the body cannot change
  the iteration (Python ``range`` semantics);
* out-of-range mapping indices and invalid reduction-object updates
  return an error code that the wrapper raises as the same exception
  type the scalar path would (:class:`~repro.util.errors.MappingError`
  from ``computeIndex``, ``IndexError`` from a hoisted row — a NumPy view
  there — and :class:`~repro.util.errors.ReductionObjectError`), leaving
  the ledger, the target and its ``update_count`` where the scalar kernel
  leaves them; checks proven redundant by the PR 7 effect summaries are
  elided;
* an RO update whose group and element indices the effect summary bounds
  (``[glo, ghi]`` and ``[0, ehi]``) is a *proof site*: its three checks
  run only when an index falls outside those bounds.  That is safe only on
  a layout where every bounded index passes them, so the wrapper decides a
  verdict once per kernel × layout (:func:`proof_mask`): a full verdict
  runs the default build, any other runs the kernel's *checked twin* — the
  same emission with a ``_proven`` bit test ahead of each site's bounds
  test, built on demand through the same disk cache and build threads —
  where a clear bit runs the checks exactly as before.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields as dc_fields
from importlib.machinery import ExtensionFileLoader
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.chapel import ast as A
from repro.compiler.codegen import KernelEmitter, _CBraces, _Cost
from repro.compiler.lower import AccessSite, LoweredReduction
from repro.compiler.passes import CompilationPlan, LoopHoist
from repro.freeride.reduction_object import OP_CODES as _OP_CODES, aligned_empty
from repro.machine.counters import OpCounters
from repro.obs.tracer import get_tracer
from repro.util.errors import CodegenError, MappingError, ReductionObjectError
from repro.util.logging import get_logger

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

_log = get_logger("compiler.native")

#: Bump on any change to the generated C's calling convention or layout —
#: part of every on-disk cache key, so stale artifacts are never dlopen'd.
NATIVE_FORMAT_VERSION = 5

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

#: OpCounters field order — the index layout of the C ``_C`` array.
_COUNTER_FIELDS: tuple[str, ...] = tuple(f.name for f in dc_fields(OpCounters))
_CIDX = {name: i for i, name in enumerate(_COUNTER_FIELDS)}
_IDX_RO_UPDATES = _CIDX["ro_updates"]

#: Kernel return codes (0 = success).
_RC_MAP_OOB = 10  # computeIndex level position out of range
_RC_ROW_OOB = 11  # hoisted row index out of range
_RC_RO_GROUP = 20  # RO group id out of range
_RC_RO_ELEM = 21  # RO element id out of range for its group
_RC_RO_OP = 22  # RO update op does not match the group's declared op
#: Added to the code when the failing statement is an RO update: its
#: ``ro_updates`` bump is in the ledger (counts precede their statement, as in
#: the scalar kernel) but no store happened, so ``update_count`` is one less.
_RC_UNSTORED = 100

#: Proof sites per kernel: one bit each of the ``long long _proven`` mask,
#: kept clear of the sign bit.  Sites past the last keep their checks.
_PROOF_BITS = 63
#: Bounds a proof site's indices must lie within (non-negative, and far
#: inside ``long long``).
_PROOF_MAX = 2**62

_SYMBOL_SENTINEL = "__NATIVE_SYMBOL__"

#: Ranges ahead of the one running whose first data row the exported entry
#: prefetches.  A scattered range list — a retraction — is an irregular
#: gather that waits on memory.  One call over 1,250 random single rows of a
#: 1,000,000-row float64 histogram dataset, its rows out of L2, took 81-158
#: µs without the prefetch and 19-38 µs with the rows cached; 4, 8 and 16
#: ranges ahead took 73-115, 62-107 and 59-91 µs.  625 rows of a 500,000 x 4
#: k-means dataset: 191-352 µs without, 128-166, 136-223 and 88-152 µs with
#: (medians of 35 calls, four runs each; 2-vCPU Xeon, gcc -O2).
PREFETCH_DISTANCE = 16


class NativeUnsupported(Exception):
    """The native emitter cannot compile this kernel (fall back instead).

    ``toolchain`` marks process-wide failures (no C compiler, cffi
    missing) that should be reported once, not once per kernel.
    """

    def __init__(self, message: str, toolchain: bool = False) -> None:
        super().__init__(message)
        self.toolchain = toolchain


# --------------------------------------------------------------- C helpers

#: Everything the emitted statements can call, by the name they call it.  A
#: translation unit opens with the entries its kernel names
#: (:meth:`NativeCodegen._use`), in this order, and with nothing else: no
#: ``#include`` (the libm functions are declared here, the loaders copy with
#: the builtin), so ``cc`` parses a few lines per kernel, not two system
#: headers, and an unused helper is neither compiled nor warned about.
_C_HELPERS: dict[str, str] = {
    "sqrt": "double sqrt(double);",
    "exp": "double exp(double);",
    "log": "double log(double);",
    "floor": "double floor(double);",
    "fabs": "double fabs(double);",
    "_ld_f64": "static double _ld_f64(const unsigned char *p) "
               "{ double v; __builtin_memcpy(&v, p, 8); return v; }",
    "_ld_f32": "static double _ld_f32(const unsigned char *p) "
               "{ float v; __builtin_memcpy(&v, p, 4); return (double)v; }",
    "_ld_i64": "static long long _ld_i64(const unsigned char *p) "
               "{ long long v; __builtin_memcpy(&v, p, 8); return v; }",
    "_ld_i32": "static long long _ld_i32(const unsigned char *p) "
               "{ int v; __builtin_memcpy(&v, p, 4); return (long long)v; }",
    "_ld_u64": "static long long _ld_u64(const unsigned char *p) "
               "{ unsigned long long v; __builtin_memcpy(&v, p, 8); return (long long)v; }",
    "_ld_u8": "static long long _ld_u8(const unsigned char *p) { return (long long)*p; }",
    "_imod": """static long long _imod(long long a, long long b) {
    long long r; if (b == 0) return 0; r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b; return r;
}""",
    "_fmodpy": """double fmod(double, double);
static double _fmodpy(double a, double b) {
    double r = fmod(a, b);
    if (r != 0.0 && ((r < 0.0) != (b < 0.0))) r += b; return r;
}""",
    "_minll": "static long long _minll(long long a, long long b) { return a < b ? a : b; }",
    "_maxll": "static long long _maxll(long long a, long long b) { return a > b ? a : b; }",
    "_mind": "static double _mind(double a, double b) { return a < b ? a : b; }",
    "_maxd": "static double _maxd(double a, double b) { return a > b ? a : b; }",
    "_absll": "static long long _absll(long long a) { return a < 0 ? -a : a; }",
}

#: How a failing check leaves the split body (defined only when one can).
_C_FAIL_MACRO = "#define _FAIL(rc) { _rc = rc; goto _out; }"

#: ``(dtype kind, itemsize) -> (loader fn, value type)``.
_LOADERS = {
    ("f", 8): ("_ld_f64", "d"),
    ("f", 4): ("_ld_f32", "d"),
    ("i", 8): ("_ld_i64", "i"),
    ("i", 4): ("_ld_i32", "i"),
    ("u", 8): ("_ld_u64", "i"),
    ("u", 1): ("_ld_u8", "i"),
}

_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}


def _join(a: str, b: str) -> str:
    """Numeric type join: double absorbs int."""
    return "d" if "d" in (a, b) else "i"


def _c_literal(value: Any) -> tuple[str, str]:
    """A Python constant as a C literal + its value type."""
    if isinstance(value, bool):
        return ("1" if value else "0"), "i"
    if isinstance(value, int):
        return f"{value}LL", "i"
    if isinstance(value, float):
        if value != value:  # NaN
            return "(0.0/0.0)", "d"
        if value == float("inf"):
            return "(1.0/0.0)", "d"
        if value == float("-inf"):
            return "(-1.0/0.0)", "d"
        return repr(value), "d"
    raise NativeUnsupported(f"cannot emit constant {value!r} as C")


class NativeCodegen(_CBraces, KernelEmitter):
    """Print the C kernel for one compilation plan.

    The walk, the cost-bump placement and the site-plan realization are the
    shared walker's, so the counter ledgers of the C and the scalar kernel
    agree by construction.  This printer's values are ``(C code, "i"|"d")``
    pairs — C needs the type the Python tiers leave to the interpreter — and
    what it adds is C's own: the runtime range checks ``computeIndex``, a
    NumPy row view and ``ReductionObject.accumulate`` perform implicitly,
    spelled out and leaving through ``_FAIL``.  ``summary`` (the PR 7 effect
    summary) proves index bounds; proven levels skip their check.
    ``checked`` prints the checked twin: each proof site also tests its
    ``_proven`` bit, for layouts whose verdict is not full.
    """

    def __init__(
        self,
        lowered: LoweredReduction,
        plan: CompilationPlan,
        summary: Any = None,
        checked: bool = False,
    ) -> None:
        super().__init__(lowered, plan)
        self.summary = summary
        self.checked = checked
        self.local_types: dict[str, str] = {}
        self._tmp = 0  # unique suffix for statement-expression locals
        self.buf_order: list[int] = []
        #: what the rest of the translation unit depends on, collected while
        #: the body is emitted: the helpers it calls, the counter slots it
        #: bumps, and whether any check in it can fail
        self._helpers: set[str] = set()
        self._slots: set[int] = set()
        self._can_fail = False
        #: ``(glo, ghi, ehi, opcode)`` per proof site, in ``_proven`` bit order
        self.proofs: list[tuple[int, int, int, int]] = []

    # -- small helpers ------------------------------------------------------

    def _next_tmp(self) -> int:
        self._tmp += 1
        return self._tmp

    def flush_cost(self, cost: _Cost) -> None:
        """The statement's static counts, bumped *before* it runs (as the
        scalar kernel does) — into integer locals the C compiler can keep in
        registers and merge; ``_C`` itself is only stored at ``_out``."""
        if not cost.counts:
            return
        slots = {_CIDX[k]: v for k, v in cost.counts.items()}
        self._slots.update(slots)
        self._w(" ".join(f"_c{i} += {v};" for i, v in sorted(slots.items())))

    def _use(self, helper: str) -> str:
        """Name a :data:`_C_HELPERS` entry in emitted code."""
        self._helpers.add(helper)
        return helper

    def _fail(self, rc: int) -> str:
        """Leave the split body with ``rc`` through its single exit.

        A check that fails inside an RO update (its arguments included)
        reports ``_RC_UNSTORED`` on top: the update was counted, not stored.
        """
        self._can_fail = True
        return f"_FAIL({rc + (_RC_UNSTORED if self.updating is not None else 0)})"

    # -- local type inference -----------------------------------------------

    def _infer_local_types(self) -> None:
        """Fixpoint: a local is ``long long`` unless any binding is real."""
        types: dict[str, str] = {name: "i" for name in self.low.locals}
        bindings: list[tuple[str, A.Expr | None, bool]] = []
        for stmt in A.walk_stmts(self.low.body):
            if isinstance(stmt, A.VarDeclStmt):
                d = stmt.decl
                if isinstance(d.type, A.NamedTypeExpr) and d.type.name == "real":
                    types[d.name] = "d"
                bindings.append((d.name, d.init, False))
            elif isinstance(stmt, A.Assign):
                # lower guarantees an Ident target; ``/=`` is true division
                bindings.append((stmt.target.name, stmt.value, stmt.op == "/"))
        changed = True
        while changed:
            changed = False
            for name, value, real in bindings:
                if real:
                    t = "d"
                else:
                    t = "i" if value is None else self._type_of(value, types)
                joined = _join(types.get(name, "i"), t)
                if joined != types.get(name):
                    types[name] = joined
                    changed = True
        self.local_types = types

    def _type_of(self, expr: A.Expr, types: dict[str, str]) -> str:
        site = self.low.sites.get(id(expr))
        if site is not None:
            return "d" if np.dtype(site.scalar.dtype).kind == "f" else "i"
        if isinstance(expr, A.IntLit):
            return "i"
        if isinstance(expr, A.RealLit):
            return "d"
        if isinstance(expr, A.BoolLit):
            return "i"
        if isinstance(expr, A.Ident):
            if expr.name in self.low.constants:
                v = self.low.constants[expr.name]
                return "d" if isinstance(v, float) else "i"
            return types.get(expr.name, "i")
        if isinstance(expr, A.BinOp):
            if expr.op in _CMP_OPS or expr.op in ("&&", "||"):
                return "i"
            if expr.op == "/":
                return "d"
            return _join(
                self._type_of(expr.left, types), self._type_of(expr.right, types)
            )
        if isinstance(expr, A.UnaryOp):
            if expr.op == "-":
                return self._type_of(expr.operand, types)
            return "i"
        if isinstance(expr, A.Call):
            if expr.name == "elemIdx":
                return "i"
            if expr.name in ("sqrt", "exp", "log"):
                return "d"
            if expr.name in ("floor", "toInt"):
                return "i"
            if expr.name == "abs":
                return self._type_of(expr.args[0], types)
            if expr.name in ("min", "max"):
                t = "i"
                for a in expr.args:
                    t = _join(t, self._type_of(a, types))
                return t
        return "i"

    # -- expressions --------------------------------------------------------

    def literal(self, value: Any) -> tuple[str, str]:
        return _c_literal(value)

    def local(self, name: str) -> tuple[str, str]:
        return self._mangle(name), self.local_types.get(name, "i")

    def elem_idx(self) -> tuple[str, str]:
        return "(_e + _e0)", "i"

    def as_index(self, value: tuple[str, str]) -> str:
        code, t = value
        return f"((long long)({code}))" if t == "d" else code

    def binop(self, op: str, lhs: tuple[str, str], rhs: tuple[str, str]) -> tuple[str, str]:
        (left, lt), (right, rt) = lhs, rhs
        if op == "/":
            return f"((double)({left}) / (double)({right}))", "d"
        if op == "%":
            if _join(lt, rt) == "i":
                return f"{self._use('_imod')}({left}, {right})", "i"
            return (
                f"{self._use('_fmodpy')}((double)({left}), (double)({right}))",
                "d",
            )
        if op in _CMP_OPS or op in ("&&", "||"):
            return f"({left} {op} {right})", "i"
        return f"({left} {op} {right})", _join(lt, rt)

    def unop(self, op: str, operand: tuple[str, str]) -> tuple[str, str]:
        inner, it = operand
        if op == "-":
            return f"(-({inner}))", it
        return f"(!({inner}))", "i"

    def call(self, name: str, args: list[tuple[str, str]]) -> tuple[str, str]:
        if name in ("sqrt", "exp", "log"):
            code, _ = args[0]
            return f"{self._use(name)}((double)({code}))", "d"
        if name == "floor":
            code, t = args[0]
            if t == "i":  # math.floor of an int is the int itself
                return f"({code})", "i"
            return f"((long long){self._use('floor')}({code}))", "i"
        if name == "toInt":
            code, t = args[0]
            if t == "i":
                return f"({code})", "i"
            return f"((long long)({code}))", "i"  # C cast truncates like int()
        if name == "abs":
            code, t = args[0]
            if t == "d":
                return f"{self._use('fabs')}({code})", "d"
            return f"{self._use('_absll')}({code})", "i"
        if name in ("min", "max"):
            t = "i"
            for _, at in args:
                t = _join(t, at)
            fn = self._use({"min": {"i": "_minll", "d": "_mind"},
                            "max": {"i": "_maxll", "d": "_maxd"}}[name][t])
            cast = "(double)" if t == "d" else ""
            out = f"{cast}({args[0][0]})"
            for code, _ in args[1:]:
                out = f"{fn}({out}, {cast}({code}))"
            return out, t
        raise NativeUnsupported(f"unsupported builtin {name!r} in native backend")

    # -- access sites -------------------------------------------------------

    def _loader(self, site: AccessSite) -> tuple[str, str, int]:
        info = site.info
        assert info is not None
        dt = np.dtype(info.inner_dtype)
        entry = _LOADERS.get((dt.kind, dt.itemsize))
        if entry is None:
            raise NativeUnsupported(
                f"no native loader for dtype {dt} at site {site.expr}"
            )
        return self._use(entry[0]), entry[1], dt.itemsize

    def _group_proven(self, site: AccessSite, gi: int) -> bool:
        """True when every dim of index group ``gi`` has proven bounds."""
        if self.summary is None:
            return False
        info = site.info
        assert info is not None
        wrapped = self._site_wrapped(site)
        dom = info.domains[gi + (1 if wrapped else 0)]
        group = site.index_exprs[gi]
        try:
            for dim, rng in enumerate(dom.ranges[: len(group)]):
                bounds = self.summary.index_bounds(id(site.expr), gi, dim)
                if not bounds.contained_in(rng.low, rng.high):
                    return False
        except Exception:  # summary gaps degrade to a runtime check
            return False
        return True

    def nested_root(self, site: AccessSite) -> str:
        # native needs every site realized over a linearized buffer
        raise NativeUnsupported(
            f"nested access {site.expr} (un-linearized extra at opt level "
            f"{self.plan.opt_level}); native backend needs linear/hoisted "
            "sites — use opt-2 or the batch/scalar path"
        )

    def compute_index(self, site: AccessSite, dense: list) -> str:
        """Inline ``computeIndex``: a statement expression yielding the
        byte offset, with the same per-level range checks Algorithm 3
        performs (elided when the effect summary proves them)."""
        info = site.info
        assert info is not None
        tmp = self._next_tmp()
        stmts: list[str] = []
        terms: list[str] = []
        const = info.trailing_offset + sum(info.level_offsets)
        for i, (code, gi) in enumerate(dense):
            var = f"_x{tmp}_{i}"
            stmts.append(f"long long {var} = {code};")
            # a literal 0 is in range; a position not computed from its own
            # index group (an incremental base's start) has no proof
            if code != "0" and (gi is None or not self._group_proven(site, gi)):
                size = info.domains[i].size
                stmts.append(
                    f"if ({var} < 0 || {var} >= {size}) {self._fail(_RC_MAP_OOB)}"
                )
            if info.unit_size[i] == 1:
                terms.append(var)
            else:
                terms.append(f"{var} * {info.unit_size[i]}")
        value = " + ".join(terms) if terms else "0"
        if const:
            value = f"{value} + {const}"
        out = f"({{ {' '.join(stmts)} {value}; }})"
        if site.kind == "data":
            out = f"(_e * {self.low.element_type.sizeof} + {out})"
        return out

    def load(self, site: AccessSite, offset: str) -> tuple[str, str]:
        loader, vtype, _ = self._loader(site)
        return f"{loader}(_buf_{self._key_id(site)} + {offset})", vtype

    def row_load(
        self, site: AccessSite, hoist_id: int, idx: str, low: int
    ) -> tuple[str, str]:
        loader, vtype, itemsize = self._loader(site)
        if low != 0:
            idx = f"({idx} - {low})"
        if self._group_proven(site, len(site.index_exprs) - 1):
            return f"{loader}(_row_{hoist_id} + ({idx}) * {itemsize})", vtype
        extent = site.info.inner_extent  # type: ignore[union-attr]
        tmp = self._next_tmp()
        # numpy row-view semantics: one negative wrap, then bounds check
        return (
            f"({{ long long _h{tmp} = {idx}; "
            f"if (_h{tmp} < 0) _h{tmp} += {extent}; "
            f"if (_h{tmp} < 0 || _h{tmp} >= {extent}) {self._fail(_RC_ROW_OOB)} "
            f"{loader}(_row_{hoist_id} + _h{tmp} * {itemsize}); }})"
        ), vtype

    def bind_row(self, hoist: LoopHoist, base: str) -> None:
        self._w(f"_row_{hoist.hoist_id} = _buf_{self._key_id(hoist.site)} + {base};")

    def init_base(self, hoist: LoopHoist, base: str) -> None:
        self._w(f"_b_{hoist.hoist_id} = {base};")

    def advance_row(self, hoist: LoopHoist) -> None:
        self.bind_row(hoist, f"_b_{hoist.hoist_id}")
        self._w(f"_b_{hoist.hoist_id} += {hoist.step_bytes};")

    # -- statements ---------------------------------------------------------

    def declare(self, decl: A.VarDecl, init: tuple[str, str] | None) -> None:
        self._w(f"{self._mangle(decl.name)} = {'0' if init is None else init[0]};")

    def assign(self, name: str, op: str | None, value: tuple[str, str]) -> None:
        target = self._mangle(name)
        if op == "/":  # true division even for int targets
            self._w(f"{target} = (double)({target}) / (double)({value[0]});")
        else:
            self._w(f"{target} {op or ''}= {value[0]};")

    def open_if(self, cond: tuple[str, str]) -> None:
        super().open_if(cond[0])

    def open_loop(self, var: str, lo: str, hi: str) -> None:
        # Bounds evaluated once and a hidden iterator drives the loop,
        # so body assignments to the loop variable cannot change the
        # iteration — exactly Python's ``for v in range(lo, hi + 1)``.
        tmp = self._next_tmp()
        self._w(f"{{ long long _lo{tmp} = {lo}; long long _hi{tmp} = {hi};")
        self.indent += 1
        self._w(
            f"for (long long _it{tmp} = _lo{tmp}; _it{tmp} <= _hi{tmp}; "
            f"_it{tmp}++) {{"
        )
        self.indent += 1
        self._w(f"{self._mangle(var)} = _it{tmp};")

    def close_loop(self) -> None:
        self.close_brace()  # the for
        self.close_brace()  # the block holding its bounds

    def expr_stmt(self, value: tuple[str, str]) -> None:
        self._w(f"(void)({value[0]});")

    def _proof(self, opcode: int) -> tuple[int, int, int, int] | None:
        """The update being emitted as a proof site ``(glo, ghi, ehi,
        opcode)``: the effect summary bounds its group index within
        ``[glo, ghi]`` and its element index within ``[0, ehi]``, both
        integral and non-negative.  None when it does not, or when every
        ``_proven`` bit is taken."""
        if self.summary is None or len(self.proofs) == _PROOF_BITS:
            return None
        from repro.analysis.effects import ELEM_RANGE

        # the analysis records each update site once
        eff = next(
            (a for a in self.summary.accumulates if a.expr_id == id(self.updating)),
            None,
        )
        if eff is None or eff.dead or not (eff.group.is_int and eff.elem.is_int):
            return None
        group, elem = eff.group.eval(ELEM_RANGE), eff.elem.eval(ELEM_RANGE)
        if not (group.contained_in(0, _PROOF_MAX)
                and elem.contained_in(0, _PROOF_MAX)):
            return None
        glo, ghi = math.ceil(group.lo), math.floor(group.hi)
        if glo > ghi:
            return None
        return glo, ghi, math.floor(elem.hi), opcode

    def ro_update(self, op: str, args: list[tuple[str, str]]) -> None:
        """``roAdd/roMin/roMax(group, elem, value)`` into the element buffer,
        with the same validation ``ReductionObject.accumulate`` performs.

        At a proof site the checks run only when an index lies outside the
        bounds the verdict was decided for — two compares against constants,
        which the C compiler drops where its own range analysis agrees with
        the effect summary's — or, in the checked twin, when the site's
        ``_proven`` bit is clear."""
        g, e, v = self.as_index(args[0]), self.as_index(args[1]), args[2][0]
        opcode = _OP_CODES[op]
        tmp = self._next_tmp()
        self._w(f"{{ long long _g{tmp} = {g}; long long _el{tmp} = {e}; "
                f"double _v{tmp} = (double)({v});")
        self.indent += 1
        proof = self._proof(opcode)
        if proof is not None:
            glo, ghi, ehi, _ = proof
            bit = len(self.proofs)
            self.proofs.append(proof)
            g_off = f"(unsigned long long)_g{tmp}" + (f" - {glo}ULL" if glo else "")
            unproven = f"!((_proven >> {bit}) & 1) || " if self.checked else ""
            self._w(f"if ({unproven}{g_off} > {ghi - glo}ULL"
                    f" || (unsigned long long)_el{tmp} > {ehi}ULL) {{")
            self.indent += 1
        self._w(f"if (_g{tmp} < 0 || _g{tmp} >= _ro_groups) "
                + self._fail(_RC_RO_GROUP))
        self._w(f"if (_el{tmp} < 0 || _el{tmp} >= _ro_n[_g{tmp}]) "
                + self._fail(_RC_RO_ELEM))
        self._w(f"if (_ro_op[_g{tmp}] != {opcode}) " + self._fail(_RC_RO_OP))
        if proof is not None:
            self.close_brace()
        self._w(f"{{ double *_cell = _acc + _ro_off[_g{tmp}] + _el{tmp};")
        if op == "add":
            self._w(f"  *_cell += _v{tmp}; }}")
        elif op == "min":
            self._w(f"  if (_v{tmp} < *_cell) *_cell = _v{tmp}; }}")
        else:
            self._w(f"  if (_v{tmp} > *_cell) *_cell = _v{tmp}; }}")
        self._w(f"_touched[_g{tmp}] = 1;")
        self.close_brace()

    # -- whole kernel -------------------------------------------------------

    def generate(self) -> str:
        """The full translation unit (symbol still the sentinel token)."""
        self._infer_local_types()
        self.buf_order = sorted(res.kid for res in self.plan.resources.values())
        buf_pos = {kid: i for i, kid in enumerate(self.buf_order)}

        self.lines = []
        self.indent = 0
        self._tmp = 0
        self._helpers, self._slots, self._can_fail = set(), set(), False
        self.proofs = []
        self._w(f"/* {self.low.name}: native FREERIDE kernel, "
                f"opt level {self.plan.opt_level}"
                f"{', checked twin' if self.checked else ''} */")
        target = (
            "    const unsigned char **_bufs, double *_acc,\n"
            "    const long long *_ro_off, const long long *_ro_n,\n"
            "    const long long *_ro_op, long long _ro_groups,\n"
            "    long long _proven, _Bool *_touched, double *_C)"
        )
        self._w(f"static long long {_SYMBOL_SENTINEL}_split(")
        self._w("    long long _start, long long _end, long long _e0,")
        self._w(target)
        self._w("{")
        self.indent += 1
        for kid in self.buf_order:
            self._w(f"const unsigned char *_buf_{kid} = _bufs[{buf_pos[kid]}];")
        for name in sorted(self.low.locals):
            ctype = "double" if self.local_types.get(name) == "d" else "long long"
            init = "0.0" if ctype == "double" else "0"
            self._w(f"{ctype} {self._mangle(name)} = {init};")
        hoists = [
            h
            for hs in list(self.plan.loop_hoists.values())
            + list(self.plan.incremental_hoists.values())
            for h in hs
        ]
        for hoist in sorted(hoists, key=lambda h: h.hoist_id):
            self._w(f"const unsigned char *_row_{hoist.hoist_id} = 0;")
            if hoist.incremental is not None:
                self._w(f"long long _b_{hoist.hoist_id} = 0;")
        prologue = len(self.lines)  # where the counter locals get declared
        self._w("(void)_e0; (void)_bufs; (void)_acc; (void)_ro_off; (void)_ro_n;")
        self._w("(void)_ro_op; (void)_ro_groups; (void)_proven; (void)_touched;")
        self._w("for (long long _e = _start; _e < _end; _e++) {")
        self.indent += 1
        self.flush_cost(_Cost({"elements_processed": 1}))
        self.emit_block(self.low.body)
        self.indent -= 1
        self._w("}")
        # The single exit: the one place the counts are stored, whether the
        # range ran out or a check failed part-way (_out exists only then).
        slots = sorted(self._slots)
        declared = [
            "/* " + ", ".join(f"_c{i}: {_COUNTER_FIELDS[i]}" for i in slots) + " */",
            "long long " + ", ".join(f"_c{i} = 0" for i in slots) + ";",
        ]
        if self._can_fail:
            declared.append("long long _rc = 0;")
            self.lines.append("_out:")
        self.lines[prologue:prologue] = ["    " + line for line in declared]
        self._w(" ".join(f"_C[{i}] += _c{i};" for i in slots))
        self._w("return _rc;" if self._can_fail else "return 0;")
        self.indent -= 1
        self._w("}")
        # The exported entry point: the split body over a list of ranges,
        # stopping at the first split that fails.  Every data key reads the
        # one dataset segment, so one prefetch of the first row of the range
        # PREFETCH_DISTANCE ahead serves them all; a list of one (a dense
        # pass) never issues it.
        data_kid = next(
            (res.kid for res in self.plan.resources.values() if res.kind == "data"), None
        )
        self._w(f"long long {_SYMBOL_SENTINEL}(")
        self._w("    long long _n, const long long *_starts, const long long *_ends,")
        self._w("    long long _e0,")
        self._w(target)
        self._w("{")
        self._w("    for (long long _i = 0; _i < _n; _i++) {")
        if data_kid is not None:
            d, esz = PREFETCH_DISTANCE, self.low.element_type.sizeof
            self._w(f"        if (_i + {d} < _n) __builtin_prefetch("
                    f"_bufs[{buf_pos[data_kid]}] + _starts[_i + {d}] * {esz});")
        self._w(f"        long long _rc = {_SYMBOL_SENTINEL}_split(")
        self._w("            _starts[_i], _ends[_i], _e0, _bufs, _acc, _ro_off, _ro_n,")
        self._w("            _ro_op, _ro_groups, _proven, _touched, _C);")
        self._w("        if (_rc != 0) return _rc;")
        self._w("    }")
        self._w("    return 0;")
        self._w("}")
        prelude = [text for name, text in _C_HELPERS.items() if name in self._helpers]
        if self._can_fail:
            prelude.append(_C_FAIL_MACRO)
        return "\n".join(prelude + [""] + self.lines) + "\n"


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


# ------------------------------------------------------------- disk cache

def kernel_cache_dir() -> Path:
    """The on-disk kernel cache directory (``REPRO_KERNEL_CACHE`` override)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


_dlopen_lock = threading.Lock()
_dlopen_cache: dict[tuple[str, str], tuple[Any, Any]] = {}
_compile_locks: dict[str, threading.Lock] = {}


def _compile_lock_for(symbol: str) -> threading.Lock:
    with _dlopen_lock:
        return _compile_locks.setdefault(symbol, threading.Lock())


def _dlopen(so_path: Path, symbol: str) -> tuple[Any, Any]:
    """dlopen + symbol lookup, cached per (path, symbol) process-wide."""
    import cffi

    key = (str(so_path), symbol)
    with _dlopen_lock:
        entry = _dlopen_cache.get(key)
        if entry is not None:
            return entry
    ffi = cffi.FFI()
    ffi.cdef(
        f"long long {symbol}(long long, const long long *, const long long *, "
        "long long, const unsigned char **, double *, const long long *, "
        "const long long *, const long long *, long long, long long, _Bool *, "
        "double *);"
    )
    lib = ffi.dlopen(str(so_path))
    fn = getattr(lib, symbol)
    with _dlopen_lock:
        _dlopen_cache[key] = (ffi, fn)
    return ffi, fn


@dataclass
class NativeKernel:
    """A compiled-to-machine-code kernel plus everything to invoke it."""

    source: str
    symbol: str
    so_path: Path
    buf_order: tuple[int, ...]
    ffi: Any
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

    source: str
    symbol: str
    #: resolves to the :class:`NativeKernel` (already resolved on a disk hit);
    #: its result raises :class:`NativeUnsupported` when ``cc`` fails
    kernel: Future


# ------------------------------------------------------------ build threads
#
# A cold build runs beside its caller: ``cc`` is a subprocess, and waiting for
# one releases the GIL, so one build thread per CPU keeps every CPU busy.  The
# pool is created by the first cold build of a process (a forked child starts
# without one) and joined by concurrent.futures at interpreter exit, so no
# ``cc`` outlives the process.

_build_lock = threading.Lock()
_build_pool: ThreadPoolExecutor | None = None
#: ``.so`` path -> the build publishing it; finished ones are pruned on submit
_inflight: dict[Path, Future] = {}
_on_build_thread = threading.local()


def _build_width() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _mark_build_thread() -> None:
    _on_build_thread.active = True


def _pool() -> ThreadPoolExecutor:
    """The build threads, made by the first build of a process.  The caller
    holds ``_build_lock``."""
    global _build_pool
    if _build_pool is None:
        _build_pool = ThreadPoolExecutor(
            _build_width(), thread_name_prefix="repro-cc",
            initializer=_mark_build_thread,
        )
    return _build_pool


def _submit(so_path: Path, build: Callable[[], NativeKernel]) -> Future:
    """Run ``build`` on a build thread, unless one for ``so_path`` is in flight."""
    with _build_lock:
        for path in [p for p, f in _inflight.items() if f.done()]:
            del _inflight[path]
        future = _inflight.get(so_path)
        if future is None:
            future = _inflight[so_path] = _pool().submit(build)
        return future


def _before_fork() -> None:
    # Held until the fork is done: no build starts meanwhile.  Waiting lets
    # every build in flight release its per-symbol lock and ``_dlopen_lock``
    # and publish, so the child inherits finished builds only.  Builds never
    # take ``_build_lock``, and a build thread never waits for itself.  The
    # linearizer walker's build is not waited for: the child re-makes the
    # probe lock it may hold and submits its own.
    _build_lock.acquire()
    if not getattr(_on_build_thread, "active", False):
        wait(list(_inflight.values()))


def _after_fork_in_parent() -> None:
    _build_lock.release()


def _after_fork_in_child() -> None:
    global _build_pool, _team_lock, _probe_lock
    _build_pool = None  # its threads did not survive the fork
    _inflight.clear()
    _build_lock.release()
    # nor did any lane team's: the child makes its own on first use
    _team_lock = threading.Lock()
    for team in list(_teams):
        team.alive = False
    # the walker's build, or another thread, may have been mid-probe: the
    # child probes again if the parent's result was not yet set
    _probe_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=_after_fork_in_parent,
        after_in_child=_after_fork_in_child,
    )


def submit_native(
    lowered: LoweredReduction,
    plan: CompilationPlan,
    summary: Any = None,
) -> NativeBuild:
    """Emit the native kernel and start its build; returns without ``cc``.

    The caller's half runs here: the toolchain probe, the C emission, the
    disk key ``sha256(format version | toolchain fingerprint | build flags |
    C source)`` and the symbol.  Everything the build reads from process
    state — :func:`kernel_cache_dir`, :data:`CC_FLAGS`, the probed ``cc`` and
    the active tracer — is read here too, so a later environment change or
    monkeypatch cannot split a build from its key.

    A warm start finds ``<key>.so`` already present and dlopens it right
    here — zero toolchain invocations, asserted by the warm-start tests via
    the absence of ``native_compile`` trace spans.  On a miss the build —
    per-symbol lock, exists re-check, ``cc``, atomic publish, dlopen — runs
    on a build thread (one per CPU), joining one already in flight for the
    same ``.so``.

    A kernel with proof sites carries its checked twin as
    :attr:`NativeKernel.twin`: emitted, keyed and built the same way, by
    the same compiler, but only when a layout first needs it.

    The process's first call also submits the :class:`LaneTeam` runtime's
    build, so a threaded wave never waits for ``cc``.

    Raises :class:`NativeUnsupported` for the two failures known at once: an
    unusable toolchain and a kernel the emitter refuses.  A ``cc`` failure
    is raised by :attr:`NativeBuild.kernel`'s result, as is an ``OSError``
    from dlopen.
    """
    probe = probe_toolchain()
    if not probe["ok"]:
        raise NativeUnsupported(probe["reason"], toolchain=True)
    build = _submit_emitted(NativeCodegen(lowered, plan, summary=summary), probe)
    _submit_team_runtime(probe)  # beside the process's first native build
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

    cc, flags = probe["cc"], CC_FLAGS
    digest = hashlib.sha256(
        f"v{NATIVE_FORMAT_VERSION}|{probe['fingerprint']}|{' '.join(flags)}|"
        f"{template}".encode()
    ).hexdigest()
    symbol = f"repro_native_{digest[:16]}"
    source = template.replace(_SYMBOL_SENTINEL, symbol)

    cache_dir = kernel_cache_dir()
    so_path = cache_dir / f"{symbol}.so"
    tracer = get_tracer()

    def attach(compiled: bool) -> NativeKernel:
        ffi, fn = _dlopen(so_path, symbol)
        return NativeKernel(
            source=source,
            symbol=symbol,
            so_path=so_path,
            buf_order=tuple(gen.buf_order),
            ffi=ffi,
            fn=fn,
            compiled=compiled,
            proofs=tuple(gen.proofs),
            digest=digest,
            twin=twin,
        )

    def verdict(name: str, **args: Any) -> None:
        tracer.event(
            f"native_cache.{name}", cat="cache",
            reduction=lowered.name, opt_level=plan.opt_level,
            digest=digest[:12], **args,
        )

    if so_path.exists():
        verdict("hit", path=str(so_path))
        hit: Future = Future()
        hit.set_result(attach(False))
        return NativeBuild(source, symbol, hit)

    def build() -> NativeKernel:
        compiled = False
        with _compile_lock_for(symbol):
            if so_path.exists():
                verdict("hit", path=str(so_path))
            else:
                verdict("miss")
                with tracer.span(
                    "native_compile", cat="compiler",
                    reduction=lowered.name, opt_level=plan.opt_level, cc=cc,
                ):
                    _cc_publish(cc, flags, source, symbol, so_path)
                compiled = True
            return attach(compiled)

    return NativeBuild(source, symbol, _submit(so_path, build))


def _cc_publish(
    cc: str, flags: tuple[str, ...], source: str, symbol: str, so_path: Path
) -> None:
    """Compile ``source`` into ``so_path`` (its ``.c`` beside it), published
    atomically: concurrent processes race benignly.  The caller holds the
    symbol's compile lock.  Raises :class:`NativeUnsupported`."""
    cache_dir = so_path.parent
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp_c = cache_dir / f".{symbol}.{os.getpid()}.c"
    tmp_so = cache_dir / f".{symbol}.{os.getpid()}.so"
    try:
        tmp_c.write_text(source)
        run = subprocess.run(
            [cc, str(tmp_c), *flags, "-o", str(tmp_so)],
            capture_output=True, text=True, timeout=120,
        )
        if run.returncode != 0 or not tmp_so.exists():
            raise NativeUnsupported(
                "C compilation failed: "
                + (run.stderr.strip()[:500] or "unknown error")
            )
        os.replace(tmp_c, cache_dir / f"{symbol}.c")
        os.replace(tmp_so, so_path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnsupported(f"C compilation failed: {exc}")
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                leftover.unlink()
            except OSError:
                pass


def compile_native(
    lowered: LoweredReduction,
    plan: CompilationPlan,
    summary: Any = None,
) -> NativeKernel:
    """Emit, (maybe) compile and dlopen the native kernel, waiting for the
    build: :func:`submit_native`, then its result.

    Raises :class:`NativeUnsupported` (caller records the fallback).
    """
    return submit_native(lowered, plan, summary).kernel.result()


# ---------------------------------------------------------------- lane team
#
# FREERIDE runs a reduction on daemon threads, one per CPU, that take splits
# themselves (the paper's Fig 4).  A :class:`LaneTeam` is that for a batched
# native wave: ``W`` persistent threads, each parked for its whole life inside
# one cffi call into the runtime below — GIL released — and woken per wave
# through a futex.  A lane claims ``ceil(pending / (2 W))`` split positions at
# a time by compare-and-swap, long batches while the wave is long and single
# splits at its tail, and passes each claim to the kernel's exported ranges
# entry, through its function pointer, into its own target.  The caller
# publishes the wave and futex-waits for the last lane; it runs no lane.
#
# The runtime is one small translation unit, keyed, built and cached like a
# kernel; its build is submitted beside the process's first native build.

#: The team and its lanes, shared verbatim by the C source and the cdef.  A
#: lane's targets are addresses (the kernel's function and its store's
#: buffers come from another cffi instance).  A wave is positions ``[0, n)``
#: of ``starts``/``ends``: the first ``cut`` in segment 0, the rest in
#: segment 1, each with its own buffers and element base; position
#: ``joined`` (-1: none) is the second half of a range cut at the boundary,
#: so it does not count as a split of its own.
_TEAM_TYPES = """
struct repro_lane {
    unsigned long long fn, acc, ro_off, ro_n, ro_op, touched, counters;
    long long groups, proven;
    long long rc, splits, elements;
    unsigned int wake;
};
struct repro_team {
    long long lanes, n, cut, joined, next;
    const long long *starts, *ends;
    const unsigned char **bufs[2];
    long long e0[2];
    unsigned int busy, poisoned, stop;
    struct repro_lane *lane;
};
"""

_TEAM_SOURCE = (
    "/* the lane team runtime: lanes parked on futexes claim split positions */\n"
    "#include <linux/futex.h>\n#include <sys/syscall.h>\n"
    "long syscall(long, ...);\n"
    + _TEAM_TYPES
    + r"""
#define _ADDR(type, a) ((type)(__UINTPTR_TYPE__)(a))
typedef long long (*_ranges_fn)(
    long long, const long long *, const long long *, long long,
    const unsigned char **, double *, const long long *, const long long *,
    const long long *, long long, long long, _Bool *, double *);

static void _park(unsigned int *word, unsigned int seen) {
    syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, seen, 0, 0, 0);
}

static void _unpark(unsigned int *word) {
    syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, 1, 0, 0, 0);
}

/* claim batches until the wave is drained or a lane has failed */
static void _claim(struct repro_team *t, struct repro_lane *l) {
    _ranges_fn fn = _ADDR(_ranges_fn, l->fn);
    long long per = 2 * t->lanes, first, take, end, lo, hi, rc, i;
    int s;
    for (;;) {
        first = __atomic_load_n(&t->next, __ATOMIC_RELAXED);
        do {
            if (__atomic_load_n(&t->poisoned, __ATOMIC_RELAXED) || first >= t->n)
                return;
            take = (t->n - first + per - 1) / per;
        } while (!__atomic_compare_exchange_n(&t->next, &first, first + take, 1,
                                              __ATOMIC_RELAXED, __ATOMIC_RELAXED));
        end = first + take;
        for (s = 0; s < 2; s++) { /* the claim's part in each segment */
            lo = s == 0 ? first : (first > t->cut ? first : t->cut);
            hi = s == 0 ? (end < t->cut ? end : t->cut) : end;
            if (lo >= hi) continue;
            rc = fn(hi - lo, t->starts + lo, t->ends + lo, t->e0[s], t->bufs[s],
                    _ADDR(double *, l->acc), _ADDR(const long long *, l->ro_off),
                    _ADDR(const long long *, l->ro_n), _ADDR(const long long *, l->ro_op),
                    l->groups, l->proven, _ADDR(_Bool *, l->touched),
                    _ADDR(double *, l->counters));
            if (rc != 0) {
                l->rc = rc;
                __atomic_store_n(&t->poisoned, 1, __ATOMIC_RELAXED);
                return;
            }
        }
        l->splits += take - (t->joined >= first && t->joined < end);
        for (i = first; i < end; i++) l->elements += t->ends[i] - t->starts[i];
    }
}

/* a lane thread's whole life: park, run each wave it is woken for, leave on stop */
void __NATIVE_SYMBOL___lane(struct repro_team *t, long long k) {
    struct repro_lane *l = &t->lane[k];
    unsigned int seen = 0, now;
    for (;;) {
        while ((now = __atomic_load_n(&l->wake, __ATOMIC_ACQUIRE)) == seen)
            _park(&l->wake, seen);
        seen = now;
        if (__atomic_load_n(&t->stop, __ATOMIC_ACQUIRE)) return;
        _claim(t, l);
        if (__atomic_sub_fetch(&t->busy, 1, __ATOMIC_ACQ_REL) == 0) _unpark(&t->busy);
    }
}

/* publish the wave to lanes [0, active) and wait until every one has left it */
void __NATIVE_SYMBOL___run(struct repro_team *t, long long active) {
    unsigned int busy;
    long long k;
    t->next = 0;
    t->poisoned = 0;
    __atomic_store_n(&t->busy, (unsigned int)active, __ATOMIC_RELAXED);
    for (k = 0; k < active; k++) {
        struct repro_lane *l = &t->lane[k];
        l->rc = l->splits = l->elements = 0;
        __atomic_add_fetch(&l->wake, 1, __ATOMIC_RELEASE);
        _unpark(&l->wake);
    }
    while ((busy = __atomic_load_n(&t->busy, __ATOMIC_ACQUIRE)) != 0) _park(&t->busy, busy);
}

void __NATIVE_SYMBOL___stop(struct repro_team *t) {
    long long k;
    __atomic_store_n(&t->stop, 1, __ATOMIC_RELEASE);
    for (k = 0; k < t->lanes; k++) {
        __atomic_add_fetch(&t->lane[k].wake, 1, __ATOMIC_RELEASE);
        _unpark(&t->lane[k].wake);
    }
}
"""
)

#: A lane's counter row, in float64s: whole cache lines, so no two lanes'
#: per-range counter stores share one.
_TEAM_COUNTER_STRIDE = -(-len(_COUNTER_FIELDS) // 8) * 8


class _TeamRuntime(NamedTuple):
    ffi: Any
    lib: Any  # the dlopen'd library, alive as long as its functions are used
    lane: Any
    run: Any
    stop: Any


_team_lock = threading.Lock()
#: the runtime's build, submitted once per process (a ``Future``)
_team_build: Future | None = None
#: every team alive in this process, for the fork handler
_teams: "weakref.WeakSet[LaneTeam]" = weakref.WeakSet()
_team_warned = False


def _submit_team_runtime(probe: dict[str, Any]) -> Future:
    """The team runtime's build, submitted by the first call in a process."""
    global _team_build
    with _team_lock:
        if _team_build is None:
            _team_build = _build_team_runtime(probe)
        return _team_build


def _build_team_runtime(probe: dict[str, Any]) -> Future:
    if not sys.platform.startswith("linux"):
        absent: Future = Future()
        absent.set_exception(NativeUnsupported(
            f"lane teams park on futexes, which {sys.platform} does not have"
        ))
        return absent
    cc, flags = probe["cc"], CC_FLAGS
    digest = hashlib.sha256(
        f"team|{probe['fingerprint']}|{' '.join(flags)}|{_TEAM_SOURCE}".encode()
    ).hexdigest()
    symbol = f"repro_team_{digest[:16]}"
    so_path = kernel_cache_dir() / f"{symbol}.so"

    def attach() -> _TeamRuntime:
        import cffi

        ffi = cffi.FFI()
        ffi.cdef(
            _TEAM_TYPES
            + f"void {symbol}_lane(struct repro_team *, long long);\n"
            f"void {symbol}_run(struct repro_team *, long long);\n"
            f"void {symbol}_stop(struct repro_team *);\n"
        )
        try:
            lib = ffi.dlopen(str(so_path))
        except OSError as exc:
            raise NativeUnsupported(f"cannot load the lane team runtime: {exc}")
        return _TeamRuntime(
            ffi, lib, *(getattr(lib, f"{symbol}_{fn}") for fn in ("lane", "run", "stop"))
        )

    def build() -> _TeamRuntime:
        with _compile_lock_for(symbol):
            if not so_path.exists():
                _cc_publish(
                    cc, flags, _TEAM_SOURCE.replace(_SYMBOL_SENTINEL, symbol),
                    symbol, so_path,
                )
        return attach()  # a disk hit is attached here too, off the caller

    return _submit(so_path, build)


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
    native waves (see the section comment above).

    :meth:`run` is one wave, one at a time per team; :meth:`close` stops and
    joins the lanes (also when the team is garbage collected).  Raises
    :class:`NativeUnsupported` when no team can exist here: no futex on the
    platform, a failed runtime build, a thread that cannot start.
    """

    def __init__(self, lanes: int) -> None:
        probe = probe_toolchain()
        if not probe["ok"]:
            raise NativeUnsupported(probe["reason"], toolchain=True)
        rt = _submit_team_runtime(probe).result()
        ffi = rt.ffi
        self.lanes = lanes
        self._rt = rt
        self._team = team = ffi.new("struct repro_team *")
        self._lane = lane = ffi.new("struct repro_lane[]", lanes)
        team.lanes, team.lane = lanes, lane
        self.counters = aligned_empty(lanes * _TEAM_COUNTER_STRIDE, np.float64).reshape(
            lanes, _TEAM_COUNTER_STRIDE
        )
        for k in range(lanes):
            lane[k].counters = self.counters[k].ctypes.data
        self._wave_lock = threading.Lock()
        #: False once closed, or in a forked child (which has no lanes)
        self.alive = True
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
        _teams.add(self)

    def close(self) -> None:
        """Stop and join the lanes.  Idempotent."""
        self.alive = False
        self._retire()

    def run(
        self,
        segments: "list[tuple[np.ndarray, np.ndarray, int, list[np.ndarray]]]",
        joined: int,
        targets: "list[tuple[int, ...]]",
    ) -> "list[tuple[int, int, int, list[float]]]":
        """One wave over one or two ``(starts, ends, element base, data
        buffers)`` segments, lane ``k`` storing through ``targets[k]`` (the
        eight values of its :data:`_TEAM_TYPES` fields ``fn`` to ``proven``).

        Returns ``(rc, splits, elements, counters)`` per lane that took part:
        the first ``min(lanes, positions)``.
        """
        ffi, team, lane = self._rt.ffi, self._team, self._lane
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
                t = lane[k]
                (t.fn, t.acc, t.ro_off, t.ro_n, t.ro_op, t.touched,
                 t.groups, t.proven) = targets[k]
            counters = self.counters[:active]
            counters.fill(0.0)
            self._rt.run(team, active)
            counts = counters[:, : len(_COUNTER_FIELDS)].tolist()
            return [
                (lane[k].rc, lane[k].splits, lane[k].elements, counts[k])
                for k in range(active)
            ]


def lane_team(owner: Any, lanes: int) -> "LaneTeam | None":
    """``owner.team``, made on first use (and again in a forked child).

    ``None`` when no team can exist here: the wave's lanes then run inline,
    recorded by a ``native_team`` trace event (each time) and one logged
    warning per process.
    """
    global _team_warned
    team = owner.team
    if team is not None and team.alive:
        return team
    try:
        team = owner.team = LaneTeam(lanes)
    except NativeUnsupported as exc:
        get_tracer().event("native_team", cat="compiler", lanes=lanes, reason=str(exc))
        with _team_lock:
            warn, _team_warned = not _team_warned, True
        if warn:
            _log.warning(
                "native lane team unavailable, threaded waves run inline: %s", exc
            )
        return None
    return team


# ------------------------------------------------------- linearizer walker
#
# Algorithm 2 over a whole nested value in one C call: a depth-first walk of
# the value against a *plan* of its type (``linearize._walk_plan``) that
# accepts each nested value only where ``linearize._pack`` would pack it to
# the same bytes and writes every scalar at its offset as it goes.  A value
# it refuses is packed again, from scratch, by ``_pack``, which writes the
# same bytes or raises the path-named error.  Each call first decodes its
# plan into C nodes (one per distinct type node); the walk then reads every
# value in place and knows one path per node kind:
#   * a composite is an instance of exactly its node's value class, its
#     ``.type`` and parts slots read at the offsets of the object member
#     descriptors the class resolves (an unset slot, or a class whose
#     attribute is any other descriptor, is a refusal);
#   * an array's elements and a structure's members — a record's as a
#     tuple's, in declaration order — are an exact ``list`` of the node's
#     length, read by position (no dict lookup: one structure kind);
#   * a primitive backing is an exact ``numpy.ndarray``, 1-D, C-contiguous,
#     aligned and ``extent`` long whose dtype is the plan's very object, and
#     is copied from its data pointer, read through NumPy's
#     ``PyArrayObject_fields`` (no NumPy C-API call, no ``import_array``);
#   * a leaf is an exact ``float``, or an exact ``int`` that fits int64.
# The walk reads Python objects, so it holds the GIL for the whole call: the
# walker is a CPython extension module, loaded with ``ExtensionFileLoader``,
# never a cffi library (an ABI-mode call releases the GIL).  It is built
# against ``Python.h`` and NumPy's headers, keyed (NumPy's version included)
# and cached like the team runtime, and built once per process, on a build
# thread, submitted by the first linearization of a type it can walk; no
# linearization waits for it.  Nor does a fork: a child whose parent's build
# was in flight re-makes the probe lock that build may hold
# (``_after_fork_in_child``) and submits its own.

_WALK_SOURCE = (
    "/* the linearizer walker: Algorithm 2 in one call, under the GIL */\n"
    "#define PY_SSIZE_T_CLEAN\n#include <Python.h>\n#include <structmember.h>\n"
    "#include <string.h>\n"
    "#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION\n"
    "#include <numpy/ndarraytypes.h>\n"
    + r"""
/* Plan nodes, as linearize._walk_plan builds them: a leaf is (kind, sizeof),
   a composite (kind, sizeof, type, value class, parts slot name, ...) plus
     W_PRIMS   extent, the backing's dtype;
     W_ARRAY   extent, element node;
     W_STRUCT  ((byte offset, node), ...), one per member in order. */
enum { W_REAL, W_INT, W_PRIMS, W_ARRAY, W_STRUCT };
#define AT(t, i) PyTuple_GET_ITEM(t, i)
#define SLOT(v, off) (*(PyObject **)((char *)(v) + (off)))
#define BACKING (NPY_ARRAY_C_CONTIGUOUS | NPY_ARRAY_ALIGNED)

typedef struct node node;
typedef struct { Py_ssize_t off; node *node; } member;

/* a plan node, decoded; every object is borrowed from the plan */
struct node {
    node *next;              /* the call's decoded nodes, for reuse and free */
    PyObject *plan;
    long kind;
    Py_ssize_t size, n;      /* sizeof; extent, or member count */
    PyObject *type, *dtype;
    PyTypeObject *cls;       /* NULL: the class's slots are not object members */
    Py_ssize_t type_off, parts_off;
    node *elt;
    member *members;
};

static PyObject *s_type;
static PyTypeObject *s_ndarray;

/* A refusal: 0, clearing an Exception (_pack meets it again); -1 leaves
   anything else (KeyboardInterrupt) raised. */
static int refused(void) {
    if (PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_Exception)) return -1;
        PyErr_Clear();
    }
    return 0;
}

static node *bad_plan(void) {
    PyErr_SetString(PyExc_TypeError, "walk: not a linearizer plan");
    return NULL;
}

/* the offset of the object slot `name` resolves to on `cls`; -1 for any
   other attribute */
static Py_ssize_t slot_offset(PyTypeObject *cls, PyObject *name) {
    PyObject *d = _PyType_Lookup(cls, name);
    PyMemberDef *m;
    if (d == NULL || !Py_IS_TYPE(d, &PyMemberDescr_Type)) return -1;
    m = ((PyMemberDescrObject *)d)->d_member;
    return m->type == T_OBJECT_EX ? m->offset : -1;
}

static void free_nodes(node *all) {
    while (all != NULL) {
        node *next = all->next;
        PyMem_Free(all->members);
        PyMem_Free(all);
        all = next;
    }
}

/* `plan` as a C node, prepended to `*all`; a node met again is reused */
static node *decode(PyObject *plan, node **all) {
    node *n;
    Py_ssize_t k, len;
    for (n = *all; n != NULL; n = n->next)
        if (n->plan == plan) return n;
    if (!PyTuple_CheckExact(plan) || (len = PyTuple_GET_SIZE(plan)) < 2) return bad_plan();
    n = PyMem_Calloc(1, sizeof *n);
    if (n == NULL) return (node *)PyErr_NoMemory();
    n->next = *all;
    *all = n;
    n->plan = plan;
    n->kind = PyLong_AsLong(AT(plan, 0));
    n->size = PyLong_AsSsize_t(AT(plan, 1));
    if (PyErr_Occurred()) return NULL;
    if (n->kind == W_REAL || n->kind == W_INT)
        return len == 2 && n->size == 8 ? n : bad_plan();
    if (len != (n->kind == W_STRUCT ? 6 : 7)
        || !PyType_Check(AT(plan, 3)) || !PyUnicode_CheckExact(AT(plan, 4)))
        return bad_plan();
    n->type = AT(plan, 2);
    n->cls = (PyTypeObject *)AT(plan, 3);
    n->type_off = slot_offset(n->cls, s_type);
    n->parts_off = slot_offset(n->cls, AT(plan, 4));
    if (n->type_off < 0 || n->parts_off < 0) n->cls = NULL;
    if (n->kind == W_PRIMS || n->kind == W_ARRAY) {
        n->n = PyLong_AsSsize_t(AT(plan, 5));
        if (n->n < 0) return PyErr_Occurred() ? NULL : bad_plan();
        if (n->kind == W_PRIMS) {  /* sizeof is extent x the dtype's itemsize:
                                      only its identity is ever read */
            n->dtype = AT(plan, 6);
            return n;
        }
        n->elt = decode(AT(plan, 6), all);
        if (n->elt == NULL) return NULL;
        return n->n * n->elt->size == n->size ? n : bad_plan();
    }
    if (n->kind != W_STRUCT || !PyTuple_CheckExact(AT(plan, 5))) return bad_plan();
    n->n = PyTuple_GET_SIZE(AT(plan, 5));
    n->members = PyMem_Calloc((size_t)n->n + 1, sizeof(member));
    if (n->members == NULL) return (node *)PyErr_NoMemory();
    for (k = 0; k < n->n; k++) {
        PyObject *m = AT(AT(plan, 5), k);
        member *p = &n->members[k];
        if (!PyTuple_CheckExact(m) || PyTuple_GET_SIZE(m) != 2) return bad_plan();
        p->off = PyLong_AsSsize_t(AT(m, 0));
        if (p->off == -1 && PyErr_Occurred()) return NULL;
        p->node = decode(AT(m, 1), all);
        if (p->node == NULL) return NULL;
        if (p->off < 0 || p->off + p->node->size > n->size) return bad_plan();
    }
    return n;
}

static int walk(const node *n, PyObject *v, char *out);

/* a borrowed part, held while it is walked (a type's __eq__ is Python) */
static int walk_part(const node *n, PyObject *v, char *out) {
    int rc;
    Py_INCREF(v);
    rc = walk(n, v, out);
    Py_DECREF(v);
    return rc;
}

static int walk_parts(const node *n, PyObject *parts, char *out) {
    Py_ssize_t k;
    int rc = 1;
    if (n->kind == W_PRIMS) {
        PyArrayObject_fields *a = (PyArrayObject_fields *)parts;
        if (Py_TYPE(parts) != s_ndarray || a->nd != 1 || a->dimensions[0] != n->n
            || (PyObject *)a->descr != n->dtype || (a->flags & BACKING) != BACKING)
            return 0;
        memcpy(out, a->data, (size_t)n->size);
        return 1;
    }
    /* an array's elements and a structure's members: an exact list of the
       node's length, read by position (and its length again after each
       part, whose walk may have run a type's __eq__) */
    if (!PyList_CheckExact(parts) || PyList_GET_SIZE(parts) != n->n) return 0;
    for (k = 0; k < n->n && rc == 1; k++) {
        PyObject *x;
        if (PyList_GET_SIZE(parts) != n->n) return 0;
        x = PyList_GET_ITEM(parts, k);
        rc = n->kind == W_ARRAY ? walk_part(n->elt, x, out + k * n->elt->size)
                                : walk_part(n->members[k].node, x, out + n->members[k].off);
    }
    return rc;
}

/* 1: the value is written at out; 0: refused; -1: an error is raised */
static int walk(const node *n, PyObject *v, char *out) {
    PyObject *vt, *parts;
    int rc;
    if (n->kind == W_REAL) {
        double d;
        if (!PyFloat_CheckExact(v)) return 0;
        d = PyFloat_AS_DOUBLE(v);
        memcpy(out, &d, sizeof d);
        return 1;
    }
    if (n->kind == W_INT) {
        int overflow;
        long long x;
        if (!PyLong_CheckExact(v)) return 0;
        x = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (overflow || (x == -1 && PyErr_Occurred())) return refused();
        memcpy(out, &x, sizeof x);
        return 1;
    }
    /* a value of exactly the node's class whose .type is the node's type,
       or equal to it */
    if (Py_TYPE(v) != n->cls || (vt = SLOT(v, n->type_off)) == NULL) return 0;
    if (vt != n->type) {
        Py_INCREF(vt);
        rc = PyObject_RichCompareBool(vt, n->type, Py_EQ);
        Py_DECREF(vt);
        if (rc != 1) return rc < 0 ? refused() : 0;
    }
    parts = SLOT(v, n->parts_off);  /* read after __eq__, which is Python */
    if (parts == NULL) return 0;
    Py_INCREF(parts);
    rc = walk_parts(n, parts, out);
    Py_DECREF(parts);
    return rc;
}

static PyObject *py_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    Py_buffer out;
    node *all = NULL, *root;
    int rc = -1;
    (void)self;
    if (nargs != 3 || !PyTuple_CheckExact(args[0])) {
        PyErr_SetString(PyExc_TypeError, "walk(plan, value, out) takes a plan tuple");
        return NULL;
    }
    if (PyObject_GetBuffer(args[2], &out, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    root = decode(args[0], &all);
    if (root != NULL && out.len != root->size)
        PyErr_SetString(PyExc_ValueError, "walk: the buffer is not the plan's size");
    else if (root != NULL)
        rc = walk(root, args[1], (char *)out.buf);
    free_nodes(all);
    PyBuffer_Release(&out);
    return rc < 0 ? NULL : PyBool_FromLong(rc);
}

static PyMethodDef walk_methods[] = {
    {"walk", (PyCFunction)(void (*)(void))py_walk, METH_FASTCALL,
     "walk(plan, value, out) -> bool: pack value into out, or refuse it"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef walk_module = {
    .m_base = PyModuleDef_HEAD_INIT, .m_name = "__NATIVE_SYMBOL__", .m_size = -1,
    .m_methods = walk_methods,
};

PyMODINIT_FUNC PyInit___NATIVE_SYMBOL__(void) {
    PyObject *numpy = PyImport_ImportModule("numpy"), *ndarray;
    if (numpy == NULL) return NULL;
    ndarray = PyObject_GetAttrString(numpy, "ndarray");
    Py_DECREF(numpy);
    if (ndarray == NULL) return NULL;
    if (!PyType_Check(ndarray)
        || ((PyTypeObject *)ndarray)->tp_basicsize < (Py_ssize_t)sizeof(PyArrayObject_fields)) {
        Py_DECREF(ndarray);
        PyErr_SetString(PyExc_ImportError, "numpy.ndarray does not match NumPy's headers");
        return NULL;
    }
    s_ndarray = (PyTypeObject *)ndarray;  /* held for the process */
    s_type = PyUnicode_InternFromString("type");
    return s_type == NULL ? NULL : PyModule_Create(&walk_module);
}
"""
)

#: the walker's ``walk``, once its build landed in this process
_walker: Callable[..., bool] | None = None
#: why no walker can exist in this process (None: it can, or may yet)
_walk_missing: str | None = None
#: the process that submitted the build (a forked child finds its parent's)
_walk_pid: int | None = None
#: that build (``linearizer(wait=True)`` waits for it)
_walk_build: Future | None = None


def linearizer(wait: bool = False) -> tuple[Callable[..., bool] | None, str]:
    """The walker's ``walk(plan, value, out)`` and ``"c"``; ``(None,
    "building")`` until its build lands, ``(None, "unavailable")`` where it
    cannot exist (no ``cc``, no ``Python.h``, a failed build).

    The process's first call submits the build and returns at once;
    ``wait=True`` waits for it.  Every ``"unavailable"`` answer emits a
    ``linearize_walk`` trace event.  A failed build logs one warning per
    process, a failed toolchain probe its own; a forked child whose
    parent's build was in flight logs one and emits the event as it submits
    its own.
    """
    global _walk_pid, _walk_build
    if _walker is not None:
        return _walker, "c"
    pid = os.getpid()
    if _walk_missing is None and _walk_pid != pid:
        with _build_lock:
            if _walk_pid != pid:
                orphaned = _walk_pid is not None
                _walk_build = _pool().submit(_build_walker, kernel_cache_dir())
                _walk_pid = pid
                if orphaned:
                    reason = "the parent's walker build was in flight at the fork"
                    get_tracer().event(
                        "linearize_walk", cat="linearize", walk="building", reason=reason
                    )
                    _log.warning(
                        "%s: this process builds its own, and Algorithm 2 runs on "
                        "linearize._pack until it lands", reason,
                    )
    if wait and _walk_pid == pid:
        _walk_build.result()
    if _walker is not None:
        return _walker, "c"
    if _walk_missing is not None:
        get_tracer().event(
            "linearize_walk", cat="linearize", walk="unavailable", reason=_walk_missing
        )
        return None, "unavailable"
    return None, "building"


def _build_walker(cache_dir: Path) -> None:
    """The walker's build, on a build thread: probe, key, ``cc`` on a disk
    miss, load.  Sets ``_walker``, or ``_walk_missing`` and warns."""
    global _walker, _walk_missing
    probe = probe_toolchain()
    try:
        if not probe["ok"]:
            raise NativeUnsupported(probe["reason"], toolchain=True)
        _walker = _load_walker(probe, cache_dir)
    except Exception as exc:  # the build thread's boundary: report, never raise
        _walk_missing = str(exc) or type(exc).__name__
        if not getattr(exc, "toolchain", False):  # a failed probe has warned
            _log.warning(
                "linearizer walker unavailable, Algorithm 2 runs on "
                "linearize._pack: %s", exc,
                exc_info=not isinstance(exc, (NativeUnsupported, ImportError, OSError)),
            )


def _walker_includes() -> tuple[str, ...]:
    """The include directories the walker builds against: this interpreter's
    and NumPy's.  Raises :class:`NativeUnsupported` when a header is missing."""
    paths = sysconfig.get_paths()
    if not Path(paths["include"], "Python.h").exists():
        raise NativeUnsupported(f"no Python.h in {paths['include']}")
    numpy_include = np.get_include()
    if not Path(numpy_include, "numpy", "ndarraytypes.h").exists():
        raise NativeUnsupported(f"no numpy/ndarraytypes.h in {numpy_include}")
    return tuple(dict.fromkeys((paths["include"], paths["platinclude"], numpy_include)))


def _load_walker(probe: dict[str, Any], cache_dir: Path) -> Callable[..., bool]:
    """Key the walker, ``cc`` it on a disk miss, load it; its ``walk``."""
    flags = CC_FLAGS + tuple(f"-I{d}" for d in _walker_includes())
    digest = hashlib.sha256(
        f"walk|{probe['fingerprint']}|{' '.join(flags)}|numpy {np.__version__}|"
        f"{sysconfig.get_config_var('EXT_SUFFIX')}|{_WALK_SOURCE}".encode()
    ).hexdigest()
    symbol = f"repro_walk_{digest[:16]}"
    so_path = cache_dir / f"{symbol}.so"
    if not so_path.exists():  # one build per process: no compile lock to take
        _cc_publish(
            probe["cc"], flags, _WALK_SOURCE.replace(_SYMBOL_SENTINEL, symbol),
            symbol, so_path,
        )
    loader = ExtensionFileLoader(symbol, str(so_path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(symbol, loader))
    loader.exec_module(module)
    return module.walk


# ------------------------------------------------------------ Python wrapper

_RC_MESSAGES = {
    _RC_MAP_OOB: (MappingError, "computeIndex position out of range"),
    _RC_ROW_OOB: (IndexError, "hoisted row index out of bounds"),  # a NumPy row view's
    _RC_RO_GROUP: (ReductionObjectError, "group not allocated"),
    _RC_RO_ELEM: (ReductionObjectError, "element out of range for its group"),
    _RC_RO_OP: (ReductionObjectError, "update op does not match the group's op"),
}


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


def make_native_kernel(native: NativeKernel, name: str) -> Callable:
    """The ``_kernel(_start, _end, _ro, _env, _C)`` twin of the C function.

    The returned kernel's ``ranges`` attribute is the one path every call
    takes: ``ranges(starts, ends, _ro, _env, _C)`` reduces the element
    ranges ``[starts[i], ends[i])`` — two int64 arrays whose pointers go to
    C as they are — in a single C call (GIL released by cffi for all of
    it) and folds the counter array into the ledger once.
    ``_ro`` — a reduction object or an accessor — decides where the
    kernel stores: into the buffers its ``direct_store()`` names, the
    wrapper reporting the update count through ``note_updates`` — on
    failure too, so what a failing call stored before it failed is
    accounted for like any other update.  What depends only on the store
    — the layout tables' and buffers' C pointers — is prepared once per
    (thread, store), and the proof verdict once per layout; nothing per
    call walks the groups.  The verdict also picks the C function: the
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
    ffi = native.ffi
    buf_names = [f"buf_{kid}" for kid in native.buf_order]
    tls = threading.local()
    ledger_lock = threading.Lock()  # lanes of one run share the ledger
    full = (1 << len(native.proofs)) - 1
    #: interned layout -> (its proof_mask, the C function that runs it)
    verdicts: dict[Any, tuple[int, Any]] = {}

    def _thread_state() -> tuple:
        try:
            return tls.state
        except AttributeError:
            counters = aligned_empty(len(_COUNTER_FIELDS), np.float64)
            tls.state = state = (
                counters,
                ffi.cast("double *", counters.ctypes.data),
                weakref.WeakKeyDictionary(),  # store -> prepared call arguments
                ffi.new("const unsigned char *[]", max(1, len(buf_names))),
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

    def _prepare(store: Any) -> tuple:
        # The entry must not reference its (weak) key; the buffers behind
        # the pointers live as long as the key does.  A racing thread may
        # decide a new layout's verdict twice, to the same mask.
        verdict = verdicts.get(store.layout)
        if verdict is None:
            verdict = verdicts[store.layout] = _verdict(store)
        proven, fn = verdict
        addresses = (
            store.elements.ctypes.data, store.offsets.ctypes.data,
            store.nelems.ctypes.data, store.opcodes.ctypes.data,
        )
        touched = store.touched.ctypes.data
        c_elems, c_off, c_n, c_op = (
            ffi.cast(ctype, address)
            for ctype, address in zip(
                ("double *", "const long long *", "const long long *", "const long long *"),
                addresses,
            )
        )
        return (
            fn, c_elems, c_off, c_n, c_op, len(store.offsets), proven,
            ffi.cast("_Bool *", touched),
            # the same, as a team lane's target fields
            (int(ffi.cast("uintptr_t", fn)), *addresses, touched,
             len(store.offsets), proven),
        )

    def _native_ranges(_starts, _ends, _ro, _env, _C):
        # what C dereferences: two C-contiguous int64 arrays of one length
        _starts = np.ascontiguousarray(_starts, dtype=np.int64)
        _ends = np.ascontiguousarray(_ends, dtype=np.int64)
        if _starts.ndim != 1 or _starts.shape != _ends.shape:
            raise ValueError(
                f"native kernel {name}: ranges need two 1-D arrays of one "
                f"length, got shapes {_starts.shape} and {_ends.shape}"
            )
        counters, c_counters, targets, c_bufs = _thread_state()
        store = _ro.direct_store()
        prepared = targets.get(store)
        if prepared is None:
            prepared = targets[store] = _prepare(store)
        fn, c_elems, c_off, c_n, c_op, groups, proven, c_touched, _ = prepared
        # the env owns the data buffers (and may swap them between calls)
        for i, buf_name in enumerate(buf_names):
            c_bufs[i] = ffi.from_buffer("const unsigned char[]", _env[buf_name])
        counters[:] = 0.0

        rc = fn(
            len(_starts),
            ffi.from_buffer("long long[]", _starts),
            ffi.from_buffer("long long[]", _ends),
            _env.get("_elem_base", 0),
            c_bufs, c_elems, c_off, c_n, c_op, groups, proven, c_touched,
            c_counters,
        )

        # A failing call counts like the scalar kernel: everything up to the
        # statement that failed is in the ledger and in the target.
        counts = counters.tolist()
        with ledger_lock:
            for field, value in zip(_COUNTER_FIELDS, counts):
                if value:
                    setattr(_C, field, getattr(_C, field) + value)
        unstored, rc = divmod(rc, _RC_UNSTORED)
        _ro.note_updates(int(counts[_IDX_RO_UPDATES]) - unstored)
        if rc != 0:
            _raise(rc)

    def _raise(rc: int) -> None:
        exc_type, msg = _RC_MESSAGES.get(rc, (RuntimeError, f"native kernel error {rc}"))
        raise exc_type(f"native kernel {name}: {msg}")

    def _native_wave(owner, pieces, joined, lanes, _C):
        # ``ranges`` over a wave's ranges on the owner's lane team: lane k
        # claims positions into lanes[k].  ``pieces`` are (starts, ends, env)
        # per dataset segment.  None when no team can exist here.
        team = lane_team(owner, len(lanes))
        if team is None:
            return None
        targets = _thread_state()[2]
        lane_targets = []
        for ro in lanes[: min(len(lanes), sum(len(p[0]) for p in pieces))]:
            store = ro.direct_store()
            prepared = targets.get(store)
            if prepared is None:
                prepared = targets[store] = _prepare(store)
            lane_targets.append(prepared[-1])
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
            unstored, rc = divmod(rc, _RC_UNSTORED)
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
