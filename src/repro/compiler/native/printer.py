"""The C printer of the native tier: lowered kernel IR -> one C translation unit.

:class:`NativeCodegen` is the C printer of the shared
:class:`~repro.compiler.codegen.KernelEmitter` walk the Python and batch
printers also serve; it emits one self-contained C translation unit per
kernel version, mirroring the instrumented Python kernel *exactly*:

* the walker applies the same SitePlan/LoopHoist decisions to every access
  site; the printer realizes them in C (``computeIndex`` inlined as a
  constant-folded affine byte offset, hoisted rows as base pointers,
  incremental bases bumped per iteration);
* the walker's static per-statement :class:`~repro.compiler.codegen._Cost`
  bumps land in register locals stored once per range, at the split body's
  single exit (DESIGN.md §5), so the ledger is the scalar kernel's,
  statement for statement, on success and on failure alike;
* reduction-object updates are *reduced in one step* (paper §III-A):
  the kernel accumulates straight into the element buffer its target —
  a reduction object or a locking lane — hands out (``direct_store()``),
  with the same group/element/op validation the scalar path performs,
  and sets the group's touched flag itself; the wrapper only reports the
  update count back (``note_updates``).  Which buffer that is, and what
  synchronization a store still owes afterwards, is the target's business
  (:mod:`repro.freeride.sharedmem`), not this module's.

The exported C function is a ``freeride_ranges`` (``freeride.h``, the
contract the team runtime and the cffi side read too).  It takes a *list*
of ``[start, end)`` ranges and the reduction object as one ``struct
freeride_ro``, and loops the per-split body over the list, so one cffi
call — GIL released for all of it, in cffi's ABI mode — covers a whole
batch of splits: threads scale, and the interpreter's share of a pass no
longer grows with the split count.  A single split is a list of one (a
team lane's claim is another).  The ranges are positions in one dataset
segment, whose first global position comes as ``_e0``: ``elemIdx()`` is
``_e + _e0``, and data offsets stay segment-local.
The loop already holds the whole list before it reads a row, so it
prefetches the first data row of the range :data:`PREFETCH_DISTANCE`
ahead: a scattered list (a retraction) is a gather that otherwise waits on
memory at every range.  Element-dependent branches and bounded gathers
that force the batch backend whole-kernel scalar compile to ordinary C
control flow.

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
* an RO update whose indices the effect summary bounds is a *proof site*:
  its checks run only outside those bounds, on a layout whose verdict
  (``proof_mask``) is full; any other layout runs the kernel's *checked
  twin*, where a clear ``_proven`` bit runs them as before (DESIGN.md §5);
* updates to one group in a row form a *group run*
  (:meth:`NativeCodegen.emit_block`): the group and its row are settled
  once at the run's head, and its touched flag is stored once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import fields as dc_fields
from typing import Any

import numpy as np

from repro.chapel import ast as A
from repro.chapel.builtins import BINARY, C_HELPERS, C_LIBM, Builtin, c_helpers, lookup
from repro.compiler.codegen import KernelEmitter, _CBraces, _Cost
from repro.compiler.lower import AccessSite, LoweredReduction
from repro.compiler.native.artifact import _INCLUDE, _SYMBOL_SENTINEL
from repro.compiler.native.toolchain import NativeUnsupported
from repro.compiler.passes import CompilationPlan, LoopHoist
from repro.freeride.reduction_object import OP_CODES as _OP_CODES
from repro.machine.counters import OpCounters
from repro.util.errors import MappingError, ReductionObjectError

#: OpCounters field order — the index layout of the C ``_C`` array.
_COUNTER_FIELDS: tuple[str, ...] = tuple(f.name for f in dc_fields(OpCounters))
_CIDX = {name: i for i, name in enumerate(_COUNTER_FIELDS)}
_IDX_RO_UPDATES = _CIDX["ro_updates"]

#: What each failing check's return code raises, by its ``enum freeride_rc``
#: name: the exception type the scalar kernel raises.  A code with
#: ``FREERIDE_UNSTORED`` added failed inside an RO update: its ``ro_updates``
#: bump is in the ledger (counts precede their statement, as in the scalar
#: kernel) but no store happened, so ``update_count`` is one less.
_RC_MESSAGES = {
    "FREERIDE_MAP_OOB": (MappingError, "computeIndex position out of range"),
    "FREERIDE_ROW_OOB": (IndexError, "hoisted row index out of bounds"),  # a NumPy row view's
    "FREERIDE_RO_GROUP": (ReductionObjectError, "group not allocated"),
    "FREERIDE_RO_ELEM": (ReductionObjectError, "element out of range for its group"),
    "FREERIDE_RO_OP": (ReductionObjectError, "update op does not match the group's op"),
}

#: Proof sites per kernel: one bit each of the ``long long _proven`` mask,
#: kept clear of the sign bit.  Sites past the last keep their checks.
_PROOF_BITS = 63
#: Bounds a proof site's indices must lie within (non-negative, and far
#: inside ``long long``).
_PROOF_MAX = 2**62

#: Ranges ahead of the one running whose first data row the exported entry
#: prefetches.  A scattered range list — a retraction — is an irregular
#: gather that waits on memory.  One call over 1,250 random single rows of a
#: 1,000,000-row float64 histogram dataset, its rows out of L2, took 81-158
#: µs without the prefetch and 19-38 µs with the rows cached; 4, 8 and 16
#: ranges ahead took 73-115, 62-107 and 59-91 µs.  625 rows of a 500,000 x 4
#: k-means dataset: 191-352 µs without, 128-166, 136-223 and 88-152 µs with
#: (medians of 35 calls, four runs each; 2-vCPU Xeon, gcc -O2).
PREFETCH_DISTANCE = 16


# --------------------------------------------------------------- C helpers

#: Everything the emitted statements can call, by the name they call it: the
#: builtin table's libm declarations and helpers, and the loaders.  A
#: translation unit opens with ``freeride.h`` and the entries its kernel
#: names (:meth:`NativeCodegen._use`), in this order, and with nothing else:
#: no system ``#include`` (the libm functions are declared, the loaders copy
#: with the builtin), so ``cc`` parses a few lines per kernel, not two system
#: headers, and an unused helper is neither compiled nor warned about.
_C_HELPERS: dict[str, str] = {
    **C_LIBM,
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
    **C_HELPERS,
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


def _update(stmt: A.Stmt) -> A.Call | None:
    """The ``roAdd``/``roMin``/``roMax`` call a statement is, else None."""
    if (isinstance(stmt, A.ExprStmt) and isinstance(stmt.expr, A.Call)
            and stmt.expr.name in A.RO_INTRINSICS):
        return stmt.expr
    return None


def _updates(stmt: A.Stmt) -> list[A.Call]:
    """The updates of a group-run member, in walk order."""
    if isinstance(stmt, A.ForStmt):
        return [c for s in stmt.body.stmts if (c := _update(s)) is not None]
    call = _update(stmt)
    return [] if call is None else [call]


@dataclass
class _Run:
    """The group run being printed (:meth:`NativeCodegen.emit_block`).

    ``tmp`` names the run's group ``_rg<tmp>`` and row ``_rrow<tmp>`` on the
    path where the head verified the group; it is None where the run only
    stores its touched flag once.  ``marked``: on every path to the
    statement being printed, a store of this run has set that flag.
    ``loop``: where a member loop's hoisted flag store would go, until the
    loop's first update decides whether it can.
    """

    tmp: int | None
    marked: bool = False
    loop: tuple[int, int, str] | None = None
    marked_before_loop: bool = False


def _join(a: str, b: str) -> str:
    """Numeric type join: double absorbs int."""
    return "d" if "d" in (a, b) else "i"


def _typed(row: Builtin, types: list[str]) -> tuple[str, str]:
    """The join of a row's argument types, which picks its C spelling, and
    its result type."""
    joined = "d" if "d" in types else "i"
    return joined, {"real": "d", "int": "i"}.get(row.result, joined)


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

    Updates to one group in a row are printed as a *group run*
    (:meth:`emit_block`): the group, its row and its touched flag are
    settled once for the run, not once per update.
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
        #: update call id -> its ``_proven`` bit, or None for no proof site
        self._bits: dict[int, int | None] = {}
        #: the group run being printed; ``_plain``: print without runs (a
        #: run's slow path); ``_restore``: what a failing check runs first
        self._run: _Run | None = None
        self._plain = False
        self._restore: str | None = None

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

    def _fail(self, rc: str) -> str:
        """Leave the split body with the code named ``rc`` through its single
        exit.

        A check that fails inside an RO update (its arguments included)
        reports ``FREERIDE_UNSTORED`` on top: the update was counted, not stored.
        """
        self._can_fail = True
        unstored = "FREERIDE_UNSTORED + " if self.updating is not None else ""
        fail = f"_FAIL({unstored}{rc})"
        return fail if self._restore is None else f"{{ {self._restore} {fail} }}"

    # -- local type inference -----------------------------------------------

    def _infer_local_types(self) -> None:
        """Fixpoint: a local is ``long long`` unless any binding is real."""
        types: dict[str, str] = {name: "i" for name in self.low.locals}
        bindings: list[tuple[str, A.Expr | None]] = []
        for stmt in A.walk_stmts(self.low.body):
            if isinstance(stmt, A.VarDeclStmt):
                d = stmt.decl
                if isinstance(d.type, A.NamedTypeExpr) and d.type.name == "real":
                    types[d.name] = "d"
                bindings.append((d.name, d.init))
            elif isinstance(stmt, A.Assign):
                # lower guarantees an Ident target; ``x op= v`` binds ``x op v``
                value = stmt.value
                if stmt.op is not None:
                    value = A.BinOp(stmt.op, stmt.target, value)
                bindings.append((stmt.target.name, value))
        changed = True
        while changed:
            changed = False
            for name, value in bindings:
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
        found = lookup(expr)
        if found is not None:
            row, operands = found
            return _typed(row, [self._type_of(a, types) for a in operands])[1]
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

    def spell(self, row: Builtin, args: list[tuple[str, str]]) -> tuple[str, str]:
        joined, result = _typed(row, [t for _, t in args])
        template = row.c if isinstance(row.c, str) else row.c[joined == "d"]
        helpers = {h: self._use(h) for h in c_helpers(template)}
        return row.spell(template, [code for code, _ in args], **helpers), result

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
                    f"if ({var} < 0 || {var} >= {size}) {self._fail('FREERIDE_MAP_OOB')}"
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
            f"if (_h{tmp} < 0 || _h{tmp} >= {extent}) {self._fail('FREERIDE_ROW_OOB')} "
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
        if op is not None:  # ``x op= v`` is ``x = x op v``, spelled as the operator is
            value = self.spell(BINARY[op], [self.local(name), value])
        self._w(f"{self._mangle(name)} = {value[0]};")

    def open_if(self, cond: tuple[str, str]) -> None:
        super().open_if(cond[0])

    def open_loop(self, var: str, lo: str, hi: str) -> None:
        # Bounds evaluated once and a hidden iterator drives the loop,
        # so body assignments to the loop variable cannot change the
        # iteration — exactly Python's ``for v in range(lo, hi + 1)``.
        tmp = self._next_tmp()
        self._w(f"{{ long long _lo{tmp} = {lo}; long long _hi{tmp} = {hi};")
        self.indent += 1
        run = self._run
        if run is not None:  # a run member: its touched flag may go here
            run.marked_before_loop = run.marked
            if run.tmp is not None and not run.marked:
                run.loop = (len(self.lines), tmp, "    " * self.indent)
        self._w(
            f"for (long long _it{tmp} = _lo{tmp}; _it{tmp} <= _hi{tmp}; "
            f"_it{tmp}++) {{"
        )
        self.indent += 1
        self._w(f"{self._mangle(var)} = _it{tmp};")

    def close_loop(self) -> None:
        self.close_brace()  # the for
        self.close_brace()  # the block holding its bounds
        run = self._run
        if run is not None:  # the loop may run no iteration
            run.marked, run.loop = run.marked_before_loop, None

    def expr_stmt(self, value: tuple[str, str]) -> None:
        self._w(f"(void)({value[0]});")

    def _proof_bit(self, call: A.Call) -> int | None:
        """``call``'s ``_proven`` bit, assigned the first time it is asked
        for (in walk order, as the update sites are met); None when the
        call is no proof site."""
        key = id(call)
        if key not in self._bits:
            proof = self._proof(call)
            self._bits[key] = None if proof is None else len(self.proofs)
            if proof is not None:
                self.proofs.append(proof)
        return self._bits[key]

    def _proof(self, call: A.Call) -> tuple[int, int, int, int] | None:
        """The update ``call`` as a proof site ``(glo, ghi, ehi, opcode)``:
        the effect summary bounds its group index within ``[glo, ghi]`` and
        its element index within ``[0, ehi]``, both integral and
        non-negative.  None when it does not, or when every ``_proven`` bit
        is taken."""
        if self.summary is None or len(self.proofs) == _PROOF_BITS:
            return None
        from repro.analysis.effects import ELEM_RANGE

        # the analysis records each update site once
        eff = next(
            (a for a in self.summary.accumulates if a.expr_id == id(call)), None
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
        return glo, ghi, math.floor(elem.hi), _OP_CODES[A.RO_INTRINSICS[call.name]]

    def ro_update(self, op: str, args: list[tuple[str, str]]) -> None:
        """``roAdd/roMin/roMax(group, elem, value)`` into the element buffer,
        with the same validation ``ReductionObject.accumulate`` performs.

        At a proof site the checks run only when an index lies outside the
        bounds the verdict was decided for — two compares against constants,
        which the C compiler drops where its own range analysis agrees with
        the effect summary's — or, in the checked twin, when the site's
        ``_proven`` bit is clear.  On a group run's fast path the head has
        settled the group: a proof site compares its element only, and
        every update stores into the run's row."""
        bit = self._proof_bit(self.updating)  # type: ignore[arg-type]
        proof = None if bit is None else self.proofs[bit]
        opcode = _OP_CODES[op]
        run = self._run
        tmp = self._next_tmp()
        e, v = self.as_index(args[1]), args[2][0]
        if run is not None and run.tmp is not None:  # the head settled the group
            g, row = f"_rg{run.tmp}", f"_rrow{run.tmp}"
            self._w(f"{{ long long _el{tmp} = {e}; double _v{tmp} = (double)({v});")
        else:
            g, row = f"_g{tmp}", None
            self._w(f"{{ long long {g} = {self.as_index(args[0])}; "
                    f"long long _el{tmp} = {e}; double _v{tmp} = (double)({v});")
        self.indent += 1
        if run is not None and run.loop is not None:
            self._hoist_touched(run, run.loop, g)
        if row is not None and proof is not None:
            self._w(f"if ((unsigned long long)_el{tmp} > {proof[2]}ULL) {{")
            self._w(f"    if (_el{tmp} < 0 || _el{tmp} >= _ro_n[{g}]) "
                    + self._fail("FREERIDE_RO_ELEM"))
            self._w("}")
        else:
            if proof is not None:
                glo, ghi, ehi, _ = proof
                g_off = f"(unsigned long long){g}" + (f" - {glo}ULL" if glo else "")
                unproven = f"!((_proven >> {bit}) & 1) || " if self.checked else ""
                self._w(f"if ({unproven}{g_off} > {ghi - glo}ULL"
                        f" || (unsigned long long)_el{tmp} > {ehi}ULL) {{")
                self.indent += 1
            self._w(f"if ({g} < 0 || {g} >= _ro_groups) " + self._fail("FREERIDE_RO_GROUP"))
            self._w(f"if (_el{tmp} < 0 || _el{tmp} >= _ro_n[{g}]) "
                    + self._fail("FREERIDE_RO_ELEM"))
            self._w(f"if (_ro_op[{g}] != {opcode}) " + self._fail("FREERIDE_RO_OP"))
            if proof is not None:
                self.close_brace()
        self._restore = None
        self._w(f"{{ double *_cell = {row or f'_acc + _ro_off[{g}]'} + _el{tmp};")
        if op == "add":
            self._w(f"  *_cell += _v{tmp}; }}")
        elif op == "min":
            self._w(f"  if (_v{tmp} < *_cell) *_cell = _v{tmp}; }}")
        else:
            self._w(f"  if (_v{tmp} > *_cell) *_cell = _v{tmp}; }}")
        if run is None or not run.marked:
            self._w(f"_touched[{g}] = 1;")
            if run is not None:
                run.marked = True
        self.close_brace()

    def _hoist_touched(self, run: _Run, at_loop: tuple[int, int, str], g: str) -> None:
        """At a member loop's first update: store the run's touched flag
        once, before the loop, when nothing the loop prints ahead of this
        update can fail.  A failing check of this update on the first
        iteration then puts back the flag the run found."""
        at, loop, pad = at_loop
        run.loop = None
        if any("_FAIL(" in line for line in self.lines[at:]):
            return
        self.lines.insert(at, f"{pad}_Bool _rt{loop} = _touched[{g}]; "
                              f"if (_lo{loop} <= _hi{loop}) _touched[{g}] = 1;")
        self._restore = f"if (_it{loop} == _lo{loop}) _touched[{g}] = _rt{loop};"
        run.marked = True

    # -- group runs ---------------------------------------------------------

    def emit_block(self, block: A.Block) -> None:
        """The walker's block, with its group runs printed as runs.

        A *group run* is a stretch of statements whose updates all name one
        group expression ``G`` — no access site in it, so it prints no
        check — and none of which assigns a variable ``G`` reads; a ``for``
        belongs to it when its variable is not in ``G`` and its body holds
        only such updates and other statements of that kind.  A run of two
        or more updates, or of any inside a loop, is printed by
        :meth:`_emit_run`; everything else as the walker prints it.
        """
        if self._run is not None or self._plain:
            super().emit_block(block)
            return
        if not block.stmts:
            self.empty_block()
        stmts, i = block.stmts, 0
        while i < len(stmts):
            found = self._group_run(stmts, i)
            if found is None:
                self.emit_stmt(stmts[i])
                i += 1
            else:
                group, end = found
                self._emit_run(group, stmts[i:end])
                i = end

    def _group_run(self, stmts: tuple[A.Stmt, ...], i: int) -> tuple[A.Expr, int] | None:
        """``(G, end)`` when ``stmts[i:end]`` is a run worth printing as one."""
        first = _updates(stmts[i])
        if not first:
            return None
        group = first[0].args[0]
        if any(id(e) in self.low.sites for e in A.walk_exprs(group)):
            return None
        reads = {e.name for e in A.walk_exprs(group) if isinstance(e, A.Ident)}
        end, sites, looped = i, 0, False
        for j in range(i, len(stmts)):
            n = self._run_member(stmts[j], group, reads)
            if n is None:
                break
            if n:
                end, sites = j + 1, sites + n
                looped = looped or isinstance(stmts[j], A.ForStmt)
        return (group, end) if sites >= 2 or looped else None

    def _run_member(self, stmt: A.Stmt, group: A.Expr, reads: set[str]) -> int | None:
        """How many updates ``stmt`` makes to ``group`` when it may sit in
        that group's run; None when it ends the run."""
        if isinstance(stmt, A.ForStmt):
            if stmt.var in reads:
                return None
            total = 0
            for inner in stmt.body.stmts:
                n = None if isinstance(inner, A.ForStmt) else self._run_member(
                    inner, group, reads
                )
                if n is None:
                    return None
                total += n
            return total
        call = _update(stmt)
        if call is not None:
            return 1 if call.args[0] == group else None
        if isinstance(stmt, A.VarDeclStmt):
            return None if stmt.decl.name in reads else 0
        if isinstance(stmt, A.Assign):
            return None if stmt.target.name in reads else 0
        return 0 if isinstance(stmt, A.ExprStmt) else None

    def _emit_run(self, group: A.Expr, stmts: tuple[A.Stmt, ...]) -> None:
        """One group run: ``G`` and its row settled once at the head.

        The head tests ``G`` against the bounds every proof site of the run
        was proven within (and, in the checked twin, their ``_proven``
        bits); when the test passes the run takes its fast path, where a
        proof site compares its element only.  Otherwise the run executes as
        the walker prints it.  A literal ``G`` gets no test: in the default
        build it lies within its proof bounds, which the verdict settled
        for the layout; in the checked twin, and for a run with no proof
        site, there is no fast path.  Either way the run stores its group's
        touched flag once, after its first store (:meth:`_hoist_touched`
        for a loop).
        """
        bits = [self._proof_bit(c) for s in stmts for c in _updates(s)]
        spans = [self.proofs[b] for b in bits if b is not None]
        glo = max((p[0] for p in spans), default=0)
        ghi = min((p[1] for p in spans), default=-1)
        literal = None
        if isinstance(group, A.IntLit):
            literal = group.value
        elif isinstance(group, A.Ident) and type(self.low.constants.get(group.name)) is int:
            literal = self.low.constants[group.name]
        if literal is None:
            fast = glo <= ghi
        else:
            fast = not self.checked and glo <= literal <= ghi
        if not fast:
            self._run = _Run(None)
            for stmt in stmts:
                self.emit_stmt(stmt)
            self._run = None
            return
        tmp = self._next_tmp()
        g = f"_rg{tmp}"
        self._w(f"{{ long long {g} = {self.as_index(self.emit_expr(group, _Cost()))};")
        self.indent += 1
        if literal is None:
            test = f"(unsigned long long){g}" + (f" - {glo}ULL" if glo else "")
            test = f"{test} <= {ghi - glo}ULL"
            if self.checked:
                mask = sum(1 << b for b in bits if b is not None)
                test = f"(_proven & {mask}LL) == {mask}LL && {test}"
            self.open_if((test, "i"))
        self._w(f"double *_rrow{tmp} = _acc + _ro_off[{g}];")
        self._run = _Run(tmp)
        for stmt in stmts:
            self.emit_stmt(stmt)
        self._run = None
        if literal is None:
            self.open_else()
            self._plain = True
            for stmt in stmts:
                self.emit_stmt(stmt)
            self._plain = False
            self.close_brace()
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
        self.proofs, self._bits = [], {}
        self._w(f"/* {self.low.name}: native FREERIDE kernel, "
                f"opt level {self.plan.opt_level}"
                f"{', checked twin' if self.checked else ''} */")
        self._w(f"static long long {_SYMBOL_SENTINEL}_split(")
        self._w("    long long _start, long long _end, long long _e0,")
        self._w("    const unsigned char **_bufs, const struct freeride_ro *_ro, double *_C)")
        self._w("{")
        self.indent += 1
        self._w("double *_acc = _ro->acc; const long long *_ro_off = _ro->off;")
        self._w("const long long *_ro_n = _ro->n, *_ro_op = _ro->op;")
        self._w("long long _ro_groups = _ro->groups, _proven = _ro->proven;")
        self._w("_Bool *_touched = _ro->touched;")
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
        self._w("    long long _e0, const unsigned char **_bufs,")
        self._w("    const struct freeride_ro *_ro, double *_C)")
        self._w("{")
        self._w("    for (long long _i = 0; _i < _n; _i++) {")
        if data_kid is not None:
            d, esz = PREFETCH_DISTANCE, self.low.element_type.sizeof
            self._w(f"        if (_i + {d} < _n) __builtin_prefetch("
                    f"_bufs[{buf_pos[data_kid]}] + _starts[_i + {d}] * {esz});")
        self._w(f"        long long _rc = {_SYMBOL_SENTINEL}_split(")
        self._w("            _starts[_i], _ends[_i], _e0, _bufs, _ro, _C);")
        self._w("        if (_rc != 0) return _rc;")
        self._w("    }")
        self._w("    return 0;")
        self._w("}")
        # the contract, and the entry declared by its type: cc checks the
        # definition against freeride.h
        prelude = [_INCLUDE + f"freeride_ranges {_SYMBOL_SENTINEL};"]
        prelude += [text for name, text in _C_HELPERS.items() if name in self._helpers]
        if self._can_fail:
            prelude.append(_C_FAIL_MACRO)
        return "\n".join(prelude + [""] + self.lines) + "\n"
