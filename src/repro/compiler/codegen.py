"""Code generation: lowered reduction + plan -> kernel source text.

One traversal, four printers.  :class:`KernelEmitter` walks the lowered body
once and owns every rule that does not depend on the target language: which
site is realized how (nested chain, ``computeIndex`` offset, hoisted row),
the row-major dense position of an index group, where a strength-reduced
row's base is computed, initialized and bumped around its loop, and the cost
contract — every statement's static operation counts
(:class:`~repro.machine.counters.OpCounters` fields) are collected in a
:class:`_Cost` and flushed *before* the statement's own text, so a kernel
that fails part-way has counted exactly the statements it reached.  A new
statement kind or a new cost rule is added there, once.

A printer subclasses the walker and supplies the leaf hooks it calls (see
the class docstring); it never walks the IR itself:

* :class:`PythonCodegen` — the instrumented scalar kernel; running it
  *measures* the operation mix of its optimization level and the simulated
  machine prices those measurements.  Calling convention::

      def _kernel(_start, _end, _ro, _env, _C):
          # processes elements [_start, _end) of the dataset segment in _env

  ``_env`` carries the linearized buffers, per-site readers and mapping
  infos (installed by :mod:`repro.compiler.translate` at bind time from the
  plan's :class:`~repro.compiler.passes.SiteResource` table) and, for a
  segment that does not start at element 0, its first global position as
  ``_elem_base`` (``elemIdx()`` adds it); ``_ro`` is the thread's lane
  (its reduction object, or a locking handle on the shared one); ``_C``
  the counter ledger.
* :class:`~repro.compiler.batch.BatchCodegen` — the split-level NumPy kernel
  (a ``PythonCodegen`` whose values are lane arrays).
* :class:`~repro.compiler.native.NativeCodegen` — the C kernel the JIT tier
  compiles; its values are ``(code, "i"|"d")`` pairs.
* :class:`CLikeCodegen` — C-flavored text mirroring what the modified Chapel
  compiler would hand to its C backend (the paper's Figure 8 right-hand
  side), for inspection and golden tests; it prints no counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chapel import ast as A
from repro.chapel.builtins import CALLS, SCALAR_ENV, Builtin, lookup
from repro.compiler.access import FieldStep, IndexStep
from repro.compiler.lower import AccessSite, LoweredReduction
from repro.compiler.passes import CompilationPlan, LoopHoist, SitePlan, site_key
from repro.util.errors import CodegenError

__all__ = [
    "KernelEmitter", "PythonCodegen", "CLikeCodegen", "site_key", "uses_elem_idx",
]

@dataclass
class _Cost:
    """Static per-execution operation counts for one statement."""

    counts: dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by


def uses_elem_idx(body: A.Block) -> bool:
    """Whether any expression under ``body`` calls the elemIdx() intrinsic.

    The translator gates position-dependent optimizations (e.g. gathered
    delta retraction) on this.
    """
    return any(
        isinstance(e, A.Call) and e.name == "elemIdx"
        for stmt in A.walk_stmts(body)
        for top in A.stmt_exprs(stmt)
        for e in A.walk_exprs(top)
    )


class KernelEmitter:
    """The one walk over a lowered reduction body; printers fill in the text.

    An expression hook returns the printer's *value* for that expression —
    a source string, unless the printer says otherwise (the C printer pairs
    it with a type) — and the walker hands values back untouched, asking
    :meth:`as_index` for plain text where it composes an index itself.
    A statement hook writes its lines with :meth:`_w`.  Hooks a printer
    provides:

    ========================================  =================================
    ``literal(value)`` ``local(name)``        constants and user locals
    ``spell(row, args)``                      an operator or math builtin:
                                              its :mod:`repro.chapel.builtins`
                                              row over its arguments' values
    ``elem_idx()``                            ``elemIdx()``
    ``as_index(value)``                       a value as integer index text
    ``nested_root(site)``                     head of a nested Chapel chain
    ``compute_index(site, dense)``            byte offset from dense positions
    ``load(site, offset)``                    scalar read at a byte offset
    ``row_load(site, hoist_id, idx, low)``    scalar read from a hoisted row
    ``flush_cost(cost)``                      bump the ledger by ``cost``
    ``bind_row(hoist, base)``                 row at a base, before its loop
    ``init_base(hoist, base)``                incremental base, before the loop
    ``advance_row(hoist)``                    row + base bump, per iteration
    ``declare(decl, init)``                   ``init`` is None without one
    ``assign(name, op, value)``               ``op`` is None for plain ``=``
    ``open_loop(var, lo, hi)`` ``close_loop``
    ``open_if(cond)`` ``open_else`` ``close_if``
    ``empty_block()``                         body of a block with no statement
    ``ro_update(op, args)``                   ``roAdd``/``roMin``/``roMax``
    ``expr_stmt(value)``                      a bare expression statement
    ========================================  =================================
    """

    def __init__(self, lowered: LoweredReduction, plan: CompilationPlan) -> None:
        self.low = lowered
        self.plan = plan
        self.lines: list[str] = []
        self.indent = 0
        #: the reduction-object update being emitted (arguments included),
        #: else None
        self.updating: A.Call | None = None

    # -- small helpers ------------------------------------------------------

    def _w(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _mangle(self, name: str) -> str:
        return f"u_{name}"

    def _key_id(self, site: AccessSite) -> int:
        return self.plan.resources[site_key(site)].kid

    def local(self, name: str) -> Any:
        return self._mangle(name)

    def as_index(self, value: Any) -> str:
        return value

    def empty_block(self) -> None:
        pass

    # -- expressions -------------------------------------------------------------

    def emit_expr(self, expr: A.Expr, cost: _Cost) -> Any:
        site = self.low.sites.get(id(expr))
        if site is not None:
            return self.emit_site(expr, site, cost)
        if isinstance(expr, (A.IntLit, A.RealLit, A.BoolLit)):
            return self.literal(expr.value)
        if isinstance(expr, A.Ident):
            if expr.name in self.low.constants:
                return self.literal(self.low.constants[expr.name])
            return self.local(expr.name)
        if isinstance(expr, A.Call):
            if expr.name in A.RO_INTRINSICS:
                raise CodegenError(
                    f"{expr.name} is a statement-level intrinsic, not an expression"
                )
            if expr.name == "elemIdx":
                return self.elem_idx()
        found = lookup(expr)
        if found is not None:
            row, operands = found
            args = [self.emit_expr(a, cost) for a in operands]
            cost.bump("flops")
            return self.spell(row, args)
        raise CodegenError(f"cannot emit expression {expr!r}")  # pragma: no cover

    # -- access sites ---------------------------------------------------------------

    @staticmethod
    def _site_wrapped(site: AccessSite) -> bool:
        if site.kind == "data":
            return True
        return not (site.steps and isinstance(site.steps[0], IndexStep))

    def dense_positions(
        self,
        site: AccessSite,
        cost: _Cost,
        override_groups: dict[int, str] | None = None,
    ) -> list[tuple[str, int | None]]:
        """Dense 0-based position code per mapping level (incl. wrapper).

        Each entry pairs the code with the index group it was computed from
        (0-based, wrapper excluded), or None when it was not: the wrapper
        level, and whole groups that ``override_groups`` replaces with
        precomputed dense code — used by hoist bases (innermost -> "0") and
        incremental base inits (varying level -> its start position).
        """
        info = site.info
        assert info is not None
        dense: list[tuple[str, int | None]] = []
        level_domains = list(info.domains)
        if self._site_wrapped(site):
            # The wrapper level's index is always 0: for data, the dataset
            # level's contribution is the separate element-offset term; for
            # member-rooted extras, the synthetic wrapper has one slot.
            dense.append(("0", None))
            level_domains = level_domains[1:]
        for gi, (dom, group) in enumerate(zip(level_domains, site.index_exprs)):
            if override_groups is not None and gi in override_groups:
                dense.append((override_groups[gi], None))
                continue
            terms = []
            for dim, (rng, ie) in enumerate(zip(dom.ranges, group)):
                code = self.as_index(self.emit_expr(ie, cost))
                if rng.low != 0:
                    code = f"({code} - {rng.low})"
                # row-major scaling by the sizes of later dimensions
                scale = 1
                for later in dom.ranges[dim + 1 :]:
                    scale *= len(later)
                terms.append(code if scale == 1 else f"{code} * {scale}")
            dense.append((" + ".join(terms) if terms else "0", gi))
        return dense

    def emit_site(self, expr: A.Expr, site: AccessSite, cost: _Cost) -> Any:
        plan = self.plan.plan_for(id(expr))
        if plan.mode == "nested":
            return self._nested(site, cost)
        if plan.mode == "linear":
            return self.linear(site, cost)
        if plan.mode == "hoisted":
            return self._hoisted(site, plan, cost)
        raise CodegenError(f"unknown site mode {plan.mode!r}")  # pragma: no cover

    def _nested(self, site: AccessSite, cost: _Cost) -> str:
        """Access through the real nested Chapel value (pointer chasing)."""
        code = self.nested_root(site)
        groups = iter(site.index_exprs)
        for step in site.steps:
            if isinstance(step, FieldStep):
                code = f"{code}.{step.name}"
            else:
                idx = ", ".join(
                    self.as_index(self.emit_expr(ie, cost)) for ie in next(groups)
                )
                code = f"{code}[{idx}]"
        cost.bump("nested_reads")
        cost.bump("nested_steps", site.num_steps)
        return code

    def offset(
        self,
        site: AccessSite,
        cost: _Cost,
        override_groups: dict[int, str] | None = None,
    ) -> str:
        """One ``computeIndex``: the byte offset of the addressed scalar."""
        dense = self.dense_positions(site, cost, override_groups)
        cost.bump("index_calls")
        cost.bump("index_levels", site.info.levels)  # type: ignore[union-attr]
        return self.compute_index(site, dense)

    def linear(self, site: AccessSite, cost: _Cost) -> Any:
        cost.bump("linear_reads")
        return self.load(site, self.offset(site, cost))

    def _hoisted(self, site: AccessSite, plan: SitePlan, cost: _Cost) -> Any:
        rng = site.info.domains[-1].ranges[0]  # type: ignore[union-attr]
        idx = self.as_index(self.emit_expr(site.index_exprs[-1][0], cost))
        cost.bump("linear_reads")
        return self.row_load(site, plan.hoist_id, idx, rng.low)

    def hoist_base(
        self, site: AccessSite, cost: _Cost, override_groups: dict[int, str]
    ) -> str:
        """Offset of the contiguous innermost run a hoisted row views."""
        overrides = dict(override_groups)
        overrides[len(site.index_exprs) - 1] = "0"
        return self.offset(site, cost, overrides)

    def _hoist_preamble(self, loop: A.ForStmt) -> None:
        """The strength-reduced rows placed just before a loop."""
        for hoist in self.plan.loop_hoists.get(id(loop), []):
            cost = _Cost()
            base = self.hoist_base(hoist.site, cost, {})
            self.flush_cost(cost)
            self.bind_row(hoist, base)

    def _incremental_inits(self, loop: A.ForStmt) -> None:
        """Base offsets for incremental hoists driven by this loop.

        "The start point for the continuous data split is computed before
        the first iteration, and an appropriate pre-computed offset is
        added for each iteration" (§V, opt-1).
        """
        for hoist in self.plan.incremental_hoists.get(id(loop), []):
            site = hoist.site
            cost = _Cost()
            # the varying level starts at the loop's first iteration value
            rng = site.info.domains[  # type: ignore[union-attr]
                hoist.var_group + (1 if self._site_wrapped(site) else 0)
            ].ranges[0]
            lo = self.as_index(self.emit_expr(loop.range.lo, cost))
            start = f"({lo} - {rng.low})" if rng.low != 0 else lo
            base = self.hoist_base(site, cost, {hoist.var_group: start})
            self.flush_cost(cost)
            self.init_base(hoist, base)

    def _incremental_tops(self, loop: A.ForStmt) -> None:
        """Row + base bump at the top of each driving-loop iteration."""
        for hoist in self.plan.incremental_hoists.get(id(loop), []):
            cost = _Cost()
            cost.bump("flops")  # the base bump
            self.flush_cost(cost)
            self.advance_row(hoist)

    # -- statements ----------------------------------------------------------------

    def emit_block(self, block: A.Block) -> None:
        if not block.stmts:
            self.empty_block()
        for stmt in block.stmts:
            self.emit_stmt(stmt)

    def emit_stmt(self, stmt: A.Stmt) -> None:
        cost = _Cost()
        if isinstance(stmt, A.VarDeclStmt):
            d = stmt.decl
            init = self.emit_expr(d.init, cost) if d.init is not None else None
            self.flush_cost(cost)
            self.declare(d, init)
        elif isinstance(stmt, A.Assign):
            value = self.emit_expr(stmt.value, cost)
            if stmt.op is not None:
                cost.bump("flops")
            self.flush_cost(cost)
            self.assign(stmt.target.name, stmt.op, value)  # lower guarantees Ident
        elif isinstance(stmt, A.ForStmt):
            lo = self.as_index(self.emit_expr(stmt.range.lo, cost))
            hi = self.as_index(self.emit_expr(stmt.range.hi, cost))
            self.flush_cost(cost)
            self._hoist_preamble(stmt)
            self._incremental_inits(stmt)
            self.open_loop(stmt.var, lo, hi)
            self._incremental_tops(stmt)
            self.emit_block(stmt.body)
            self.close_loop()
        elif isinstance(stmt, A.IfStmt):
            self.emit_if(stmt)
        elif isinstance(stmt, A.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, A.Call) and expr.name in A.RO_INTRINSICS:
                self.updating = expr
                args = [self.emit_expr(a, cost) for a in expr.args]
                cost.bump("ro_updates")
                self.flush_cost(cost)
                self.ro_update(A.RO_INTRINSICS[expr.name], args)
                self.updating = None
            else:
                value = self.emit_expr(expr, cost)
                self.flush_cost(cost)
                self.expr_stmt(value)
        else:  # pragma: no cover
            raise CodegenError(f"cannot emit statement {stmt!r}")

    def emit_if(self, stmt: A.IfStmt) -> None:
        cost = _Cost()
        cond = self.emit_expr(stmt.cond, cost)
        self.flush_cost(cost)
        self.open_if(cond)
        self.emit_block(stmt.then)
        if stmt.orelse is not None:
            self.open_else()
            self.emit_block(stmt.orelse)
        self.close_if()


class PythonCodegen(KernelEmitter):
    """Print the instrumented Python kernel for one compilation plan."""

    #: added to a data site's element-local offset: the element's own base
    data_base = "_e * _esz + "

    # -- expressions -------------------------------------------------------------

    def literal(self, value: Any) -> str:
        text = repr(value)  # a non-finite real's repr is no Python name
        return f"float({text!r})" if text in ("nan", "inf", "-inf") else text

    def spell(self, row: Builtin, args: list[str]) -> str:
        return row.spell(row.scalar, args)

    def elem_idx(self) -> str:
        return "(_e + _eb)"

    # -- access sites ---------------------------------------------------------------

    def nested_root(self, site: AccessSite) -> str:
        return f"_v_{site.root}"

    def compute_index(self, site: AccessSite, dense: list) -> str:
        base = f"_ci(_info_{self._key_id(site)}, ({', '.join(c for c, _ in dense)},))"
        return self.data_base + base if site.kind == "data" else base

    def load(self, site: AccessSite, offset: str) -> str:
        return f"_rd_{self._key_id(site)}({offset})"

    def row_load(self, site: AccessSite, hoist_id: int, idx: str, low: int) -> str:
        if low != 0:
            idx = f"{idx} - {low}"
        return f"_row_{hoist_id}[{idx}]"

    def _row_view(self, site: AccessSite) -> str:
        """The env function that views a contiguous run at a byte offset."""
        return f"_tv_{self._key_id(site)}"

    def bind_row(self, hoist: LoopHoist, base: str) -> None:
        self._w(f"_row_{hoist.hoist_id} = {self._row_view(hoist.site)}({base})")

    def init_base(self, hoist: LoopHoist, base: str) -> None:
        self._w(f"_b_{hoist.hoist_id} = {base}")

    def advance_row(self, hoist: LoopHoist) -> None:
        self.bind_row(hoist, f"_b_{hoist.hoist_id}")
        self._w(f"_b_{hoist.hoist_id} += {hoist.step_bytes}")

    # -- statements ----------------------------------------------------------------

    def _count(self, per_execution: int) -> str:
        """How much one execution of the statement adds to a counter."""
        return str(per_execution)

    def flush_cost(self, cost: _Cost) -> None:
        if cost.counts:
            self._w("; ".join(
                f"_C.{k} += {self._count(v)}" for k, v in sorted(cost.counts.items())
            ))

    def declare(self, decl: A.VarDecl, init: str | None) -> None:
        self._w(f"{self._mangle(decl.name)} = {'0' if init is None else init}")

    def assign(self, name: str, op: str | None, value: str) -> None:
        self._w(f"{self._mangle(name)} {op or ''}= {value}")

    def open_loop(self, var: str, lo: str, hi: str) -> None:
        self._w(f"for {self._mangle(var)} in range({lo}, {hi} + 1):")
        self.indent += 1

    def close_loop(self) -> None:
        self.indent -= 1

    def open_if(self, cond: str) -> None:
        self._w(f"if {cond}:")
        self.indent += 1

    def open_else(self) -> None:
        self.indent -= 1
        self._w("else:")
        self.indent += 1

    def close_if(self) -> None:
        self.indent -= 1

    def empty_block(self) -> None:
        self._w("pass")

    def ro_update(self, op: str, args: list[str]) -> None:
        # the intrinsic's op rides along so the target can refuse an update
        # into a group declared with another op, as the compiled tiers do
        self._w(f"_ro.accumulate({args[0]}, {args[1]}, {args[2]}, {op!r})")

    def expr_stmt(self, value: str) -> None:
        self._w(value)

    # -- whole kernel ------------------------------------------------------------------

    def generate(self) -> str:
        self.lines = []
        self.indent = 0
        self._w("def _kernel(_start, _end, _ro, _env, _C):")
        self.indent += 1
        self._w('_ci = _env["compute_index"]')
        self._w('_esz = _env["elem_sizeof"]')
        names = list(SCALAR_ENV)
        for i in range(0, len(names), 2):  # two to a line, as the pinned texts have them
            self._w("; ".join(f'_{n} = _env["{n}"]' for n in names[i:i + 2]))
        for res in self.plan.resources.values():
            kid = res.kid
            if res.linearized:
                self._w(f'_info_{kid} = _env["info_{kid}"]')
                self._w(f'_rd_{kid} = _env["read_{kid}"]')
                self._w(f'_tv_{kid} = _env["view_{kid}"]')
            if "nested" in res.modes:
                self._w(f'_v_{res.root} = _env["val_{res.root}"]')
        if uses_elem_idx(self.low.body):
            self._w('_eb = _env.get("_elem_base", 0)')
        self._w("for _e in range(_start, _end):")
        self.indent += 1
        self._w("_C.elements_processed += 1")
        self.emit_block(self.low.body)
        return "\n".join(self.lines) + "\n"


class _CBraces:
    """Braced blocks and ``if``/``else`` in C syntax, for the two printers
    that emit C."""

    def open_if(self, cond: str) -> None:
        self._w(f"if ({cond}) {{")
        self.indent += 1

    def open_else(self) -> None:
        self.indent -= 1
        self._w("} else {")
        self.indent += 1

    def close_brace(self) -> None:
        self.indent -= 1
        self._w("}")

    close_if = close_loop = close_brace


class CLikeCodegen(_CBraces, KernelEmitter):
    """Print C-flavored source mirroring the plan (documentation/golden tests)."""

    def _mangle(self, name: str) -> str:
        return name

    # -- expressions -------------------------------------------------------------

    def literal(self, value: Any) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        return repr(value)

    def spell(self, row: Builtin, args: list[str]) -> str:
        if CALLS.get(row.name) is row:
            return f"{row.name}({', '.join(args)})"
        if len(args) == 1:
            return f"({row.name}{args[0]})"
        return f"({args[0]} {row.name} {args[1]})"

    def elem_idx(self) -> str:
        return "e"

    # -- access sites ---------------------------------------------------------------

    def nested_root(self, site: AccessSite) -> str:
        return site.root

    def linear(self, site: AccessSite, cost: _Cost) -> str:
        # Figure 8 shows the raw Chapel indices handed to computeIndex
        kid = self._key_id(site)
        idx = ", ".join(self.emit_expr(ie, cost) for g in site.index_exprs for ie in g)
        head = "e" + (", " if idx else "") if site.kind == "data" else ""
        return (
            f"linear_{site.root}[computeIndex(unitSize_{kid}, "
            f"unitOffset_{kid}, myIndex({head}{idx}), position_{kid}, 0, "
            f"{site.info.levels})]"  # type: ignore[union-attr]
        )

    def compute_index(self, site: AccessSite, dense: list) -> str:
        return f"computeIndex_base_{self._key_id(site)}(...)"

    def row_load(self, site: AccessSite, hoist_id: int, idx: str, low: int) -> str:
        if low != 0:
            idx = f"{idx} - {low}"
        return f"row_{hoist_id}[{idx}]"

    def bind_row(self, hoist: LoopHoist, base: str) -> None:
        self._w(
            f"double* row_{hoist.hoist_id} = &linear_{hoist.site.root}"
            f"[{base}];  /* hoisted (opt-1) */"
        )

    def init_base(self, hoist: LoopHoist, base: str) -> None:
        self._w(
            f"long base_{hoist.hoist_id} = {base};"
            "  /* start point, computed before the first iteration */"
        )

    def advance_row(self, hoist: LoopHoist) -> None:
        self._w(
            f"double* row_{hoist.hoist_id} = &linear_{hoist.site.root}"
            f"[base_{hoist.hoist_id}]; base_{hoist.hoist_id} += "
            f"{hoist.step_bytes};  /* pre-computed offset per iteration */"
        )

    # -- statements ----------------------------------------------------------------

    def flush_cost(self, cost: _Cost) -> None:
        pass

    def declare(self, decl: A.VarDecl, init: str | None) -> None:
        ctype = "double" if isinstance(decl.type, A.NamedTypeExpr) and decl.type.name == "real" else "long"
        self._w(f"{ctype} {decl.name}{'' if init is None else f' = {init}'};")

    def assign(self, name: str, op: str | None, value: str) -> None:
        self._w(f"{name} {op or ''}= {value};")

    def open_loop(self, var: str, lo: str, hi: str) -> None:
        self._w(f"for (long {var} = {lo}; {var} <= {hi}; {var}++) {{")
        self.indent += 1

    def ro_update(self, op: str, args: list[str]) -> None:
        self._w(f"accumulate({', '.join(args)});  /* reduction object update */")

    def expr_stmt(self, value: str) -> None:
        self._w(f"{value};")

    # -- whole kernel ------------------------------------------------------------------

    def generate(self) -> str:
        self.lines = []
        self.indent = 0
        self._w(f"/* {self.low.name}: FREERIDE reduction, opt level {self.plan.opt_level} */")
        self._w("void reduction(reduction_args_t* args) {")
        self.indent += 1
        self._w("for (long e = args->start; e < args->end; e++) {")
        self.indent += 1
        self.emit_block(self.low.body)
        self.close_brace()
        self.close_brace()
        return "\n".join(self.lines) + "\n"

    def generate_program(self) -> str:
        """A complete C-like FREERIDE application (the paper's Figure 5).

        Wraps the reduction function with the initialization section
        (reduction-object allocation, linearization of the dataset and —
        at opt-2 — of the extras), the default splitter/combine stubs, and
        the function-pointer registration the Table I API expects.
        """
        reduction_fn = self.generate()
        lines: list[str] = []
        w = lines.append
        w(f"/* Generated FREERIDE application for {self.low.name} */")
        w('#include "freeride.h"')
        w("")
        w("/* ---- initialization section ---- */")
        w("void init(void* chapel_data, int num_threads) {")
        w("    /* Algorithm 1/2: linearize the Chapel dataset once */")
        w("    linear_data = linearizeIt(chapel_data, computeLinearizeSize(chapel_data));")
        hot = sorted(
            {
                res.root
                for res in self.plan.resources.values()
                if res.kind == "extra" and res.linearized
            }
        )
        for root in hot:
            w(f"    /* opt-2: linearize frequently-accessed {root} */")
            w(f"    linear_{root} = linearizeIt({root}, computeLinearizeSize({root}));")
        w("    reduction_object_alloc();  /* unique IDs per element */")
        w("}")
        w("")
        w("/* ---- middleware defaults (Table I) ---- */")
        w("void splitter(void* data_in, int req_units, reduction_args_t* out) {")
        w("    /* Using default splitter */")
        w("}")
        w("")
        w("void combine(void* copies) {")
        w("    /* Using default combine function */")
        w("}")
        w("")
        w(reduction_fn.rstrip())
        w("")
        w("/* ---- registration: call reduction functions by function pointers ---- */")
        w("int main(int argc, char** argv) {")
        w("    freeride_init(argc, argv);")
        w("    freeride_register((splitter_t) splitter,")
        w("                      (reduction_t) reduction,")
        w("                      (combination_t) combine);")
        w("    freeride_run();")
        w("    return 0;")
        w("}")
        return "\n".join(lines) + "\n"
