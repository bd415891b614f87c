"""Batch (vectorized) code generation — the "opt-3" execution backend.

The scalar backend (:class:`~repro.compiler.codegen.PythonCodegen`) walks the
linearized buffers one element at a time through an interpreted Python
kernel, so wall-clock time is dominated by interpreter overhead rather than
the memory behaviour the paper measures.  The dense layout produced by
Algorithms 1-2 is exactly what array-level execution wants:
:class:`BatchCodegen` emits a *split-level* NumPy kernel

.. code-block:: python

    def _batch_kernel(_start, _end, _ro, _env, _C):
        # processes global elements [_start, _end) in whole-array steps

with the same calling convention as the scalar ``_kernel``, where the
element dimension is carried as ``(_end - _start,)``-shaped lane arrays:

* **data accesses** become strided views over the linearized buffer — a 1-D
  lane view per linear access site (stride = element size), a 2-D
  ``(lanes, run)`` row view per hoisted site (reusing the ``SitePlan`` /
  ``LoopHoist`` decisions of the compilation plan, including incremental
  base bumping);
* **extra accesses** are element-invariant, so they stay scalar and are
  evaluated once per batch (nested Chapel chains included) — each lane sees
  the same value the scalar kernel would read;
* **conditionals** on element-dependent values are converted to masks: both
  branch bodies are evaluated for all lanes and assignments merge through
  ``np.where``, preserving the scalar kernel's lowest-index tie-breaking;
* **reduction-object updates** go through
  :meth:`~repro.freeride.reduction_object.ReductionObject.accumulate_batch`
  (``ufunc.at`` under the hood), which folds duplicate cells in lane order —
  bit-for-bit equal to the scalar element order for integer reductions;
* **operation counting** stays per batch: every statement's static
  :class:`~repro.compiler.codegen._Cost` counts are multiplied by the
  *active lane count* at that structural position, so the ledger a batch
  run produces equals the scalar ledger exactly.

Constructs the emitter cannot vectorize — element-dependent loop ranges or
element-dependent access-site indices — raise :class:`BatchUnsupported`;
the translator then falls back to the scalar kernel for the whole
reduction and logs the reason (per-site mixing would break the counter
parity above).
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.chapel import ast as A
from repro.chapel.builtins import ROWS, Builtin
from repro.compiler.codegen import PythonCodegen, _Cost, uses_elem_idx
from repro.compiler.lower import LoweredReduction, AccessSite
from repro.compiler.passes import CompilationPlan

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.analysis.effects import EffectSummary

__all__ = ["BatchCodegen", "BatchUnsupported", "BATCH_NAMESPACE", "uses_elem_idx"]


class BatchUnsupported(Exception):
    """The batch emitter cannot vectorize this reduction; fall back to scalar."""


# ---------------------------------------------------------------- runtime lib
# Helpers injected into the namespace the batch kernel source is exec'd in.
# A builtin's function takes scalars and lane arrays alike (its row's
# ``lift``), so element-invariant subexpressions stay cheap Python scalars.


def _msel(mask, new, old):
    """Masked assignment merge: lanes where ``mask`` holds take ``new``."""
    return np.where(mask, new, old)


def _mand(mask, cond):
    """Narrow the current mask by a lane condition (``mask`` may be None)."""
    cond = np.asarray(cond, dtype=bool)
    return cond if mask is None else (mask & cond)


def _mcount(mask, n):
    """Active lane count under ``mask`` (full width when mask is None)."""
    return int(n) if mask is None else int(np.count_nonzero(mask))


def _errstate():
    # Masked-off lanes still evaluate both branch bodies; their garbage
    # (division by zero, log of non-positives, ...) is discarded by the
    # np.where merges, so the transient FP warnings are suppressed.
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


#: Exec namespace for generated batch kernels.
BATCH_NAMESPACE = {
    "_np": np,
    "_msel": _msel,
    "_mand": _mand,
    "_mcount": _mcount,
    "_errstate": _errstate,
    **{r.batch.partition("(")[0]: r.lift() for r in ROWS if r.lane is not None},
}


# -------------------------------------------------------------- taint analysis


class _Taint:
    """Which locals may vary across lanes (flow-insensitive fixpoint).

    A value is *lane-varying* ("tainted") when it transitively depends on a
    data-site read or the ``elemIdx()`` intrinsic, or is assigned under a
    lane-varying condition (the ``np.where`` merge makes the target an
    array).  Loop variables are never tainted — a lane-varying loop
    *range* is unvectorizable and reported as the fallback reason instead.

    A lane-varying access-site index used to force the same whole-kernel
    fallback.  With an effect ``summary`` attached, a tainted index whose
    symbolic summary proves containment in the site's declared innermost
    extent is instead recorded as a **bounded-gather proof** — the emitter
    vectorizes that access with a grouped ``np.take`` (see
    :meth:`BatchCodegen.linear`); only refuted gathers still
    fall back, with the refutation recorded.
    """

    def __init__(
        self,
        lowered: LoweredReduction,
        summary: "EffectSummary | None" = None,
        plan: CompilationPlan | None = None,
    ) -> None:
        self.low = lowered
        self.summary = summary
        self.plan = plan
        self.tainted: set[str] = set()
        self.reason: str | None = None
        #: ``id(site.expr) -> proof record`` for every tainted index that
        #: was checked against its extent (proven and refuted alike)
        self.gather_proofs: dict[int, dict] = {}

    def run(self) -> None:
        for _ in range(len(self.low.locals) + 2):
            before = set(self.tainted)
            self._walk_block(self.low.body, ctx=False)
            if self.tainted == before:
                break

    def _flag(self, reason: str) -> None:
        if self.reason is None:
            self.reason = reason

    def expr_tainted(self, expr: A.Expr) -> bool:
        site = self.low.sites.get(id(expr))
        if site is not None:
            if site.kind == "data":
                return True
            return any(
                self.expr_tainted(ie) for group in site.index_exprs for ie in group
            )
        if isinstance(expr, A.Ident):
            return expr.name in self.tainted
        if isinstance(expr, A.BinOp):
            return self.expr_tainted(expr.left) or self.expr_tainted(expr.right)
        if isinstance(expr, A.UnaryOp):
            return self.expr_tainted(expr.operand)
        if isinstance(expr, A.Call):
            if expr.name == "elemIdx":
                return True
            return any(self.expr_tainted(a) for a in expr.args)
        return False

    def check_site_indices(self, expr: A.Expr, site: AccessSite) -> None:
        for group in site.index_exprs:
            for ie in group:
                if not self.expr_tainted(ie):
                    continue
                proof = self._prove_gather(expr, site)
                if proof is not None and proof["proven"]:
                    continue
                detail = "" if proof is None else f": {proof['reason']}"
                self._flag(
                    f"index {ie} of {site.kind} access {expr} is "
                    f"element-dependent (gather not vectorized){detail}"
                )

    def proven_gather(self, site: AccessSite) -> dict | None:
        """The successful proof record for ``site``, or None."""
        proof = self.gather_proofs.get(id(site.expr))
        if proof is not None and proof["proven"]:
            return proof
        return None

    def _prove_gather(self, expr: A.Expr, site: AccessSite) -> dict | None:
        """Try to prove a tainted index is a bounded gather.

        Returns the cached proof record — ``proven`` True plus the bounds
        and extent that justify a vectorized ``np.take``, or ``proven``
        False with the refutation reason.  Returns None when no effect
        summary is attached (legacy whole-kernel fallback).
        """
        if self.summary is None:
            return None
        sid = id(expr)
        if sid in self.gather_proofs:
            return self.gather_proofs[sid]
        proof = self._build_gather_proof(expr, site)
        self.gather_proofs[sid] = proof
        return proof

    def _build_gather_proof(self, expr: A.Expr, site: AccessSite) -> dict:
        from repro.analysis.effects import ELEM_RANGE

        record: dict = {
            "site": str(expr),
            "root": site.root,
            "kind": site.kind,
            "proven": False,
            "reason": None,
        }

        def refute(reason: str) -> dict:
            record["reason"] = reason
            return record

        if site.kind != "extra":
            return refute(
                "only read-only extra inputs can gather (data lanes are "
                "strided views)"
            )
        if site.info is None:
            return refute("site has no linearized layout info")
        mode = (
            self.plan.plan_for(id(expr)).mode if self.plan is not None else None
        )
        if mode != "linear":
            return refute(
                f"site planned as {mode!r}; a gather needs a linearized "
                "(non-hoisted) extra access"
            )
        groups = site.index_exprs
        if any(self.expr_tainted(ie) for g in groups[:-1] for ie in g):
            return refute("a non-innermost index is lane-varying")
        if len(groups[-1]) != 1:
            return refute("innermost level is multi-dimensional")
        inner = groups[-1][0]
        bounds = self.summary.index_bounds(
            id(expr), len(groups) - 1, 0, ELEM_RANGE
        )
        rng = site.info.domains[-1].ranges[0]
        record["extent"] = f"[{rng.low}..{rng.high}]"
        if bounds is None:
            return refute("no symbolic summary recorded for the index")
        record["bounds"] = str(bounds)
        if not bounds.contained_in(rng.low, rng.high):
            return refute(
                f"index summary {bounds} is not provably contained in the "
                f"declared extent [{rng.low}..{rng.high}]"
            )
        record["proven"] = True
        record["index"] = str(inner)
        return record

    def _walk_block(self, block: A.Block, ctx: bool) -> None:
        for stmt in block.stmts:
            self._walk_stmt(stmt, ctx)

    def _walk_stmt(self, stmt: A.Stmt, ctx: bool) -> None:
        if isinstance(stmt, A.VarDeclStmt):
            d = stmt.decl
            if ctx or (d.init is not None and self.expr_tainted(d.init)):
                self.tainted.add(d.name)
        elif isinstance(stmt, A.Assign):
            if ctx or self.expr_tainted(stmt.value):
                self.tainted.add(stmt.target.name)  # lower guarantees Ident
        elif isinstance(stmt, A.ForStmt):
            if self.expr_tainted(stmt.range.lo) or self.expr_tainted(stmt.range.hi):
                self._flag(
                    f"range of loop {stmt.var!r} is element-dependent; "
                    "lanes would iterate different trip counts"
                )
            self._walk_block(stmt.body, ctx)
        elif isinstance(stmt, A.IfStmt):
            inner = ctx or self.expr_tainted(stmt.cond)
            self._walk_block(stmt.then, inner)
            if stmt.orelse is not None:
                self._walk_block(stmt.orelse, inner)
        elif isinstance(stmt, A.Block):  # pragma: no cover - not produced
            self._walk_block(stmt, ctx)


# ------------------------------------------------------------------ generator


class BatchCodegen(PythonCodegen):
    """Print the split-level NumPy kernel for one compilation plan.

    A :class:`PythonCodegen` whose values are lane arrays: the walk, the
    dense positions, the hoist placement and the static cost model are the
    shared walker's; every flushed count is multiplied by the active lane
    count at that position, so batch and scalar runs produce identical
    :class:`OpCounters` ledgers.  What is the batch tier's own: the taint
    refusals, the bounded gather, and the masked ``if``.
    """

    #: lanes/rows views take the element-local offset; the split's first
    #: element is theirs to add
    data_base = ""

    def __init__(
        self,
        lowered: LoweredReduction,
        plan: CompilationPlan,
        summary: "EffectSummary | None" = None,
    ) -> None:
        super().__init__(lowered, plan)
        self.taint = _Taint(lowered, summary, plan)
        self.mask = "None"  # current mask expression ("None" = all lanes)
        self.lane = "_n0"  # current active-lane-count variable
        self._next_mask = 0

    def _check_site(self, site: AccessSite) -> None:
        """Refuse the kernel when a site's index varies across lanes."""
        self.taint.check_site_indices(site.expr, site)
        if self.taint.reason is not None:
            raise BatchUnsupported(self.taint.reason)

    # -- expressions ----------------------------------------------------------

    def spell(self, row: Builtin, args: list[str]) -> str:
        return row.spell(row.batch or row.scalar, args)

    def elem_idx(self) -> str:
        return "_ev"

    # -- access sites ---------------------------------------------------------

    def emit_site(self, expr: A.Expr, site: AccessSite, cost: _Cost) -> str:
        self._check_site(site)
        return super().emit_site(expr, site, cost)

    def nested_root(self, site: AccessSite) -> str:
        if site.kind == "data":  # pragma: no cover - plans always linearize data
            raise BatchUnsupported(
                f"data access {site.expr} planned as nested (not linearized)"
            )
        return super().nested_root(site)

    def load(self, site: AccessSite, offset: str) -> str:
        if site.kind == "data":
            # one strided lane view: lane i reads element (_start+i)'s scalar
            return f"_lanes_{self._key_id(site)}({offset})"
        return super().load(site, offset)

    def linear(self, site: AccessSite, cost: _Cost) -> str:
        if self.taint.proven_gather(site) is None:
            return super().linear(site, cost)
        # Vectorize a proven bounded gather over an extra input.  The
        # innermost index is lane-varying but its effect summary is contained
        # in the declared extent, so the access becomes one ``np.take`` over
        # the innermost run starting at the (scalar, lane-invariant) base
        # offset of the outer levels.  The ``np.clip`` never changes a live
        # lane's index — containment is proven — it only keeps the garbage
        # indices of masked-off lanes in range before their values are
        # discarded by the ``np.where`` merges.  Cost parity with the scalar
        # backend holds because the base offset skips exactly the innermost
        # index expression that ``emit_expr`` then accounts for separately.
        cost.bump("linear_reads")
        base = self.hoist_base(site, cost, {})
        rng = site.info.domains[-1].ranges[0]  # type: ignore[union-attr]
        idx = self.emit_expr(site.index_exprs[-1][0], cost)
        if rng.low != 0:
            idx = f"({idx} - {rng.low})"
        return (
            f"_np.take({self._row_view(site)}({base}), "
            f"_np.clip({idx}, 0, {rng.high - rng.low}))"
        )

    def hoist_base(
        self, site: AccessSite, cost: _Cost, override_groups: dict[int, str]
    ) -> str:
        self._check_site(site)
        return super().hoist_base(site, cost, override_groups)

    def _row_view(self, site: AccessSite) -> str:
        if site.kind == "data":
            return f"_rows_{self._key_id(site)}"  # (lanes, run): a row per lane
        return super()._row_view(site)

    def row_load(self, site: AccessSite, hoist_id: int, idx: str, low: int) -> str:
        if low != 0:
            idx = f"{idx} - {low}"
        if site.kind == "data":
            return f"_row_{hoist_id}[:, {idx}]"
        return f"_row_{hoist_id}[{idx}]"

    # -- statements ----------------------------------------------------------

    def _count(self, per_execution: int) -> str:
        return f"{per_execution} * {self.lane}"  # every active lane executes it

    def assign(self, name: str, op: str | None, value: str) -> None:
        """Assign under the current mask (np.where merge when masked).

        Never emits an in-place array update: lane arrays may alias the
        linearized data buffer (strided views), so every assignment rebinds
        to a fresh value.  (A declaration, by contrast, is unconditional
        even under a mask: the DSL scopes the local to this branch, so
        inactive lanes' garbage can never escape the mask region.)
        """
        target = self._mangle(name)
        if op is not None:
            value = f"({target} {op} {value})"
        if self.mask != "None":
            value = f"_msel({self.mask}, {value}, {target})"
        self._w(f"{target} = {value}")

    def ro_update(self, op: str, args: list[str]) -> None:
        self._w(
            f"_ro.accumulate_batch({args[0]}, {args[1]}, {args[2]}, "
            f"{op!r}, {self.mask}, _n0)"
        )

    def emit_if(self, stmt: A.IfStmt) -> None:
        """An element-invariant condition is a plain Python branch; an
        element-dependent one evaluates both branches under masks."""
        if not self.taint.expr_tainted(stmt.cond):
            super().emit_if(stmt)
            return
        n = self._next_mask
        self._next_mask += 1
        cost = _Cost()
        cond = self.emit_expr(stmt.cond, cost)
        self.flush_cost(cost)
        self._w(f"_c{n} = {cond}")
        outer_mask, outer_lane = self.mask, self.lane
        for suffix, mask_expr, body in (
            ("t", f"_mand({outer_mask}, _c{n})", stmt.then),
            ("f", f"_mand({outer_mask}, _lnot(_c{n}))", stmt.orelse),
        ):
            if body is None:
                continue
            mvar, nvar = f"_m{n}{suffix}", f"_n{n}{suffix}"
            self._w(f"{mvar} = {mask_expr}")
            self._w(f"{nvar} = _mcount({mvar}, _n0)")
            self._w(f"if {nvar}:")
            self.indent += 1
            self.mask, self.lane = mvar, nvar
            self.emit_block(body)
            self.mask, self.lane = outer_mask, outer_lane
            self.indent -= 1

    # -- whole kernel ---------------------------------------------------------

    def generate(self) -> str:
        self.taint.run()
        if self.taint.reason is not None:
            raise BatchUnsupported(self.taint.reason)
        self.lines = []
        self.indent = 0
        self.mask, self.lane = "None", "_n0"
        self._next_mask = 0
        self._w("def _batch_kernel(_start, _end, _ro, _env, _C):")
        self.indent += 1
        self._w("if _end <= _start:")
        self._w("    return")
        self._w('_ci = _env["compute_index"]')
        for res in self.plan.resources.values():
            kid = res.kid
            if res.linearized:
                self._w(f'_info_{kid} = _env["info_{kid}"]')
                if res.kind == "data":
                    self._w(f'_mklanes_{kid} = _env["lanes_{kid}"]')
                    self._w(f'_mkrows_{kid} = _env["rows_{kid}"]')
                    self._w(f"_lanes_{kid} = lambda _o: _mklanes_{kid}(_start, _n0, _o)")
                    self._w(f"_rows_{kid} = lambda _o: _mkrows_{kid}(_start, _n0, _o)")
                else:
                    self._w(f'_rd_{kid} = _env["read_{kid}"]')
                    self._w(f'_tv_{kid} = _env["view_{kid}"]')
            if "nested" in res.modes:
                self._w(f'_v_{res.root} = _env["val_{res.root}"]')
        self._w("_n0 = _end - _start")
        if uses_elem_idx(self.low.body):
            # global 0-based element index per lane (the elemIdx() intrinsic);
            # gathered execution re-runs scattered elements out of a compacted
            # buffer and supplies their true global indices via the env
            self._w('_ev = _env.get("_elem_indices")')
            self._w("if _ev is None:")
            self._w('    _ev = _np.arange(_start, _end) + _env.get("_elem_base", 0)')
        self._w("_C.elements_processed += _n0")
        self._w("with _errstate():")
        self.indent += 1
        self.emit_block(self.low.body)
        return "\n".join(self.lines) + "\n"
