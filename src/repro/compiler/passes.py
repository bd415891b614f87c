"""Optimization passes over the lowered reduction — the paper's §V versions.

The three compiled versions differ only in the *plan* these passes produce:

``generated`` (opt level 0)
    data accesses go through the linearized buffer with a full
    ``computeIndex`` call at every access; structured class fields
    (extras, e.g. the k-means centroids) remain nested Chapel accesses.
``opt-1`` (level 1)
    strength reduction: for an access whose innermost index is exactly the
    surrounding loop's variable (and whose outer indices are invariant in
    that loop), the ``computeIndex`` call is hoisted out of the loop — the
    base address of the contiguous innermost run is computed once and the
    loop indexes a typed view of the run.
``opt-2`` (level 2)
    additionally, the "frequently accessed output or temporary variables
    are only linearized, and accessed through the mapping algorithm" —
    extras are linearized too, and strength reduction applies to them.

The passes are analyses: they annotate sites and loops; the code generator
realizes the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chapel import ast as A
from repro.compiler.access import IndexStep
from repro.compiler.lower import AccessSite, LoweredReduction, free_vars
from repro.compiler.mapping import MappingInfo
from repro.util.errors import CompilerError

__all__ = [
    "SitePlan",
    "LoopHoist",
    "SiteResource",
    "CompilationPlan",
    "plan_compilation",
    "site_key",
    "VERSION_NAMES",
]

VERSION_NAMES = {0: "generated", 1: "opt-1", 2: "opt-2", "manual": "manual FR"}


@dataclass
class SitePlan:
    """How codegen should realize one access site."""

    site: AccessSite
    mode: str  # "nested" | "linear" | "hoisted"
    hoist_id: int | None = None  # row variable id when mode == "hoisted"


@dataclass
class LoopHoist:
    """A strength-reduced row.

    Plain hoist: the row view is emitted just before ``loop`` (its base is
    invariant there).  Incremental hoist (``incremental`` set): the base
    depends affinely on the *enclosing* loop's variable, so — exactly as the
    paper describes opt-1 — "the start point ... is computed before the
    first iteration, and an appropriate pre-computed offset is added for
    each iteration": the base is initialized before the enclosing loop and
    bumped by ``step_bytes`` at the top of each of its iterations.
    """

    hoist_id: int
    site: AccessSite
    loop: A.ForStmt
    incremental: A.ForStmt | None = None  # the enclosing loop driving the base
    step_bytes: int = 0
    var_group: int = -1  # which index group (0-based, excl. wrapper) varies


def site_key(site: AccessSite) -> str:
    """Sites with the same root and steps share buffers/infos/readers."""
    return f"{site.kind}:{site.root}:{''.join(str(s) for s in site.steps)}"


@dataclass(frozen=True)
class SiteResource:
    """What the sites sharing one :func:`site_key` need from the kernel env.

    ``kid`` names the env entries (``info_k``/``buf_k``/``read_k``/``view_k``,
    for data also ``lanes_k``/``rows_k``) a linearized key is served by; a key
    with a nested site reads the live Chapel value ``val_<root>`` instead.
    """

    kid: int
    kind: str  # "data" or "extra"
    root: str
    modes: frozenset[str]  # the plan modes of every site with this key
    info: MappingInfo | None

    @property
    def linearized(self) -> bool:
        return bool(self.modes & {"linear", "hoisted"})


@dataclass
class CompilationPlan:
    """The full plan for one optimization level."""

    opt_level: int
    site_plans: dict[int, SitePlan] = field(default_factory=dict)  # id(expr) ->
    loop_hoists: dict[int, list[LoopHoist]] = field(default_factory=dict)  # id(for) ->
    #: id(enclosing for) -> incremental hoists driven by that loop
    incremental_hoists: dict[int, list[LoopHoist]] = field(default_factory=dict)
    #: site key -> shared resource, ids in order of first appearance; the
    #: one table emitters (what to load) and binding (what to install) read
    resources: dict[str, SiteResource] = field(default_factory=dict)

    def plan_for(self, expr_id: int) -> SitePlan:
        return self.site_plans[expr_id]


def _bound_names(loop: A.ForStmt) -> set[str]:
    """Names bound or assigned anywhere inside a loop (incl. its variable)."""
    names = {loop.var}

    def walk(stmt: A.Stmt) -> None:
        if isinstance(stmt, A.VarDeclStmt):
            names.add(stmt.decl.name)
        elif isinstance(stmt, A.Assign):
            if isinstance(stmt.target, A.Ident):
                names.add(stmt.target.name)
        elif isinstance(stmt, A.ForStmt):
            names.add(stmt.var)
            for s in stmt.body.stmts:
                walk(s)
        elif isinstance(stmt, A.IfStmt):
            for s in stmt.then.stmts:
                walk(s)
            if stmt.orelse is not None:
                for s in stmt.orelse.stmts:
                    walk(s)

    for s in loop.body.stmts:
        walk(s)
    return names


class _LoopStackWalker:
    """Visits every expression with the enclosing for-loop stack available."""

    def __init__(self, plan: CompilationPlan, lowered: LoweredReduction) -> None:
        self.plan = plan
        self.low = lowered
        self.loops: list[A.ForStmt] = []
        self._next_hoist = 0

    # -- traversal ------------------------------------------------------------

    def walk_block(self, block: A.Block) -> None:
        for stmt in block.stmts:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.VarDeclStmt):
            if stmt.decl.init is not None:
                self.visit_expr(stmt.decl.init)
        elif isinstance(stmt, A.Assign):
            self.visit_expr(stmt.value)
        elif isinstance(stmt, A.ForStmt):
            self.loops.append(stmt)
            self.walk_block(stmt.body)
            self.loops.pop()
        elif isinstance(stmt, A.IfStmt):
            self.visit_expr(stmt.cond)
            self.walk_block(stmt.then)
            if stmt.orelse is not None:
                self.walk_block(stmt.orelse)
        elif isinstance(stmt, A.ExprStmt):
            self.visit_expr(stmt.expr)
        elif isinstance(stmt, A.Block):  # pragma: no cover - not produced
            self.walk_block(stmt)

    def visit_expr(self, expr: A.Expr) -> None:
        site = self.low.sites.get(id(expr))
        if site is not None:
            self.visit_site(expr, site)
            # still visit index expressions (they may contain other sites)
            for group in site.index_exprs:
                for ie in group:
                    self.visit_expr(ie)
            return
        if isinstance(expr, A.BinOp):
            self.visit_expr(expr.left)
            self.visit_expr(expr.right)
        elif isinstance(expr, A.UnaryOp):
            self.visit_expr(expr.operand)
        elif isinstance(expr, A.Call):
            for a in expr.args:
                self.visit_expr(a)
        elif isinstance(expr, (A.Index, A.Member)):
            # chains not classified as sites were rejected at lower time
            raise CompilerError(f"unplanned access chain {expr}")  # pragma: no cover

    # -- planning --------------------------------------------------------------

    def visit_site(self, expr: A.Expr, site: AccessSite) -> None:
        level = self.plan.opt_level
        linear = site.kind == "data" or level >= 2
        if not linear:
            self.plan.site_plans[id(expr)] = SitePlan(site=site, mode="nested")
            return
        if level >= 1:
            target_idx = self._hoistable_loop(site)
            if target_idx is not None:
                loop = self.loops[target_idx]
                hoist = LoopHoist(self._next_hoist, site, loop)
                self._next_hoist += 1
                self._try_incremental(hoist, site, target_idx)
                if hoist.incremental is not None:
                    self.plan.incremental_hoists.setdefault(
                        id(hoist.incremental), []
                    ).append(hoist)
                else:
                    self.plan.loop_hoists.setdefault(id(loop), []).append(hoist)
                self.plan.site_plans[id(expr)] = SitePlan(
                    site=site, mode="hoisted", hoist_id=hoist.hoist_id
                )
                return
        self.plan.site_plans[id(expr)] = SitePlan(site=site, mode="linear")

    def _try_incremental(
        self, hoist: LoopHoist, site: AccessSite, target_idx: int
    ) -> None:
        """Upgrade a plain hoist to an incremental one when possible."""
        if target_idx == 0:
            return
        enclosing = self.loops[target_idx - 1]
        var = enclosing.var
        varying: list[int] = []
        other_free: set[str] = set()
        for gi, group in enumerate(site.index_exprs[:-1]):
            fv = set()
            for ie in group:
                fv |= free_vars(ie)
            if var in fv:
                varying.append(gi)
                # the varying level must be a bare 1-D loop-variable index
                if len(group) != 1 or not isinstance(group[0], A.Ident):
                    return
            else:
                other_free |= fv
        if len(varying) != 1:
            return
        # the remaining base inputs must be invariant in the enclosing loop
        if other_free & _bound_names(enclosing):
            return
        info = site.info
        assert info is not None
        wrapped = info.levels == len(site.index_exprs) + 1
        level_in_info = varying[0] + (1 if wrapped else 0)
        hoist.incremental = enclosing
        hoist.step_bytes = info.unit_size[level_in_info]
        hoist.var_group = varying[0]

    def _hoistable_loop(self, site: AccessSite) -> int | None:
        """Where to place the strength-reduced row computation.

        Step 1 (the paper's opt-1): find the innermost enclosing loop whose
        variable drives the site's innermost index — the row base can be
        computed just outside it.  Step 2 (standard LICM): keep climbing out
        of enclosing loops as long as the outer index expressions are
        invariant in them (their free variables are not bound/assigned
        inside), so e.g. the k-means point row is computed once per element
        rather than once per centroid.
        """
        if site.info is None or site.info.trailing_offset != 0:
            return None
        if not site.index_exprs:
            return None
        last_group = site.index_exprs[-1]
        if len(last_group) != 1 or not isinstance(last_group[0], A.Ident):
            return None
        var = last_group[0].name
        # the chain must END with that index step (no trailing members) —
        # trailing_offset == 0 already guarantees contiguity.
        if not (site.steps and isinstance(site.steps[-1], IndexStep)):
            return None
        # find the innermost enclosing loop with this variable
        target_idx = None
        for i, loop in enumerate(self.loops):
            if loop.var == var:
                target_idx = i
        if target_idx is None:
            return None
        outer_free: set[str] = set()
        for group in site.index_exprs[:-1]:
            for ie in group:
                outer_free |= free_vars(ie)
        # outer index expressions must be invariant in the target loop
        if outer_free & _bound_names(self.loops[target_idx]):
            return None
        # climb outward while the outer indices stay invariant
        while target_idx > 0 and not (
            outer_free & _bound_names(self.loops[target_idx - 1])
        ):
            target_idx -= 1
        return target_idx


def plan_compilation(lowered: LoweredReduction, opt_level: int) -> CompilationPlan:
    """Run the passes for one optimization level and return the plan."""
    if opt_level not in (0, 1, 2):
        raise CompilerError(f"opt_level must be 0, 1 or 2, got {opt_level!r}")
    plan = CompilationPlan(opt_level=opt_level)
    walker = _LoopStackWalker(plan, lowered)
    walker.walk_block(lowered.body)
    # Every site must have been planned.
    missing = set(lowered.sites) - set(plan.site_plans)
    if missing:  # pragma: no cover - traversal invariant
        raise CompilerError(f"{len(missing)} access sites left unplanned")
    modes: dict[str, set[str]] = {}
    for site_plan in plan.site_plans.values():
        modes.setdefault(site_key(site_plan.site), set()).add(site_plan.mode)
    for site in lowered.sites.values():
        key = site_key(site)
        if key not in plan.resources:
            plan.resources[key] = SiteResource(
                len(plan.resources), site.kind, site.root,
                frozenset(modes[key]), site.info,
            )
    return plan
