"""Unified symbolic effect analysis over the lowered kernel IR.

One flow-sensitive abstract interpretation of a ``LoweredReduction``'s
accumulate body computes, for every reduction-object update and every
data/extra access site, a **split-parametric access summary**: a
:class:`~repro.analysis.affine.Form` over the element index.  Evaluating a
form over a split's element range yields the interval of group/array
indices that split can touch — so a per-split footprint is one cheap
evaluation, not a re-analysis.

This is the single range engine behind three consumers that previously
carried private, weaker analyses:

* the engine asks the summary itself — a compiled spec's ``group_bounds``
  — every footprint question: per-split group sets for the colored
  technique and the delta replay planner, and the split alignment, so
  compiler-bounded apps color into genuinely wide waves;
* ``repro.compiler.batch`` upgrades its boolean taint to *bounded-gather
  proofs*: a lane-varying access index whose summary proves containment
  in the declared extent vectorizes via ``np.take`` instead of forcing a
  whole-kernel scalar fallback;
* ``repro.analysis.plancheck`` checks access indices against
  ``computeIndex``'s layout domains using the same interpretation.

The analysis mirrors the structure of the original group-bounds
interpreter — loop fixpoints with record suppression, condition
narrowing, pointwise environment joins — but over symbolic forms instead
of constant intervals, which is what keeps clamp patterns
(``max(0, min(b, hi))`` or the two-``if`` variant) and ``elemIdx()``
arithmetic precise.

Three diagnostics ride on the summaries:

``RS100`` (error)
    a reduction-object group index *provably* reaches a negative value
    (exactness-tracked: reported only when the protruding value is
    actually achieved by some execution);
``RS101`` (warning)
    a dead accumulate site — its guarding condition is statically false,
    so the update can never execute;
``RS102`` (warning)
    a group index that is neither affine in the element index nor
    bounded, which disables the colored technique.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

from repro.analysis.affine import (
    ELEM,
    TOP,
    Bounds,
    Form,
    const,
    f_abs,
    f_add,
    f_clamp,
    f_div,
    f_floor,
    f_max,
    f_min,
    f_mod,
    f_mul,
    f_neg,
    f_sub,
    f_toint,
    unknown,
)
from repro.analysis.diagnostics import Diagnostic, diag
from repro.chapel import ast as A
from repro.chapel.builtins import lookup
from repro.chapel.types import PrimitiveType
from repro.compiler.lower import LoweredReduction

__all__ = [
    "ELEM_RANGE",
    "FOOTPRINT_MEMO_SIZE",
    "AccumulateEffect",
    "EffectSummary",
    "analyze_effects",
]

#: The element index ranges over ``[0, +inf)``; every index is achieved in
#: some run, so the range is exact.
ELEM_RANGE = Bounds(0, None, exact=True)

#: per-range footprints one :class:`EffectSummary` keeps before starting
#: over (a footprint is a frozenset as wide as the groups the range reaches)
FOOTPRINT_MEMO_SIZE = 1024

#: Fixpoint iteration cap for loop bodies; variables still changing after
#: this many rounds are widened to unknown.
_MAX_LOOP_ITERATIONS = 8

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")

#: A builtin row's abstract transfer (``repro.chapel.builtins``): ``f_<effect>``
#: of the affine domain, or an opaque form — a boolean, a non-negative real,
#: any real.
_TRANSFER = {
    **{f.__name__[2:]: f for f in (f_add, f_sub, f_mul, f_div, f_mod, f_neg,
                                    f_min, f_max, f_toint, f_floor, f_abs)},
    "bool": lambda *_: unknown(Bounds(0, 1), int_typed=True),
    "nonneg": lambda *_: unknown(Bounds(0, None), int_typed=False),
    "real": lambda *_: unknown(int_typed=False),
}


def _is_int_scalar(ctype: object) -> bool:
    return isinstance(ctype, PrimitiveType) and ctype.dtype.kind in "iu"


# ----------------------------------------------------------------- summaries


@dataclass(frozen=True)
class AccumulateEffect:
    """One ``roAdd``/``roMin``/``roMax`` call's symbolic group and element
    indices.  Only ``op``, ``group`` and ``dead`` make up the summary's
    identity; the element form and the call's ``id()`` ride along for the
    native printer, which looks its update sites up by the latter."""

    op: str
    group: Form
    line: int = 0
    col: int = 0
    #: statically unreachable (guarding condition provably false)
    dead: bool = False
    elem: Form = field(default=unknown(), compare=False)
    expr_id: int = field(default=0, compare=False)

    def group_bounds(self, elem: Bounds) -> Bounds:
        """Interval of group indices touched over the element range."""
        return self.group.eval(elem)


@dataclass(frozen=True)
class EffectSummary:
    """The per-reduction result of :func:`analyze_effects`, and what a
    compiled spec's ``group_bounds`` holds.  Footprints are memoized beside
    the forms they are a pure function of, so the memo is only bounded
    (:data:`FOOTPRINT_MEMO_SIZE`, cleared when full); when no live group
    form reads the element index, every non-empty range shares one."""

    name: str
    accumulates: tuple[AccumulateEffect, ...]
    #: ``(id(site.expr), index group, dim) -> forms`` recorded for every
    #: access-site index expression (joined over all flow paths)
    index_forms: dict[tuple[int, int, int], tuple[Form, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )
    diagnostics: tuple[Diagnostic, ...] = ()
    #: the element period split boundaries snap to, so that no window
    #: straddles two splits (:func:`_alignment`)
    alignment: int | None = field(default=None, init=False, compare=False)
    #: footprints computed so far (memo misses)
    evaluations: int = field(default=0, init=False, compare=False)
    _uniform: bool = field(default=False, init=False, compare=False, repr=False)
    _footprints: dict[tuple[int, int, int], frozenset[int] | None] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        live = self.live_accumulates
        object.__setattr__(self, "alignment", _alignment(live))
        uniform = not any(eff.group.depends_on_elem for eff in live)
        object.__setattr__(self, "_uniform", uniform)

    @property
    def live_accumulates(self) -> tuple[AccumulateEffect, ...]:
        return tuple(a for a in self.accumulates if not a.dead)

    def group_interval(self, elem: Bounds = ELEM_RANGE) -> Bounds | None:
        """Join of the group intervals over all accumulate sites.

        ``None`` when the body performs no reduction-object updates.
        """
        effs = self.accumulates
        if not effs:
            return None
        iv = effs[0].group_bounds(elem)
        for eff in effs[1:]:
            iv = iv.join(eff.group_bounds(elem))
        return iv

    def groups_for_range(
        self, start: int, end: int, num_groups: int
    ) -> frozenset[int] | None:
        """Group ids the element values ``[start, end)`` can touch, clipped
        to ``num_groups``; ``None`` when a live accumulate is unbounded."""
        if self._uniform and end > start:
            start, end = 0, 1  # one footprint for every non-empty range
        key = (start, end, num_groups)
        memo = self._footprints
        out = memo.get(key, memo)  # the memo itself marks a miss
        if out is memo:
            out = self._footprint(start, end, num_groups)
            if len(memo) >= FOOTPRINT_MEMO_SIZE:
                memo.clear()
            memo[key] = out
            object.__setattr__(self, "evaluations", self.evaluations + 1)
        return out

    def _footprint(
        self, start: int, end: int, num_groups: int
    ) -> frozenset[int] | None:
        """:meth:`groups_for_range` computed: the union of each live
        accumulate form's clipped interval over the range."""
        if end <= start:
            return frozenset()
        rng = Bounds(start, end - 1, exact=True)
        out: set[int] = set()
        for eff in self.live_accumulates:
            iv = eff.group_bounds(rng)
            if not iv.bounded:
                return None
            lo = max(0, _ceil_int(iv.lo))
            hi = min(num_groups - 1, _floor_int(iv.hi))
            if lo <= hi:
                out.update(range(lo, hi + 1))
        return frozenset(out)

    def index_bounds(
        self, site_expr_id: int, group: int, dim: int,
        elem: Bounds = ELEM_RANGE,
    ) -> Bounds:
        """Joined interval of one access-site index expression."""
        forms = self.index_forms.get((site_expr_id, group, dim))
        if not forms:
            return TOP
        iv = forms[0].eval(elem)
        for f in forms[1:]:
            iv = iv.join(f.eval(elem))
        return iv

    def fingerprint(self) -> str:
        """Stable digest of the accumulate summaries."""
        text = ";".join(
            f"{a.op}:{a.group.describe()}:{int(a.dead)}"
            for a in self.accumulates
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _ceil_int(v: float | int) -> int:
    i = int(v)
    return i if i >= v else i + 1


def _floor_int(v: float | int) -> int:
    i = int(v)
    return i if i <= v else i - 1


def _alignment(live: tuple[AccumulateEffect, ...]) -> int | None:
    """The lcm of the element-dependent group forms' periods; ``None`` when
    one has none, or none depends on the element."""
    align = None
    for eff in live:
        if not eff.group.depends_on_elem:
            continue
        a = eff.group.alignment()
        if a is None or a <= 0:
            return None
        align = a if align is None else math.lcm(align, a)
    return align


# ------------------------------------------------------------------ analyzer


_Env = dict[str, Form]


class _Analyzer:
    """One flow-sensitive walk over an accumulate body, on the Form domain."""

    def __init__(self, lowered: LoweredReduction) -> None:
        self.low = lowered
        self.constants = {
            k: v
            for k, v in lowered.constants.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        self.record = True
        self.reachable = True
        self.accumulates: list[AccumulateEffect] = []
        self.index_forms: dict[tuple[int, int, int], list[Form]] = {}

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: A.Expr, env: _Env) -> Form:
        site = self.low.sites.get(id(expr))
        if site is not None:
            for gi, group in enumerate(site.index_exprs):
                for dim, ie in enumerate(group):
                    f = self.eval(ie, env)
                    if self.record:
                        forms = self.index_forms.setdefault(
                            (id(expr), gi, dim), []
                        )
                        if f not in forms:
                            forms.append(f)
            return unknown(TOP, int_typed=_is_int_scalar(site.scalar))
        if isinstance(expr, A.IntLit):
            return const(expr.value)
        if isinstance(expr, A.RealLit):
            return const(float(expr.value))
        if isinstance(expr, A.BoolLit):
            return const(1 if expr.value else 0)
        if isinstance(expr, A.Ident):
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.constants:
                return const(self.constants[expr.name])
            etype = self.low.extra_types.get(expr.name)
            return unknown(TOP, int_typed=_is_int_scalar(etype))
        found = lookup(expr)
        if found is not None:
            row, operands = found
            return row.apply(_TRANSFER[row.effect], [self.eval(a, env) for a in operands])
        if isinstance(expr, A.Call):
            if expr.name == "elemIdx":
                return ELEM
            for a in expr.args:  # an RO intrinsic's: their index forms are recorded
                self.eval(a, env)
        return unknown()

    # -- conditions ----------------------------------------------------------

    def _truth(self, cond: A.Expr, env: _Env) -> bool | None:
        """Three-valued static truth of a condition (over-approximate)."""
        if isinstance(cond, A.BoolLit):
            return cond.value
        if isinstance(cond, A.UnaryOp) and cond.op == "!":
            t = self._truth(cond.operand, env)
            return None if t is None else not t
        if not isinstance(cond, A.BinOp):
            return None
        if cond.op == "&&":
            lt = self._truth(cond.left, env)
            rt = self._truth(cond.right, env)
            if lt is False or rt is False:
                return False
            if lt is True and rt is True:
                return True
            return None
        if cond.op == "||":
            lt = self._truth(cond.left, env)
            rt = self._truth(cond.right, env)
            if lt is True or rt is True:
                return True
            if lt is False and rt is False:
                return False
            return None
        if cond.op not in _CMP_OPS:
            return None
        was_recording, self.record = self.record, False
        try:
            ia = self.eval(cond.left, env).eval(ELEM_RANGE)
            ib = self.eval(cond.right, env).eval(ELEM_RANGE)
        finally:
            self.record = was_recording
        return _cmp_truth(cond.op, ia, ib)

    def narrow(self, cond: A.Expr, truth: bool, env: _Env) -> _Env:
        """Refine ``env`` under ``cond == truth`` (new dict)."""
        env = dict(env)
        self._narrow_into(cond, truth, env)
        return env

    def _narrow_into(self, cond: A.Expr, truth: bool, env: _Env) -> None:
        if isinstance(cond, A.UnaryOp) and cond.op == "!":
            self._narrow_into(cond.operand, not truth, env)
            return
        if not isinstance(cond, A.BinOp):
            return
        if cond.op == "&&" and truth:
            self._narrow_into(cond.left, True, env)
            self._narrow_into(cond.right, True, env)
            return
        if cond.op == "||" and not truth:
            self._narrow_into(cond.left, False, env)
            self._narrow_into(cond.right, False, env)
            return
        if cond.op not in ("<", "<=", ">", ">=", "=="):
            return
        if isinstance(cond.left, A.Ident) and cond.left.name in env:
            self._narrow_var(cond.left.name, cond.op, cond.right, truth, env)
        if isinstance(cond.right, A.Ident) and cond.right.name in env:
            mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}
            self._narrow_var(
                cond.right.name, mirrored[cond.op], cond.left, truth, env
            )

    def _narrow_var(
        self,
        name: str,
        op: str,
        bound_expr: A.Expr,
        truth: bool,
        env: _Env,
    ) -> None:
        was_recording, self.record = self.record, False
        try:
            bound_form = self.eval(bound_expr, env)
        finally:
            self.record = was_recording
        bound = bound_form.eval(ELEM_RANGE)
        form = env.get(name)
        if form is None:
            return
        if not truth:
            negated = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
            if op == "==":  # != gives no refinement
                return
            op = negated[op]
        is_int = form.is_int and bound_form.is_int
        lo = hi = None
        if op == "<":
            hi = None if bound.hi is None else (
                bound.hi - 1 if is_int else bound.hi
            )
        elif op == "<=":
            hi = bound.hi
        elif op == ">":
            lo = None if bound.lo is None else (
                bound.lo + 1 if is_int else bound.lo
            )
        elif op == ">=":
            lo = bound.lo
        elif op == "==":
            lo, hi = bound.lo, bound.hi
        if lo is None and hi is None:
            return
        if form.kind == "unknown":
            env[name] = unknown(
                form.bounds.meet_lo(lo).meet_hi(hi), form.int_typed
            )
            return
        narrowed = f_clamp(form, lo, hi)
        if not bound_form.is_const and narrowed.eval(ELEM_RANGE).exact:
            # A clamp against a data-dependent bound over-approximates the
            # branch values but cannot claim its hull is fully achieved.
            iv = narrowed.eval(ELEM_RANGE)
            narrowed = unknown(replace(iv, exact=False), form.is_int)
        env[name] = narrowed

    # -- statements ----------------------------------------------------------

    def block(self, block: A.Block, env: _Env) -> _Env:
        for stmt in block.stmts:
            env = self.stmt(stmt, env)
        return env

    def stmt(self, stmt: A.Stmt, env: _Env) -> _Env:
        if isinstance(stmt, A.VarDeclStmt):
            decl = stmt.decl
            env = dict(env)
            if decl.init is not None:
                env[decl.name] = self.eval(decl.init, env)
            else:
                int_typed = (
                    isinstance(decl.type, A.NamedTypeExpr)
                    and decl.type.name == "int"
                )
                env[decl.name] = unknown(TOP, int_typed=int_typed)
            return env
        if isinstance(stmt, A.Assign):
            if not isinstance(stmt.target, A.Ident):
                return env  # array-element stores don't bind locals
            value = self.eval(stmt.value, env)
            if stmt.op is not None:
                cur = env.get(stmt.target.name, unknown())
                value = {
                    "+": f_add, "-": f_sub, "*": f_mul, "/": f_div,
                }.get(stmt.op, lambda _a, _b: unknown())(cur, value)
            env = dict(env)
            env[stmt.target.name] = value
            return env
        if isinstance(stmt, A.IfStmt):
            return self._if(stmt, env)
        if isinstance(stmt, A.ForStmt):
            return self._for(stmt, env)
        if isinstance(stmt, A.ExprStmt):
            expr = stmt.expr
            if (
                isinstance(expr, A.Call)
                and expr.name in A.RO_INTRINSICS
                and expr.args
            ):
                group, *rest = [self.eval(a, env) for a in expr.args]
                if self.record:
                    self.accumulates.append(
                        AccumulateEffect(
                            op=A.RO_INTRINSICS[expr.name],
                            group=group,
                            line=expr.line or 0,
                            col=expr.col or 0,
                            dead=not self.reachable,
                            elem=rest[0] if rest else unknown(),
                            expr_id=id(expr),
                        )
                    )
            else:
                self.eval(expr, env)
            return env
        if isinstance(stmt, A.Block):  # pragma: no cover - not produced
            return self.block(stmt, env)
        return env  # ReturnStmt and friends: no bindings change

    def _if(self, stmt: A.IfStmt, env: _Env) -> _Env:
        self.eval(stmt.cond, env)  # record sites inside the condition
        truth = self._truth(stmt.cond, env)
        then_narrow = self.narrow(stmt.cond, True, env)
        else_narrow = self.narrow(stmt.cond, False, env)

        saved = self.reachable
        self.reachable = saved and truth is not False
        then_env = self.block(stmt.then, then_narrow)
        self.reachable = saved and truth is not True
        else_env = (
            self.block(stmt.orelse, else_narrow)
            if stmt.orelse is not None
            else else_narrow
        )
        self.reachable = saved

        if truth is True:
            return then_env
        if truth is False:
            return else_env
        cmp_var = _simple_cmp_var(stmt.cond)
        return self._join_envs(
            then_env, else_env,
            before=env, then_narrow=then_narrow, else_narrow=else_narrow,
            cmp_var=cmp_var,
        )

    def _for(self, stmt: A.ForStmt, env: _Env) -> _Env:
        lo = self.eval(stmt.range.lo, env).eval(ELEM_RANGE)
        hi = self.eval(stmt.range.hi, env).eval(ELEM_RANGE)
        loop_form = unknown(
            Bounds(
                lo.lo,
                hi.hi,
                exact=lo.exact and hi.exact,
                vars=lo.vars | hi.vars | {stmt.var},
            ),
            int_typed=True,
        )

        # Fixpoint over the body WITHOUT recording: intermediate
        # environments may be narrower than the loop invariant.
        recording, self.record = self.record, False
        cur = dict(env)
        converged = False
        for _ in range(_MAX_LOOP_ITERATIONS):
            inner = dict(cur)
            inner[stmt.var] = loop_form
            out = self.block(stmt.body, inner)
            out.pop(stmt.var, None)
            new = self._join_envs(cur, out)
            if new == cur:
                converged = True
                break
            cur = new
        if not converged:
            for name in set(cur) | set(env):
                if cur.get(name) != env.get(name):
                    cur[name] = unknown()
        self.record = recording

        # One final pass under the stable invariant records the effects.
        inner = dict(cur)
        inner[stmt.var] = loop_form
        out = self.block(stmt.body, inner)
        out.pop(stmt.var, None)
        return self._join_envs(cur, out)

    # -- joins ---------------------------------------------------------------

    def _join_envs(
        self,
        a: _Env,
        b: _Env,
        *,
        before: _Env | None = None,
        then_narrow: _Env | None = None,
        else_narrow: _Env | None = None,
        cmp_var: str | None = None,
    ) -> _Env:
        """Pointwise join; a variable bound on only one path is dropped."""
        out: _Env = {}
        for name in a.keys() & b.keys():
            fa, fb = a[name], b[name]
            if fa == fb:
                out[name] = fa
                continue
            if cmp_var == name and before is not None:
                moved = self._conditional_move(
                    name, fa, fb, before, then_narrow, else_narrow
                )
                if moved is not None:
                    out[name] = moved
                    continue
            out[name] = _collapse_join(fa, fb)
        return out

    @staticmethod
    def _conditional_move(
        name: str,
        then_form: Form,
        else_form: Form,
        before: _Env,
        then_narrow: _Env | None,
        else_narrow: _Env | None,
    ) -> Form | None:
        """Recognize ``if (v OP c) { v = <bound>; }`` as a clamp.

        Sound only because the condition is a *simple* comparison on
        ``v`` (checked by the caller): the branch that kept ``v`` holds
        its complement-narrowed clamp, and the branch that assigned holds
        exactly the clamp's bound, so the clamp alone describes both
        paths pointwise.
        """
        base = before.get(name)

        def matches(assigned: Form, kept: Form, kept_narrow: _Env | None) -> bool:
            return (
                assigned.is_const
                and kept_narrow is not None
                and kept == kept_narrow.get(name)
                and kept.kind == "clamp"
                and kept != base
                and (kept.lo == assigned.value or kept.hi == assigned.value)
            )

        if matches(then_form, else_form, else_narrow):
            return else_form
        if matches(else_form, then_form, then_narrow):
            return then_form
        return None


def _collapse_join(fa: Form, fb: Form) -> Form:
    """Fallback join: an unknown leaf covering both forms' value ranges."""
    int_typed = fa.is_int and fb.is_int
    if fa.kind == "unknown" and fb.kind == "unknown":
        return unknown(fa.bounds.join(fb.bounds), int_typed)
    return unknown(fa.eval(ELEM_RANGE).join(fb.eval(ELEM_RANGE)), int_typed)


def _cmp_truth(op: str, a: Bounds, b: Bounds) -> bool | None:
    """Static truth of ``a OP b`` from over-approximate intervals."""

    def lt(x: Bounds, y: Bounds, strict: bool) -> bool | None:
        # always x < y (or <=)?
        if x.hi is not None and y.lo is not None and (
            x.hi < y.lo if strict else x.hi <= y.lo
        ):
            return True
        # always NOT (x < y), i.e. x >= y (or x > y)?
        if x.lo is not None and y.hi is not None and (
            x.lo >= y.hi if strict else x.lo > y.hi
        ):
            return False
        return None

    if op == "<":
        return lt(a, b, strict=True)
    if op == "<=":
        return lt(a, b, strict=False)
    if op == ">":
        return lt(b, a, strict=True)
    if op == ">=":
        return lt(b, a, strict=False)
    disjoint = (
        a.hi is not None and b.lo is not None and a.hi < b.lo
    ) or (a.lo is not None and b.hi is not None and a.lo > b.hi)
    same_point = (
        a.is_point and b.is_point and a.lo == b.lo and a.exact and b.exact
    )
    if op == "==":
        if disjoint:
            return False
        if same_point:
            return True
        return None
    if op == "!=":
        if disjoint:
            return True
        if same_point:
            return False
        return None
    return None


def _simple_cmp_var(cond: A.Expr) -> str | None:
    """The variable name of a bare ``v OP expr`` comparison, else None."""
    while isinstance(cond, A.UnaryOp) and cond.op == "!":
        cond = cond.operand
    if not isinstance(cond, A.BinOp) or cond.op not in _CMP_OPS:
        return None
    if isinstance(cond.left, A.Ident) and not isinstance(cond.right, A.Ident):
        return cond.left.name
    if isinstance(cond.right, A.Ident) and not isinstance(cond.left, A.Ident):
        return cond.right.name
    return None


# --------------------------------------------------------------- entry point


_HUGE = 10**18


def analyze_effects(
    lowered: LoweredReduction, file: str | None = None
) -> EffectSummary:
    """Run the effect analysis over one lowered reduction."""
    analyzer = _Analyzer(lowered)
    analyzer.block(lowered.body, {})

    diags: list[Diagnostic] = []
    for eff in analyzer.accumulates:
        node = A.IntLit(0, line=eff.line, col=eff.col) if eff.line else None
        if eff.dead:
            diags.append(
                diag(
                    "RS101",
                    f"{eff.op} update is unreachable: its guarding "
                    "condition is statically false, so this accumulate "
                    "site is dead",
                    node=node,
                    file=file,
                    subject=lowered.name,
                )
            )
            continue
        iv = eff.group_bounds(ELEM_RANGE)
        if iv.definitely_outside(0, _HUGE):
            diags.append(
                diag(
                    "RS100",
                    f"group index of {eff.op} provably reaches "
                    f"{iv.lo:g}, outside the reduction object "
                    f"(summary {eff.group.describe()} spans {iv})",
                    node=node,
                    file=file,
                    subject=lowered.name,
                    hint="clamp the group index to [0, groups-1] before "
                    "the reduction-object update",
                )
            )
        elif not iv.bounded and not eff.group.is_affine_elem:
            diags.append(
                diag(
                    "RS102",
                    f"group index of {eff.op} is data-dependent and "
                    f"unbounded (summary {eff.group.describe()}); the "
                    "colored technique cannot apply to this reduction",
                    node=node,
                    file=file,
                    subject=lowered.name,
                    hint="clamp the group index (min/max or if-clamps) so "
                    "its range becomes a function of the constants",
                )
            )

    return EffectSummary(
        name=lowered.name,
        accumulates=tuple(analyzer.accumulates),
        index_forms={
            k: tuple(v) for k, v in analyzer.index_forms.items()
        },
        diagnostics=tuple(diags),
    )
