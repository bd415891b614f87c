"""Lowering: mini-Chapel reduction classes to an analyzed, typed form.

This stage does what the front half of the paper's translation does:

1. **Elaboration** — resolve the reduction class's type expressions against
   compile-time constants (``k``, ``dim``, ...) and record declarations into
   concrete :mod:`repro.chapel.types` types.
2. **Access-site analysis** — find every maximal ``Index``/``Member`` chain
   in the ``accumulate`` body and classify its root:

   * the accumulate *parameter* → a **data** access (reads the input
     element; becomes a linearized-buffer access in every compiled version);
   * an array/record class field → an **extra** access (e.g. the k-means
     centroids; stays a nested Chapel access until opt-2 linearizes it);
   * a local/loop variable or scalar constant → plain scalar use.

   Each data/extra site gets an :class:`~repro.compiler.access.AccessPath`
   plus the per-level index expressions, ready for mapping collection.

The output :class:`LoweredReduction` is what the optimization passes and
the code generator consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chapel import ast as A
from repro.chapel.builtins import CALLS
from repro.chapel.domains import Domain, Range
from repro.chapel.types import (
    BOOL,
    INT,
    REAL,
    ArrayType,
    ChapelType,
    RecordType,
)
from repro.compiler.access import AccessPath, FieldStep, IndexStep
from repro.compiler.mapping import MappingInfo, collect_mapping_info
from repro.util.errors import CompilerError

__all__ = ["AccessSite", "LoweredReduction", "lower_reduction", "elaborate_type", "free_vars"]

_NAMED_TYPES: dict[str, ChapelType] = {
    "int": INT,
    "real": REAL,
    "bool": BOOL,
}


def _eval_const(expr: A.Expr, constants: dict[str, Any]) -> int:
    """Evaluate a compile-time integer expression (domain bounds)."""
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.Ident):
        if expr.name not in constants:
            raise CompilerError(
                f"domain bound uses {expr.name!r}, which is not a compile-time constant"
            )
        v = constants[expr.name]
        if not isinstance(v, int) or isinstance(v, bool):
            raise CompilerError(f"constant {expr.name!r} must be an int, got {v!r}")
        return v
    if isinstance(expr, A.BinOp):
        left = _eval_const(expr.left, constants)
        right = _eval_const(expr.right, constants)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a // b,
            "%": lambda a, b: a % b,
        }
        if expr.op not in ops:
            raise CompilerError(f"operator {expr.op!r} not allowed in domain bounds")
        return ops[expr.op](left, right)
    if isinstance(expr, A.UnaryOp) and expr.op == "-":
        return -_eval_const(expr.operand, constants)
    raise CompilerError(f"expression {expr} is not a compile-time constant")


def elaborate_type(
    texpr: A.TypeExpr,
    constants: dict[str, Any],
    records: dict[str, A.RecordDecl],
    _stack: tuple[str, ...] = (),
) -> ChapelType:
    """Resolve a type expression to a concrete ChapelType."""
    if isinstance(texpr, A.NamedTypeExpr):
        if texpr.name in _NAMED_TYPES:
            return _NAMED_TYPES[texpr.name]
        if texpr.name in records:
            if texpr.name in _stack:
                raise CompilerError(f"recursive record type {texpr.name!r}")
            decl = records[texpr.name]
            fields = []
            for f in decl.fields:
                if f.type is None:
                    raise CompilerError(
                        f"record {decl.name}: field {f.name} needs a type"
                    )
                fields.append(
                    (
                        f.name,
                        elaborate_type(
                            f.type, constants, records, _stack + (texpr.name,)
                        ),
                    )
                )
            return RecordType(decl.name, tuple(fields))
        raise CompilerError(f"unknown type name {texpr.name!r}")
    if isinstance(texpr, A.ArrayTypeExpr):
        ranges = []
        for r in texpr.ranges:
            lo = _eval_const(r.lo, constants)
            hi = _eval_const(r.hi, constants)
            if hi < lo:
                raise CompilerError(f"empty domain {lo}..{hi} in array type")
            ranges.append(Range(lo, hi))
        elt = elaborate_type(texpr.elt, constants, records, _stack)
        return ArrayType(Domain(*ranges), elt)
    raise CompilerError(f"cannot elaborate type expression {texpr!r}")


def free_vars(expr: A.Expr) -> set[str]:
    """Names an expression reads (used for loop-invariance analysis)."""
    if isinstance(expr, A.Ident):
        return {expr.name}
    if isinstance(expr, A.BinOp):
        return free_vars(expr.left) | free_vars(expr.right)
    if isinstance(expr, A.UnaryOp):
        return free_vars(expr.operand)
    if isinstance(expr, A.Index):
        out = free_vars(expr.base)
        for i in expr.indices:
            out |= free_vars(i)
        return out
    if isinstance(expr, A.Member):
        return free_vars(expr.base)
    if isinstance(expr, A.Call):
        out: set[str] = set()
        for a in expr.args:
            out |= free_vars(a)
        return out
    return set()


@dataclass
class AccessSite:
    """One data/extra access chain found in the accumulate body.

    ``steps`` is the chain relative to the root value — for data sites,
    relative to *one element* (the dataset's leading index level is
    prepended at bind time); for extra sites, relative to the extra value
    (a leading synthetic index level is prepended when the chain starts
    with a member, wrapping the extra in a 1-element array).
    """

    expr: A.Expr
    kind: str  # "data" or "extra"
    root: str  # the parameter name or the extra field name
    #: relative access steps (may be empty for a bare scalar parameter)
    steps: tuple[IndexStep | FieldStep, ...]
    #: per index-step tuple of index expressions (matches index steps order)
    index_exprs: tuple[tuple[A.Expr, ...], ...]
    #: scalar type read by this access
    scalar: ChapelType
    #: mapping info (extras: filled at lower time; data: filled at bind time)
    info: MappingInfo | None = None

    def wrapped_path(self) -> AccessPath:
        """The chain as a full AccessPath with a synthetic leading index.

        The leading index addresses the root inside a 1-element wrapper
        array (for extras) or the dataset (for data; the wrapper is the
        dataset array itself).
        """
        return AccessPath((IndexStep(("_w",)),) + self.steps)

    @property
    def num_steps(self) -> int:
        """Chain length — the nested-access cost unit for the cost model."""
        return max(1, len(self.steps))


@dataclass
class LoweredReduction:
    """The analyzed accumulate function, ready for passes and codegen."""

    name: str
    param_name: str
    element_type: ChapelType
    body: A.Block
    constants: dict[str, Any]
    extra_types: dict[str, ChapelType]
    #: id(expr-node) -> AccessSite for every data/extra chain
    sites: dict[int, AccessSite]
    #: names of locals declared in the body (including loop vars)
    locals: set[str]
    #: which reduction-object intrinsics the body uses, with their ops
    ro_ops_used: set[str] = field(default_factory=set)

    def data_sites(self) -> list[AccessSite]:
        return [s for s in self.sites.values() if s.kind == "data"]

    def extra_sites(self) -> list[AccessSite]:
        return [s for s in self.sites.values() if s.kind == "extra"]


def _chain_root(expr: A.Expr) -> tuple[A.Expr, list[A.Expr]]:
    """Peel Index/Member wrappers; returns (root expr, chain outer->inner)."""
    chain: list[A.Expr] = []
    cur = expr
    while isinstance(cur, (A.Index, A.Member)):
        chain.append(cur)
        cur = cur.base
    chain.reverse()
    return cur, chain


def _site_from_chain(
    root_name: str,
    kind: str,
    root_type: ChapelType,
    chain: list[A.Expr],
    whole: A.Expr,
) -> AccessSite:
    """Build an AccessSite from a peeled chain, validating against the type."""
    steps: list[IndexStep | FieldStep] = []
    index_exprs: list[tuple[A.Expr, ...]] = []
    level = 0
    for node in chain:
        if isinstance(node, A.Index):
            steps.append(IndexStep(tuple(f"v{level}_{i}" for i in range(len(node.indices)))))
            index_exprs.append(node.indices)
            level += 1
        else:
            assert isinstance(node, A.Member)
            steps.append(FieldStep(node.name))
    # Resolve the scalar type by walking the chain against root_type.
    cur: ChapelType = root_type
    for node in chain:
        if isinstance(node, A.Index):
            if not isinstance(cur, ArrayType):
                raise CompilerError(f"indexing non-array in {whole}")
            if cur.domain.rank != len(node.indices):
                raise CompilerError(
                    f"{whole}: rank mismatch ({len(node.indices)} indices for {cur})"
                )
            cur = cur.elt
        else:
            if not isinstance(cur, RecordType):
                raise CompilerError(f"member access on non-record in {whole}")
            cur = cur.field_type(node.name)
    if not cur.is_primitive:
        raise CompilerError(
            f"access {whole} reads a non-scalar ({cur}); reductions read scalars"
        )
    return AccessSite(
        expr=whole,
        kind=kind,
        root=root_name,
        steps=tuple(steps),
        index_exprs=tuple(index_exprs),
        scalar=cur,
    )


class _BodyAnalyzer:
    """Walks the accumulate body collecting sites, locals and RO usage."""

    def __init__(self, lowered: LoweredReduction) -> None:
        self.low = lowered
        self.scopes: list[set[str]] = [set()]

    def declared(self, name: str) -> bool:
        return any(name in s for s in self.scopes)

    def analyze_block(self, block: A.Block) -> None:
        self.scopes.append(set())
        for stmt in block.stmts:
            self.analyze_stmt(stmt)
        self.scopes.pop()

    def analyze_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.VarDeclStmt):
            d = stmt.decl
            if d.type is not None and not isinstance(d.type, A.NamedTypeExpr):
                raise CompilerError(
                    f"local {d.name!r} must be scalar (int/real/bool)"
                )
            if d.init is not None:
                self.analyze_expr(d.init)
            self.scopes[-1].add(d.name)
            self.low.locals.add(d.name)
        elif isinstance(stmt, A.Assign):
            if not isinstance(stmt.target, A.Ident):
                raise CompilerError(
                    f"cannot assign to {stmt.target}; only locals are assignable "
                    "(reduction-object updates go through roAdd/roMin/roMax)"
                )
            if not self.declared(stmt.target.name):
                raise CompilerError(f"assignment to undeclared {stmt.target.name!r}")
            self.analyze_expr(stmt.value)
        elif isinstance(stmt, A.ForStmt):
            self.analyze_expr(stmt.range.lo)
            self.analyze_expr(stmt.range.hi)
            self.scopes.append({stmt.var})
            self.low.locals.add(stmt.var)
            self.analyze_block(stmt.body)
            self.scopes.pop()
        elif isinstance(stmt, A.IfStmt):
            self.analyze_expr(stmt.cond)
            self.analyze_block(stmt.then)
            if stmt.orelse is not None:
                self.analyze_block(stmt.orelse)
        elif isinstance(stmt, A.ExprStmt):
            self.analyze_expr(stmt.expr)
        elif isinstance(stmt, A.ReturnStmt):
            raise CompilerError("accumulate must not return a value")
        elif isinstance(stmt, A.Block):
            self.analyze_block(stmt)
        else:  # pragma: no cover
            raise CompilerError(f"unsupported statement {stmt!r}")

    def analyze_expr(self, expr: A.Expr) -> None:
        if isinstance(expr, (A.IntLit, A.RealLit, A.BoolLit)):
            return
        if isinstance(expr, A.Call):
            if expr.name in A.RO_INTRINSICS:
                if len(expr.args) != 3:
                    raise CompilerError(
                        f"{expr.name} takes (group, element, value); got {len(expr.args)} args"
                    )
                self.low.ro_ops_used.add(A.RO_INTRINSICS[expr.name])
            elif expr.name == "elemIdx":
                if expr.args:
                    raise CompilerError(
                        f"elemIdx takes no arguments; got {len(expr.args)}"
                    )
            elif expr.name in CALLS:
                CALLS[expr.name].check(len(expr.args), CompilerError)
            else:
                raise CompilerError(f"unknown function {expr.name!r}")
            for a in expr.args:
                self.analyze_expr(a)
            return
        if isinstance(expr, (A.Index, A.Member)):
            root, chain = _chain_root(expr)
            if isinstance(root, A.Ident):
                name = root.name
                if name == self.low.param_name:
                    site = _site_from_chain(
                        name, "data", self.low.element_type, chain, expr
                    )
                    self.low.sites[id(expr)] = site
                    for idx_group in site.index_exprs:
                        for ie in idx_group:
                            self.analyze_expr(ie)
                    return
                if name in self.low.extra_types:
                    site = _site_from_chain(
                        name, "extra", self.low.extra_types[name], chain, expr
                    )
                    self.low.sites[id(expr)] = site
                    for idx_group in site.index_exprs:
                        for ie in idx_group:
                            self.analyze_expr(ie)
                    return
                raise CompilerError(
                    f"cannot index/select into {name!r} (not the data parameter "
                    "or a structured class field)"
                )
            raise CompilerError(f"unsupported access base in {expr}")
        if isinstance(expr, A.Ident):
            name = expr.name
            if name == self.low.param_name:
                # bare parameter use: the element itself must be scalar
                if not self.low.element_type.is_primitive:
                    raise CompilerError(
                        f"parameter {name!r} is structured; access its members"
                    )
                self.low.sites[id(expr)] = AccessSite(
                    expr=expr,
                    kind="data",
                    root=name,
                    steps=(),
                    index_exprs=(),
                    scalar=self.low.element_type,
                )
                return
            if (
                self.declared(name)
                or name in self.low.constants
                or name in self.low.extra_types
            ):
                if name in self.low.extra_types and not self.low.extra_types[
                    name
                ].is_primitive:
                    raise CompilerError(
                        f"field {name!r} is structured; access its members"
                    )
                return
            raise CompilerError(f"unknown name {name!r}")
        if isinstance(expr, A.BinOp):
            self.analyze_expr(expr.left)
            self.analyze_expr(expr.right)
            return
        if isinstance(expr, A.UnaryOp):
            self.analyze_expr(expr.operand)
            return
        raise CompilerError(f"unsupported expression {expr!r}")


def lower_reduction(
    program: A.Program,
    constants: dict[str, Any],
    class_name: str | None = None,
    extra_scalars: dict[str, Any] | None = None,
) -> LoweredReduction:
    """Lower a parsed reduction class into analyzed form.

    ``constants`` supplies compile-time values for scalar class fields used
    in domain bounds (``k``, ``dim``); structured class fields become
    *extras* bound at run time.
    """
    cls = program.reduction_class(class_name)
    if cls is None:
        raise CompilerError(
            f"no reduction class {'found' if class_name is None else class_name!r}"
        )
    acc = cls.method("accumulate")
    if acc is None:
        raise CompilerError(f"class {cls.name} has no accumulate method")
    if len(acc.params) != 1:
        raise CompilerError("accumulate takes exactly one parameter (the element)")

    records = {r.name: r for r in program.records}
    all_consts = dict(constants)
    if extra_scalars:
        all_consts.update(extra_scalars)

    element_type = elaborate_type(acc.params[0].type, all_consts, records)

    extra_types: dict[str, ChapelType] = {}
    for f in cls.fields:
        if f.name in all_consts:
            continue  # compile-time scalar
        if f.type is None:
            raise CompilerError(f"class field {f.name} needs a type")
        t = elaborate_type(f.type, all_consts, records)
        if t.is_primitive:
            raise CompilerError(
                f"scalar class field {f.name!r} must be supplied in constants"
            )
        extra_types[f.name] = t

    lowered = LoweredReduction(
        name=cls.name,
        param_name=acc.params[0].name,
        element_type=element_type,
        body=acc.body,
        constants=all_consts,
        extra_types=extra_types,
        sites={},
        locals=set(),
    )
    analyzer = _BodyAnalyzer(lowered)
    analyzer.analyze_block(acc.body)

    # Collect mapping info for data sites against a 1-element wrapper of the
    # element type: the metadata is element-local (the dataset's leading
    # level contributes `element_index * element_size`, added by the kernel),
    # so it does not depend on the dataset length.
    for site in lowered.data_sites():
        site.info = collect_mapping_info(
            ArrayType(Domain(1), lowered.element_type), site.wrapped_path()
        )

    # Collect mapping info for extra sites now (their types are concrete).
    for site in lowered.extra_sites():
        root_t = lowered.extra_types[site.root]
        if site.steps and isinstance(site.steps[0], IndexStep):
            site.info = collect_mapping_info(root_t, AccessPath(site.steps))
        else:
            # Member-rooted chain: model the extra as a 1-element array so
            # the chain starts with an index level (synthetic, dense 0).
            site.info = collect_mapping_info(
                ArrayType(Domain(1), root_t), site.wrapped_path()
            )
    return lowered
