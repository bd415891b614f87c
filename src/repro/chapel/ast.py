"""AST for the mini-Chapel subset the translator consumes.

The subset covers what the paper's Figures 2 and 3 use: ``record``
declarations, reduction classes inheriting ``ReduceScanOp`` with
``accumulate``/``combine``/``generate`` methods, ``var`` declarations with
array/record types over ``lo..hi`` domains, ``for``/``if`` statements,
arithmetic and comparison expressions, member access and indexing.

Reduction-object updates are expressed with the intrinsics ``roAdd``,
``roMin`` and ``roMax`` (group, element, value) — the explicit reduction
object of the FREERIDE model surfaced into the language.  This is the one
deliberate deviation from real Chapel syntax and is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Node",
    "Expr",
    "IntLit",
    "RealLit",
    "BoolLit",
    "Ident",
    "BinOp",
    "UnaryOp",
    "Index",
    "Member",
    "Call",
    "RangeExpr",
    "TypeExpr",
    "NamedTypeExpr",
    "ArrayTypeExpr",
    "Stmt",
    "Block",
    "VarDeclStmt",
    "Assign",
    "ForStmt",
    "IfStmt",
    "ExprStmt",
    "ReturnStmt",
    "Param",
    "MethodDecl",
    "VarDecl",
    "RecordDecl",
    "ClassDecl",
    "Program",
    "RO_INTRINSICS",
    "walk_stmts",
    "walk_exprs",
    "stmt_exprs",
]

#: Intrinsic reduction-object update functions and their accumulate ops.
RO_INTRINSICS = {"roAdd": "add", "roMin": "min", "roMax": "max"}


@dataclass(frozen=True)
class Node:
    """Base class; ``line``/``col`` carry source positions for diagnostics.

    Positions are keyword-only with ``0`` meaning "unknown", and excluded
    from equality/repr so structural AST comparisons are unaffected.  The
    parser fills them in; programmatically-built nodes may leave them unset.
    """

    line: int = field(default=0, kw_only=True, compare=False, repr=False)
    col: int = field(default=0, kw_only=True, compare=False, repr=False)

    @property
    def span(self) -> tuple[int, int]:
        """``(line, col)`` of the node, ``(0, 0)`` when unknown."""
        return (self.line, self.col)


# ---------------------------------------------------------------- expressions


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class RealLit(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Ident(Expr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str
    operand: Expr

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Index(Expr):
    base: Expr
    indices: tuple[Expr, ...]

    def __str__(self) -> str:
        return f"{self.base}[{', '.join(map(str, self.indices))}]"


@dataclass(frozen=True)
class Member(Expr):
    base: Expr
    name: str

    def __str__(self) -> str:
        return f"{self.base}.{self.name}"


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class RangeExpr(Node):
    """``lo..hi`` (inclusive, unit stride)."""

    lo: Expr
    hi: Expr

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


# ----------------------------------------------------------------- type exprs


@dataclass(frozen=True)
class TypeExpr(Node):
    pass


@dataclass(frozen=True)
class NamedTypeExpr(TypeExpr):
    """``real``, ``int``, ``bool``, or a record name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayTypeExpr(TypeExpr):
    """``[lo..hi, ...] eltType``."""

    ranges: tuple[RangeExpr, ...]
    elt: TypeExpr

    def __str__(self) -> str:
        return f"[{', '.join(map(str, self.ranges))}] {self.elt}"


# ----------------------------------------------------------------- statements


@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...]


@dataclass(frozen=True)
class VarDecl(Node):
    name: str
    type: TypeExpr | None
    init: Expr | None


@dataclass(frozen=True)
class VarDeclStmt(Stmt):
    decl: VarDecl


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = value`` or compound ``target op= value`` (op in +,-,*,/)."""

    target: Expr
    value: Expr
    op: str | None = None  # None for plain '='


@dataclass(frozen=True)
class ForStmt(Stmt):
    var: str
    range: RangeExpr
    body: Block


@dataclass(frozen=True)
class IfStmt(Stmt):
    cond: Expr
    then: Block
    orelse: Block | None


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(frozen=True)
class ReturnStmt(Stmt):
    value: Expr | None


# ---------------------------------------------------------------- declarations


@dataclass(frozen=True)
class Param(Node):
    name: str
    type: TypeExpr


@dataclass(frozen=True)
class MethodDecl(Node):
    name: str
    params: tuple[Param, ...]
    body: Block


@dataclass(frozen=True)
class RecordDecl(Node):
    name: str
    fields: tuple[VarDecl, ...]


@dataclass(frozen=True)
class ClassDecl(Node):
    name: str
    parent: str | None
    fields: tuple[VarDecl, ...]
    methods: tuple[MethodDecl, ...]

    def method(self, name: str) -> MethodDecl | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass(frozen=True)
class Program(Node):
    records: tuple[RecordDecl, ...]
    classes: tuple[ClassDecl, ...]

    def record(self, name: str) -> RecordDecl | None:
        for r in self.records:
            if r.name == name:
                return r
        return None

    def reduction_class(self, name: str | None = None) -> ClassDecl | None:
        for c in self.classes:
            if name is None or c.name == name:
                return c
        return None


# ------------------------------------------------------------------ traversal


def walk_stmts(block: Block):
    """Yield every statement in a block, recursively."""
    for stmt in block.stmts:
        yield stmt
        if isinstance(stmt, ForStmt):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, IfStmt):
            yield from walk_stmts(stmt.then)
            if stmt.orelse is not None:
                yield from walk_stmts(stmt.orelse)
        elif isinstance(stmt, Block):
            yield from walk_stmts(stmt)


def walk_exprs(expr: Expr):
    """Yield an expression and every sub-expression under it."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, Index):
        yield from walk_exprs(expr.base)
        for i in expr.indices:
            yield from walk_exprs(i)
    elif isinstance(expr, Member):
        yield from walk_exprs(expr.base)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from walk_exprs(a)


def stmt_exprs(stmt: Stmt):
    """The expressions one statement holds directly (not its sub-blocks')."""
    if isinstance(stmt, VarDeclStmt):
        if stmt.decl.init is not None:
            yield stmt.decl.init
    elif isinstance(stmt, Assign):
        yield stmt.value
        yield stmt.target
    elif isinstance(stmt, ForStmt):
        yield stmt.range.lo
        yield stmt.range.hi
    elif isinstance(stmt, IfStmt):
        yield stmt.cond
    elif isinstance(stmt, ExprStmt):
        yield stmt.expr
    elif isinstance(stmt, ReturnStmt):
        if stmt.value is not None:
            yield stmt.value
