"""Forall race detector over mini-Chapel reduction-class ASTs.

The translated forall executes ``accumulate`` concurrently, one call per
input element, with *class fields* shared across all tasks (they become
read-only extras buffers in the FREERIDE kernel) and all cross-iteration
state required to flow through the explicit reduction object.  This module
walks accumulate/combine/generate bodies and flags everything that breaks
that contract:

``RS002``
    a write to a shared class field that bypasses the reduction object —
    lost updates / torn writes once the forall runs in parallel;
``RS003``
    the write additionally *reads* the shared field (``sum = sum + x``):
    a loop-carried scalar dependence the reduction object must carry;
``RS004``
    a Figure-2-style accumulator class (no RO intrinsics, per-task field
    state) whose ``combine`` never reads the other instance — per-task
    state is silently discarded by the global reduction;
``RS005`` / ``RS006``
    aliasing hazards: the accumulate parameter sharing a name with a class
    field makes the lowered access ambiguous between the linearized input
    buffer and an extras buffer (``RS005``, error); a local merely
    shadowing one is ``RS006`` (warning);
``RS008``
    a write through the accumulate parameter — mutating the shared
    linearized input buffer.

Classes are classified by whether any method uses the ``roAdd``/``roMin``/
``roMax`` intrinsics.  With intrinsics (the compiled style), fields are
shared and read-only; without (the paper's Figure 2 interpreter style),
fields are per-task accumulator state and field writes are the intended
idiom — only the combine contract is checked.
"""

from __future__ import annotations

from repro.chapel import ast as A
from repro.chapel.ast import walk_exprs, walk_stmts
from repro.analysis.diagnostics import Diagnostic, diag

__all__ = ["check_program_races", "check_class_races", "uses_ro_intrinsics"]


def _stmt_exprs(stmt: A.Stmt, include_assign_target: bool = False):
    """Expressions read by one statement (not recursing into sub-blocks)."""
    if isinstance(stmt, A.Assign) and not include_assign_target:
        yield stmt.value
        # target *index* expressions are reads even when the root is not
        root, chain = _chain_root(stmt.target)
        for node in chain:
            if isinstance(node, A.Index):
                yield from node.indices
    else:
        yield from A.stmt_exprs(stmt)


def _chain_root(expr: A.Expr) -> tuple[A.Expr, list[A.Expr]]:
    chain: list[A.Expr] = []
    cur = expr
    while isinstance(cur, (A.Index, A.Member)):
        chain.append(cur)
        cur = cur.base
    chain.reverse()
    return cur, chain


def uses_ro_intrinsics(cls: A.ClassDecl) -> bool:
    """Whether any method calls ``roAdd``/``roMin``/``roMax``.

    This separates the two reduction-class styles: the *compiled* style
    (explicit reduction object; fields are shared read-only extras) from
    the paper's Figure-2 *interpreter* style (fields are per-task
    accumulator state; never fed to the compiler).
    """
    for method in cls.methods:
        for stmt in walk_stmts(method.body):
            for top in _stmt_exprs(stmt, include_assign_target=True):
                for e in walk_exprs(top):
                    if isinstance(e, A.Call) and e.name in A.RO_INTRINSICS:
                        return True
    return False


def _names_read(body: A.Block, skip_assign_targets: bool = True) -> set[str]:
    """Root identifier names read anywhere in a body."""
    out: set[str] = set()
    for stmt in walk_stmts(body):
        for top in _stmt_exprs(stmt, include_assign_target=False):
            for e in walk_exprs(top):
                if isinstance(e, A.Ident):
                    out.add(e.name)
        if not skip_assign_targets and isinstance(stmt, A.Assign):
            root, _ = _chain_root(stmt.target)
            if isinstance(root, A.Ident):
                out.add(root.name)
    return out


def check_class_races(
    cls: A.ClassDecl, file: str | None = None
) -> list[Diagnostic]:
    """Run the race checks on one reduction class."""
    diags: list[Diagnostic] = []
    fields = {f.name for f in cls.fields}
    uses_ro = uses_ro_intrinsics(cls)

    acc = cls.method("accumulate")
    if acc is None or len(acc.params) != 1:
        return diags  # not a reduction class shape; the compiler rejects it
    param = acc.params[0].name

    if param in fields:
        diags.append(
            diag(
                "RS005",
                f"accumulate parameter {param!r} has the same name as a class "
                "field: accesses are ambiguous between the linearized input "
                "buffer and the extras buffer",
                node=acc,
                file=file,
                subject=cls.name,
                hint="rename the parameter or the field",
            )
        )

    reads = _names_read(acc.body)
    fields_written: set[str] = set()

    for stmt in walk_stmts(acc.body):
        if isinstance(stmt, (A.VarDeclStmt, A.ForStmt)):
            local = stmt.decl.name if isinstance(stmt, A.VarDeclStmt) else stmt.var
            if local in fields or local == param:
                kind = "class field" if local in fields else "data parameter"
                diags.append(
                    diag(
                        "RS006",
                        f"local {local!r} shadows the {kind} of the same name",
                        node=stmt,
                        file=file,
                        subject=cls.name,
                        hint="rename the local to keep access roots unambiguous",
                    )
                )
        if not isinstance(stmt, A.Assign):
            continue
        root, _chain = _chain_root(stmt.target)
        if not isinstance(root, A.Ident):
            continue
        name = root.name
        if name == param:
            diags.append(
                diag(
                    "RS008",
                    f"accumulate writes through its parameter {param!r}: the "
                    "input element lives in the shared linearized buffer and "
                    "must stay read-only",
                    node=stmt,
                    file=file,
                    subject=cls.name,
                    hint="copy the element into a local before modifying it",
                )
            )
        elif name in fields:
            if uses_ro:
                carried = name in reads or stmt.op is not None
                if carried:
                    diags.append(
                        diag(
                            "RS003",
                            f"field {name!r} is read and written in the forall "
                            "body: the value carried between iterations is "
                            "lost when iterations run on different tasks",
                            node=stmt,
                            file=file,
                            subject=cls.name,
                            hint="carry the running value through the "
                            "reduction object (roAdd/roMin/roMax)",
                        )
                    )
                else:
                    diags.append(
                        diag(
                            "RS002",
                            f"write to shared class field {name!r} bypasses "
                            "the reduction object: concurrent forall "
                            "iterations race on it",
                            node=stmt,
                            file=file,
                            subject=cls.name,
                            hint="fold per-element updates through "
                            "roAdd/roMin/roMax",
                        )
                    )
            else:
                fields_written.add(name)

    # Figure-2-style accumulator: per-task field state must be merged.
    if not uses_ro and fields_written:
        comb = cls.method("combine")
        if comb is None or len(comb.params) != 1:
            diags.append(
                diag(
                    "RS004",
                    f"accumulate updates per-task fields "
                    f"({', '.join(sorted(fields_written))}) but the class has "
                    "no combine(other) to merge task states",
                    node=cls,
                    file=file,
                    subject=cls.name,
                    hint="add a combine that folds other's fields into self",
                )
            )
        else:
            other = comb.params[0].name
            mentions_other = other in _names_read(comb.body)
            if not mentions_other:
                for stmt in walk_stmts(comb.body):
                    for top in _stmt_exprs(stmt, include_assign_target=True):
                        for e in walk_exprs(top):
                            if isinstance(e, A.Ident) and e.name == other:
                                mentions_other = True
            if not mentions_other:
                diags.append(
                    diag(
                        "RS004",
                        f"combine never reads {other!r}: every task's "
                        f"accumulated state ({', '.join(sorted(fields_written))}) "
                        "is discarded by the global reduction",
                        node=comb,
                        file=file,
                        subject=cls.name,
                        hint="merge other's fields into self inside combine",
                    )
                )

    return diags


def check_program_races(
    program: A.Program, class_name: str | None = None, file: str | None = None
) -> list[Diagnostic]:
    """Race-check every reduction class (or one, by name) in a program."""
    diags: list[Diagnostic] = []
    for cls in program.classes:
        if class_name is not None and cls.name != class_name:
            continue
        diags.extend(check_class_races(cls, file=file))
    return diags
