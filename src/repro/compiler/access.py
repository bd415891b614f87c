"""Access paths: the compiler's view of ``data[i].b1[j].a1[k]``.

An :class:`AccessPath` describes how a reduction loop reads scalars out of a
nested Chapel structure: an alternation of *index steps* (one per loop
level — the paper's ``levels``) and *field steps* (record member selections
between array levels).  The linearization stage analyzes the path against
the data's type to collect the paper's Figure 6 metadata (``unitSize[]``,
``unitOffset[][]``, ``position[][]``), and the mapping stage
(:mod:`repro.compiler.mapping`) turns loop indices into byte offsets.

Paths can be written as strings, e.g. ``"[i].b1[j].a1[k]"``, matching the
paper's example, or built programmatically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from repro.chapel.types import (
    ArrayType,
    ChapelType,
    PrimitiveType,
    RecordType,
    EnumType,
    StringType,
)
from repro.util.errors import MappingError

__all__ = ["IndexStep", "FieldStep", "AccessStep", "AccessPath"]


@dataclass(frozen=True)
class IndexStep:
    """Indexing an array level with one loop variable per dimension.

    ``[i]`` indexes a 1-D level; ``[r, c]`` a 2-D level (e.g. the PCA data
    matrix).  A multi-dimensional level is still *one* linearization level —
    its indices combine into one dense position for ``myIndex[]``.
    """

    vars: tuple[str, ...]

    def __init__(self, vars: str | tuple[str, ...]) -> None:
        if isinstance(vars, str):
            vars = (vars,)
        object.__setattr__(self, "vars", tuple(vars))
        if not self.vars:
            raise MappingError("index step needs at least one variable")

    @property
    def var(self) -> str:
        """The single variable of a 1-D step (errors on multi-dim)."""
        if len(self.vars) != 1:
            raise MappingError(f"index step {self} is multi-dimensional")
        return self.vars[0]

    def __str__(self) -> str:
        return "[" + ", ".join(self.vars) + "]"


@dataclass(frozen=True)
class FieldStep:
    """Selecting a record member."""

    name: str

    def __str__(self) -> str:
        return f".{self.name}"


AccessStep = Union[IndexStep, FieldStep]

_TOKEN = re.compile(
    r"\[\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*\]"  # [i] or [i, j]
    r"|\.([A-Za-z_]\w*)"  # .field
    r"|([A-Za-z_]\w*)"  # leading root name
)


@dataclass(frozen=True)
class AccessPath:
    """A sequence of index/field steps rooted at a dataset variable."""

    steps: tuple[AccessStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise MappingError("access path must have at least one step")
        if not isinstance(self.steps[0], IndexStep):
            raise MappingError(
                "access path must start with an index step (the dataset is an array)"
            )

    @classmethod
    def parse(cls, text: str) -> "AccessPath":
        """Parse ``"[i].b1[j].a1[k]"`` (a leading root name is allowed)."""
        steps: list[AccessStep] = []
        pos = 0
        stripped = text.strip()
        while pos < len(stripped):
            m = _TOKEN.match(stripped, pos)
            if m is None:
                raise MappingError(f"cannot parse access path {text!r} at {pos}")
            if m.group(1) is not None:
                vars_ = tuple(v.strip() for v in m.group(1).split(","))
                steps.append(IndexStep(vars_))
            elif m.group(2) is not None:
                steps.append(FieldStep(m.group(2)))
            else:
                # a bare leading identifier names the root variable; skip it
                if pos != 0:
                    raise MappingError(
                        f"unexpected identifier {m.group(3)!r} inside path {text!r}"
                    )
            pos = m.end()
        return cls(tuple(steps))

    # -- structure ------------------------------------------------------------

    @property
    def levels(self) -> int:
        """Number of array levels — the paper's ``levels``."""
        return sum(1 for s in self.steps if isinstance(s, IndexStep))

    @property
    def index_vars(self) -> tuple[tuple[str, ...], ...]:
        """Per-level loop variable tuples, outermost first."""
        return tuple(s.vars for s in self.steps if isinstance(s, IndexStep))

    @property
    def flat_index_vars(self) -> tuple[str, ...]:
        """All loop variable names in order, flattened across levels."""
        return tuple(v for s in self.steps if isinstance(s, IndexStep) for v in s.vars)

    # -- type walking -----------------------------------------------------------

    def walk_types(self, root: ChapelType) -> Iterator[tuple[AccessStep, ChapelType]]:
        """Yield ``(step, type-after-step)`` validating the path against a type."""
        cur = root
        for step in self.steps:
            if isinstance(step, IndexStep):
                if not isinstance(cur, ArrayType):
                    raise MappingError(
                        f"path step {step} indexes non-array type {cur}"
                    )
                if cur.domain.rank != len(step.vars):
                    raise MappingError(
                        f"path step {step} has {len(step.vars)} indices but "
                        f"{cur} has rank {cur.domain.rank}"
                    )
                cur = cur.elt
            else:
                if not isinstance(cur, RecordType):
                    raise MappingError(
                        f"path step {step} selects member of non-record type {cur}"
                    )
                cur = cur.field_type(step.name)
            yield step, cur

    def result_type(self, root: ChapelType) -> ChapelType:
        """The type at the end of the path."""
        cur = root
        for _, cur in self.walk_types(root):
            pass
        return cur

    def validate_scalar(self, root: ChapelType) -> PrimitiveType | StringType | EnumType:
        """Require the path to end at a primitive; return it."""
        end = self.result_type(root)
        if not end.is_primitive:
            raise MappingError(
                f"access path {self} ends at non-primitive type {end}; "
                "reductions read scalars"
            )
        return end  # type: ignore[return-value]

    def __str__(self) -> str:
        return "".join(str(s) for s in self.steps)
