"""Iterative expressions over Chapel arrays.

Chapel allows reductions over *expressions*, not just arrays — the paper's
example is ``min reduce A+B`` (find the minimum elementwise sum).  An
:class:`IterExpr` is a lazy elementwise expression tree over arrays and
scalars; reductions iterate it, and the linearizer can materialize it
("for an iterative expression like A+B ... the linearization function is
invoked iteratively on each sum of corresponding elements").
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterator

import numpy as np

from repro.chapel.builtins import BINARY, CALLS, UNARY
from repro.chapel.domains import Domain
from repro.chapel.values import ChapelArray
from repro.util.errors import ChapelTypeError

__all__ = ["IterExpr", "ArrayRef", "BinOpExpr", "UnaryOpExpr", "as_expr"]

#: The elementwise operators: the builtin table's meanings, and ``**``, which
#: is no mini-Chapel operator and stays this module's own.
_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    **{op: BINARY[op].py for op in ("+", "-", "*", "/", "%")},
    "**": operator.pow,
}

_UNOPS: dict[str, Callable[[Any], Any]] = {
    op: {**UNARY, **CALLS}[op].py for op in ("-", "abs")
}


class IterExpr:
    """Base class for lazy elementwise expressions.

    Subclasses expose the iteration :attr:`domain`, elementwise iteration
    (:meth:`__iter__`), per-index evaluation (:meth:`at`), and a vectorized
    :meth:`evaluate` producing a numpy array when the leaves are
    primitive-typed.
    """

    @property
    def domain(self) -> Domain:
        raise NotImplementedError

    def at(self, index: Any) -> Any:
        """Evaluate the expression at one Chapel index."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        for idx in self.domain:
            yield self.at(idx)

    def __len__(self) -> int:
        return self.domain.size

    def evaluate(self) -> np.ndarray:
        """Materialize the whole expression as a numpy array."""
        raise NotImplementedError

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other: Any) -> "BinOpExpr":
        return BinOpExpr("+", self, as_expr(other, like=self))

    def __radd__(self, other: Any) -> "BinOpExpr":
        return BinOpExpr("+", as_expr(other, like=self), self)

    def __sub__(self, other: Any) -> "BinOpExpr":
        return BinOpExpr("-", self, as_expr(other, like=self))

    def __rsub__(self, other: Any) -> "BinOpExpr":
        return BinOpExpr("-", as_expr(other, like=self), self)

    def __mul__(self, other: Any) -> "BinOpExpr":
        return BinOpExpr("*", self, as_expr(other, like=self))

    def __rmul__(self, other: Any) -> "BinOpExpr":
        return BinOpExpr("*", as_expr(other, like=self), self)

    def __truediv__(self, other: Any) -> "BinOpExpr":
        return BinOpExpr("/", self, as_expr(other, like=self))

    def __neg__(self) -> "UnaryOpExpr":
        return UnaryOpExpr("-", self)


class ArrayRef(IterExpr):
    """A leaf referencing a Chapel array (or bare numpy array)."""

    def __init__(self, array: ChapelArray | np.ndarray) -> None:
        if isinstance(array, np.ndarray):
            self._np: np.ndarray | None = array
            self._chapel: ChapelArray | None = None
            self._domain = Domain(*(int(s) for s in array.shape))
        elif isinstance(array, ChapelArray):
            self._chapel = array
            self._np = None
            self._domain = array.domain
        else:
            raise ChapelTypeError(f"cannot reference {type(array)} as an array")

    @property
    def domain(self) -> Domain:
        return self._domain

    def at(self, index: Any) -> Any:
        if self._chapel is not None:
            return self._chapel[index]
        idx = index if isinstance(index, tuple) else (index,)
        return self._np[tuple(i - r.low for i, r in zip(idx, self._domain.ranges))]

    def evaluate(self) -> np.ndarray:
        if self._np is not None:
            return self._np
        return self._chapel.as_numpy()  # type: ignore[union-attr]


class ScalarExpr(IterExpr):
    """A scalar broadcast over a domain."""

    def __init__(self, value: Any, domain: Domain) -> None:
        self._value = value
        self._domain = domain

    @property
    def domain(self) -> Domain:
        return self._domain

    def at(self, index: Any) -> Any:
        return self._value

    def evaluate(self) -> np.ndarray:
        return np.full(self._domain.shape, self._value)


class BinOpExpr(IterExpr):
    """An elementwise binary operation between two conforming expressions."""

    def __init__(self, op: str, left: IterExpr, right: IterExpr) -> None:
        if op not in _BINOPS:
            raise ChapelTypeError(f"unknown elementwise operator {op!r}")
        if left.domain.shape != right.domain.shape:
            raise ChapelTypeError(
                f"non-conforming operands: {left.domain} vs {right.domain}"
            )
        self.op = op
        self.left = left
        self.right = right

    @property
    def domain(self) -> Domain:
        return self.left.domain

    def at(self, index: Any) -> Any:
        return _BINOPS[self.op](self.left.at(index), self.right.at(index))

    def evaluate(self) -> np.ndarray:
        return _BINOPS[self.op](self.left.evaluate(), self.right.evaluate())


class UnaryOpExpr(IterExpr):
    """An elementwise unary operation."""

    def __init__(self, op: str, operand: IterExpr) -> None:
        if op not in _UNOPS:
            raise ChapelTypeError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    @property
    def domain(self) -> Domain:
        return self.operand.domain

    def at(self, index: Any) -> Any:
        return _UNOPS[self.op](self.operand.at(index))

    def evaluate(self) -> np.ndarray:
        return _UNOPS[self.op](self.operand.evaluate())


def as_expr(value: Any, like: IterExpr | None = None) -> IterExpr:
    """Coerce a value to an :class:`IterExpr`.

    Arrays become :class:`ArrayRef`; scalars broadcast over ``like``'s domain.
    """
    if isinstance(value, IterExpr):
        return value
    if isinstance(value, (ChapelArray, np.ndarray)):
        return ArrayRef(value)
    if isinstance(value, (int, float, bool, np.generic)):
        if like is None:
            raise ChapelTypeError("cannot broadcast a scalar without a domain")
        return ScalarExpr(value, like.domain)
    raise ChapelTypeError(f"cannot treat {type(value)} as an iterative expression")
