"""The oracle of lowered accumulate bodies: what one writes into the RO.

Binds a :class:`~repro.compiler.lower.LoweredReduction` to the one
mini-Chapel :class:`~repro.chapel.evaluator.Evaluator`: every element is a
live nested Chapel value, class fields are looked up as-is, and each
``roAdd``/``roMin``/``roMax`` lands in a plain
:class:`~repro.freeride.reduction_object.ReductionObject`.  The compiled
versions (generated/opt-1/opt-2) are tested against the reduction object
this leaves; DESIGN §6 says which oracle answers which question.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.chapel.evaluator import Evaluator
from repro.chapel.values import ChapelArray
from repro.compiler.lower import LoweredReduction
from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import CompilerError

__all__ = ["interpret_accumulate", "interpret_over"]


def _oracle(lowered: LoweredReduction, element: Any, extras: dict[str, Any],
            ro: ReductionObject, elem_index: int = 0) -> Evaluator:
    """One element's evaluator: its names are the element, the extras and
    the constants, and its updates land in ``ro``."""
    scope = {lowered.param_name: element, **extras, **lowered.constants}
    return Evaluator([scope], CompilerError, ro.accumulate, {"elemIdx": lambda: elem_index})


def interpret_accumulate(
    lowered: LoweredReduction,
    element: Any,
    extras: dict[str, Any],
    ro: ReductionObject,
    elem_index: int = 0,
) -> None:
    """Run the accumulate body for one element.

    ``elem_index`` is the element's 0-based dataset position, observable
    from the DSL via the ``elemIdx()`` intrinsic.
    """
    _oracle(lowered, element, extras, ro, elem_index).run(lowered.body)


def interpret_over(
    lowered: LoweredReduction,
    elements: Iterable[Any] | ChapelArray,
    extras: dict[str, Any],
    ro_layout: Sequence[tuple[int, str]],
) -> ReductionObject:
    """Run the reduction over a whole dataset; returns the reduction object.

    ``elements`` may be a Chapel array of elements, any iterable of Chapel
    values, or a 2-D numpy array (rows as elements, 1-based indexing inside
    the DSL).
    """
    ro = ReductionObject()
    ro.alloc_many(ro_layout)
    if isinstance(elements, ChapelArray):
        elements = elements.elements()
    for i, element in enumerate(elements):  # a 2-D NumPy array yields its rows
        interpret_accumulate(lowered, element, extras, ro, elem_index=i)
    return ro
