"""Reference evaluator for Chapel ``reduce`` expressions and forall loops.

This implements the paper's Figure 1 execution model *directly on the nested
Chapel data structures*: the input is split among tasks, each task applies
``accumulate`` element-by-element over its split (the local reduction), and
the per-task states are merged with ``combine`` (the global reduction) before
``generate`` produces the result.

:func:`reduce_expr` is the oracle of what ``op reduce data`` means: a
compiled/optimized/FREERIDE-executed run must finalize to its result on the
same data.  What a lowered ``accumulate`` body writes into the reduction
object is :mod:`repro.compiler.interp`'s question, and which bits batch and
native produce is the serial scalar tier's (DESIGN §6).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.chapel.expr import IterExpr
from repro.chapel.reduce_op import ReduceScanOp, get_reduce_op
from repro.chapel.values import ChapelArray
from repro.util.errors import ChapelError
from repro.util.validation import check_positive_int

__all__ = ["split_evenly", "reduce_expr", "scan_expr", "forall"]


def split_evenly(items: Sequence[Any], num_tasks: int) -> list[Sequence[Any]]:
    """Split a sequence into ``num_tasks`` contiguous, balanced splits.

    Mirrors Chapel's default block distribution of a forall over a range: the
    first ``len % num_tasks`` splits get one extra element.  Splits may be
    empty when there are more tasks than elements.
    """
    check_positive_int(num_tasks, "num_tasks")
    n = len(items)
    base, extra = divmod(n, num_tasks)
    splits: list[Sequence[Any]] = []
    start = 0
    for t in range(num_tasks):
        size = base + (1 if t < extra else 0)
        splits.append(items[start : start + size])
        start += size
    return splits


def _as_sequence(data: Any) -> Sequence[Any]:
    if isinstance(data, (ChapelArray, IterExpr)):
        return list(data)
    if isinstance(data, Sequence):
        return data
    if isinstance(data, Iterable):
        return list(data)
    raise ChapelError(f"cannot reduce over {type(data)}")


def reduce_expr(
    op: str | type[ReduceScanOp] | ReduceScanOp,
    data: Any,
    num_tasks: int = 1,
) -> Any:
    """Evaluate ``op reduce data`` with the two-stage Chapel semantics.

    ``op`` may be a reduce-expression spelling (``"+"``, ``"min"``), a
    :class:`ReduceScanOp` subclass, or a prototype instance (cloned per
    task).  ``data`` may be a Chapel array, an iterative expression such as
    ``ArrayRef(A) + ArrayRef(B)``, or any Python iterable.
    """
    items = _as_sequence(data)
    proto = get_reduce_op(op)
    locals_: list[ReduceScanOp] = []
    for split in split_evenly(items, num_tasks):
        task_op = proto.clone()
        task_op.accumulate_many(split)
        locals_.append(task_op)
    result = locals_[0]
    for other in locals_[1:]:
        result.combine(other)
    return result.generate()


def scan_expr(
    op: str | type[ReduceScanOp] | ReduceScanOp,
    data: Any,
    num_tasks: int = 1,
) -> list[Any]:
    """Evaluate ``op scan data`` (inclusive scan).

    Chapel's ``ReduceScanOp`` supports scans with the same accumulate
    logic.  With ``num_tasks > 1`` the classic two-phase parallel scan is
    modeled: each task scans its split locally, the per-split totals are
    combined into exclusive prefixes, and each task's local results are
    adjusted by its prefix — requiring exactly the associativity the op
    contract guarantees.  The result is identical to the sequential scan.
    """
    items = _as_sequence(data)
    proto = get_reduce_op(op)
    if num_tasks <= 1:
        return _scan_sequential(proto, items)

    splits = split_evenly(items, num_tasks)
    # Phase 1: local inclusive scans, snapshotting the op state per element.
    local_states: list[list[ReduceScanOp]] = []
    totals: list[ReduceScanOp] = []
    for split in splits:
        acc = proto.clone()
        states: list[ReduceScanOp] = []
        for x in split:
            acc.accumulate(x)
            states.append(acc.snapshot())
        local_states.append(states)
        totals.append(acc)
    # Phase 2: exclusive prefixes of the split totals (combine order matters
    # only up to associativity, which the op contract guarantees).
    prefixes: list[ReduceScanOp] = [proto.clone()]
    for total in totals[:-1]:
        nxt = prefixes[-1].snapshot()
        nxt.combine(total)
        prefixes.append(nxt)
    # Phase 3: adjust every local state by its split's prefix.
    result: list[Any] = []
    for prefix, states in zip(prefixes, local_states):
        for state in states:
            adjusted = prefix.snapshot()
            adjusted.combine(state)
            result.append(adjusted.generate())
    return result


def _scan_sequential(proto: ReduceScanOp, items: Sequence[Any]) -> list[Any]:
    acc = proto.clone()
    out: list[Any] = []
    for x in items:
        acc.accumulate(x)
        out.append(acc.generate())
    return out


def forall(
    domain: Iterable[Any],
    body: Callable[[Any], Any],
    num_tasks: int = 1,
) -> list[Any]:
    """A forall loop collecting per-index results (deterministic order).

    The mini-Chapel forall is sequential per task but models the task split;
    it exists so tests can express Figure 8-style loop nests uniformly.
    """
    items = _as_sequence(domain)
    results: list[Any] = []
    for split in split_evenly(items, num_tasks):
        for idx in split:
            results.append(body(idx))
    return results
