"""Combination: fold per-thread reduction-object copies into one.

Paper §III-A: "The global combination phase can be achieved by a simple
all-to-one reduce algorithm.  If the size of the reduction object is large,
both local and global combination phases perform a parallel merge to speed up
the process."

The engine runs one node, and its local combination is :func:`combine`: an
all-to-one fold into the run's reduction object, on one thread, whatever the
object's size.  :func:`parallel_merge_combine` is the tree schedule the
paper describes for large objects.  It produces the same combined object with
``ceil(log2 p)`` critical-path rounds instead of ``p - 1``; no engine run
takes it, and the cost model prices it (``machine.CombinePhase``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import FreerideError

__all__ = [
    "CombinationStats",
    "all_to_one_combine",
    "parallel_merge_combine",
    "combine",
]


@dataclass
class CombinationStats:
    """Accounting for one combination phase."""

    strategy: str = "all_to_one"
    merges: int = 0          # total pairwise merges performed
    rounds: int = 0          # critical-path rounds (parallelism-aware)
    elements_merged: int = 0  # total elements passed through merges


def all_to_one_combine(
    ros: Sequence[ReductionObject],
    target: ReductionObject | None = None,
) -> tuple[ReductionObject, CombinationStats]:
    """Sequentially fold every copy into ``target``.

    With no ``target`` the result is a fresh copy seeded from ``ros[0]``
    and the remaining copies are folded in (``len(ros) - 1`` merges).  With
    a caller-provided ``target`` every copy is folded into it (``len(ros)``
    merges).  The inputs are never mutated either way.
    """
    if not ros:
        raise FreerideError("nothing to combine")
    stats = CombinationStats(strategy="all_to_one")
    if target is None:
        target = ros[0].copy()
        rest = ros[1:]
    else:
        rest = ros
    for other in rest:
        target.merge_from(other)
        stats.merges += 1
        stats.elements_merged += target.size
    stats.rounds = stats.merges  # fully sequential
    return target, stats


def parallel_merge_combine(
    ros: Sequence[ReductionObject],
    target: ReductionObject | None = None,
) -> tuple[ReductionObject, CombinationStats]:
    """Tree merge: pairs merge concurrently, ceil(log2 p) rounds.

    The merge work itself is identical to all-to-one; only the critical path
    shrinks.  We perform the merges in tree order so the stats reflect the
    parallel schedule deterministically.  The inputs are never mutated: the
    left side of each first-touch merge is copied before merging, and a
    caller-provided ``target`` absorbs the tree's result in one final merge.
    """
    if not ros:
        raise FreerideError("nothing to combine")
    stats = CombinationStats(strategy="parallel_merge")
    live = list(ros)
    # owned[i] marks tree-private intermediates we are free to mutate;
    # original inputs are copied the first time they would be a merge target.
    owned = [False] * len(live)
    while len(live) > 1:
        nxt: list[ReductionObject] = []
        nxt_owned: list[bool] = []
        for i in range(0, len(live) - 1, 2):
            left = live[i] if owned[i] else live[i].copy()
            left.merge_from(live[i + 1])
            stats.merges += 1
            stats.elements_merged += left.size
            nxt.append(left)
            nxt_owned.append(True)
        if len(live) % 2 == 1:
            nxt.append(live[-1])
            nxt_owned.append(owned[-1])
        live, owned = nxt, nxt_owned
        stats.rounds += 1
    result = live[0]
    if target is not None:
        target.merge_from(result)
        stats.merges += 1
        stats.elements_merged += target.size
        stats.rounds += 1
        return target, stats
    return result, stats


def combine(
    ros: Sequence[ReductionObject],
    target: ReductionObject | None = None,
) -> tuple[ReductionObject, CombinationStats]:
    """The engine's combination: all-to-one, for a reduction object of any size.

    ``target``, when given, receives the combined result (the local
    combination merges per-thread copies straight into the run's base
    reduction object this way); the input copies are left untouched.
    """
    if len(ros) == 1 and target is None:
        return ros[0], CombinationStats(strategy="trivial")
    return all_to_one_combine(ros, target)
