"""Conflict-free split coloring for the COLORED shared-memory technique.

PyOP2-style iteration-set coloring applied to FREERIDE splits: two splits
*conflict* when the sets of reduction-object groups their updates can touch
intersect.  Greedily coloring the conflict graph partitions the splits into
**waves** — all splits of one wave may update the single shared reduction
object concurrently with no locks and no replicas, because the coloring
proves they touch disjoint cells.  The engine executes waves in order with a
barrier between them.

Group sets come from one of two sources, in priority order:

1. ``spec.group_bounds`` — an application-provided callable
   ``(split, num_groups) -> iterable of group ids | None`` (``None`` means
   "unknown for this split").  This is the hook for reductions whose group
   footprint genuinely varies per split (e.g. pre-partitioned inputs).
2. the compiler's symbolic effect analysis
   (:func:`repro.compiler.groupbounds.analyze_group_bounds`), attached to
   specs built from compiled reductions.  The attached
   :class:`~repro.compiler.groupbounds.GroupBounds` carries the
   split-parametric effect summary, so each split's footprint is evaluated
   over just its own element range
   (:meth:`~repro.compiler.groupbounds.GroupBounds.groups_for_range`):
   reductions whose group index is a function of the element index (e.g.
   ``elemIdx() / window``) get genuinely disjoint per-split sets and color
   into wide waves.  When every group form is element-independent the
   footprints coincide and the coloring degenerates to one split per wave,
   which still delivers the technique's memory/lock-freedom guarantees (a
   single shared RO, zero lock acquisitions) at replication-free cost.
   A data-dependent group index (the histogram's bin) is bounded this way
   too: every split may touch every group.

If no source yields exact sets for every split, coloring is impossible and
the caller falls back to a replica- or lock-based technique.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.freeride.splitter import Split

__all__ = ["SplitColoring", "resolve_group_sets", "color_splits"]


@dataclass(frozen=True)
class SplitColoring:
    """The wave schedule produced by :func:`color_splits`.

    ``waves[w]`` holds the indices (into the run's split list) of the splits
    executing in wave ``w``; ``group_sets[i]`` is split ``i``'s proven group
    footprint, used to restrict fault-tolerant scratch commits.
    """

    waves: tuple[tuple[int, ...], ...]
    group_sets: tuple[frozenset[int], ...]
    source: str  # "spec_hook" | "compiler"

    @property
    def num_colors(self) -> int:
        return len(self.waves)

    @property
    def max_wave_width(self) -> int:
        return max((len(w) for w in self.waves), default=0)

    def fingerprint(self) -> str:
        """Stable digest of the wave layout (reported by :meth:`as_dict`)."""
        text = ";".join(",".join(map(str, wave)) for wave in self.waves)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def as_dict(self) -> dict:
        """Compact summary recorded in ``RunStats.coloring``."""
        return {
            "num_waves": self.num_colors,
            "max_wave_width": self.max_wave_width,
            "num_splits": len(self.group_sets),
            "source": self.source,
            "fingerprint": self.fingerprint(),
        }


def resolve_group_sets(
    spec, splits: Sequence[Split], num_groups: int
) -> tuple[list[frozenset[int]] | None, str | None]:
    """Determine each split's group footprint, or ``None`` if inexact.

    Returns ``(group_sets, source)``; ``source`` names which mechanism
    supplied the sets (for stats/trace) and is ``None`` on failure.
    """
    hook = getattr(spec, "group_bounds", None)
    if callable(hook):
        sets: list[frozenset[int]] = []
        for split in splits:
            groups = hook(split, num_groups)
            if groups is None:
                sets = []
                break
            gs = frozenset(int(g) for g in groups)
            if gs and (min(gs) < 0 or max(gs) >= num_groups):
                sets = []
                break
            sets.append(gs)
        else:
            return sets, "spec_hook"
    elif hasattr(hook, "groups_for_range"):
        sets = []
        for split in splits:
            groups = hook.groups_for_range(split.start, split.end, num_groups)
            if groups is None:
                sets = []
                break
            sets.append(groups)
        else:
            return sets, "compiler"
    return None, None


def color_splits(
    group_sets: Sequence[frozenset[int]], source: str = "unknown"
) -> SplitColoring:
    """Greedy deterministic coloring of the split-conflict graph.

    Splits are processed in index order; each takes the smallest color not
    already used by a conflicting split.  Conflict is group-set
    intersection, tracked per color as the union of its members' sets, so
    assignment is O(splits x colors) instead of building the quadratic
    edge list.
    """
    color_groups: list[set[int]] = []  # union of group sets per color
    waves: list[list[int]] = []
    for idx, gs in enumerate(group_sets):
        for color, used in enumerate(color_groups):
            if not (used & gs):
                used |= gs
                waves[color].append(idx)
                break
        else:
            color_groups.append(set(gs))
            waves.append([idx])
    return SplitColoring(
        waves=tuple(tuple(w) for w in waves),
        group_sets=tuple(frozenset(gs) for gs in group_sets),
        source=source,
    )
