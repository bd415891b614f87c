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
2. the compiler's symbolic effect analysis: the
   :class:`~repro.analysis.effects.EffectSummary` that specs built from
   compiled reductions carry as ``group_bounds``.  Each split's footprint
   is the summary evaluated over just the element values the split reduces
   (for a ``range(a, b)`` run, ``a`` plus its positions): reductions whose
   group index is a function of the element index (e.g. ``elemIdx() /
   window``) get genuinely disjoint per-split sets and color into wide
   waves.  When every group form is element-independent the footprints
   coincide and the coloring degenerates to one split per wave, which
   still delivers the technique's memory/lock-freedom guarantees (a single
   shared RO, zero lock acquisitions) at replication-free cost.
   A data-dependent group index (the histogram's bin) is bounded this way
   too: every split may touch every group.

If no source yields exact sets for every split, coloring is impossible and
the caller falls back to a replica- or lock-based technique.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.freeride.splitter import Layout, Split, element_ranges, layout_splits

__all__ = ["SplitColoring", "resolve_group_sets", "color_splits"]


@dataclass(frozen=True)
class SplitColoring:
    """The wave schedule produced by :func:`color_splits`.

    ``waves[w]`` holds the positions (into the run's layout) of the splits
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
    hook,
    data,
    layout: Layout,
    num_groups: int,
    splits: "Sequence[Split] | None" = None,
) -> tuple[list[frozenset[int]] | None, str | None]:
    """Determine each split's group footprint, or ``None`` if inexact.

    ``hook`` is a spec's ``group_bounds``: the compiler's effect summary,
    asked per split of ``layout`` (the run's split positions into ``data``)
    at the element values it reduces (:func:`element_ranges`: only over a
    unit-step ``range``), or a callable asked per :class:`Split` —
    ``splits`` when the run has its own (a custom splitter's list), else
    the layout's, built here.

    Returns ``(group_sets, source)``; ``source`` names which mechanism
    supplied the sets (for stats/trace) and is ``None`` on failure.
    """
    sets: list[frozenset[int]] = []
    if callable(hook):
        for split in splits if splits is not None else layout_splits(data, *layout):
            groups = hook(split, num_groups)
            if groups is None:
                return None, None
            gs = frozenset(int(g) for g in groups)
            if gs and (min(gs) < 0 or max(gs) >= num_groups):
                return None, None
            sets.append(gs)
        return sets, "spec_hook"
    if hasattr(hook, "groups_for_range"):
        starts, ends = element_ranges(data, layout)
        if starts is None:
            return None, None
        for start, end in zip(starts.tolist(), ends.tolist()):
            groups = hook.groups_for_range(start, end, num_groups)
            if groups is None:
                return None, None
            sets.append(groups)
        return sets, "compiler"
    return None, None


def color_splits(
    group_sets: Sequence[frozenset[int]], source: str = "unknown"
) -> SplitColoring:
    """Greedy deterministic coloring of the split-conflict graph.

    Splits are processed in position order; each takes the smallest color
    not already used by a conflicting split.  Conflict is group-set
    intersection, tracked per group as a bitmask of the colors whose splits
    touch it: a split's forbidden colors are the OR of its groups' masks,
    so assigning it costs one pass over its own groups, however many colors
    exist.
    """
    used_by: dict[int, int] = {}  # group -> bitmask of colors touching it
    waves: list[list[int]] = []
    for idx, gs in enumerate(group_sets):
        forbidden = 0
        for g in gs:
            forbidden |= used_by.get(g, 0)
        # the lowest clear bit of `forbidden`
        color = (~forbidden & (forbidden + 1)).bit_length() - 1
        if color == len(waves):
            waves.append([])
        waves[color].append(idx)
        bit = 1 << color
        for g in gs:
            used_by[g] = used_by.get(g, 0) | bit
    return SplitColoring(
        waves=tuple(tuple(w) for w in waves),
        group_sets=tuple(frozenset(gs) for gs in group_sets),
        source=source,
    )
