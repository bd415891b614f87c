"""Plan-time bounds on reduction-object *group* indices.

The COLORED shared-memory technique (see :mod:`repro.freeride.coloring`)
needs to know, before a split runs, which reduction-object groups its RO
updates can possibly touch.  Two splits whose group sets are disjoint can
then update the one shared reduction object concurrently with no locks and
no per-thread replicas — the PyOP2-style conflict-free coloring argument.

This module is now a thin consumer of the unified symbolic effect
analysis (:mod:`repro.analysis.effects`): one abstract interpretation of
the lowered accumulate body yields a **split-parametric** summary — an
affine :class:`~repro.analysis.affine.Form` of the element index per
``roAdd``/``roMin``/``roMax`` call — and :class:`GroupBounds` carries it
forward so that

* :meth:`GroupBounds.groups` answers the whole-run question the old
  interval analysis answered (which groups can *any* element touch), and
* :meth:`GroupBounds.groups_for_range` answers the per-split question
  (which groups can elements ``[start, end)`` touch), which is what lets
  compiler-bounded apps color into genuinely wide waves instead of every
  split conflicting with every other;
* :meth:`GroupBounds.blocks_reaching` answers the inverse question (which
  elements can touch these groups) — what a delta retraction from a
  min/max group has to re-reduce;
* :attr:`GroupBounds.alignment` exposes the element-period of
  ``elemIdx()``-derived group forms (``e // k`` windows change group only
  at multiples of ``k``) as a split-boundary hint for
  :func:`repro.freeride.splitter.aligned_splits`.

The shared engine also fixes the historical one-sided-clamp widening:
``max(0, b)`` narrows to ``[0, +inf)`` and composes with a later
``min(b, hi)`` into ``[0, hi]`` instead of widening straight to
unbounded.  The analysis remains deliberately conservative: it may report
a wider footprint than any execution realizes, never a narrower one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.compiler.lower import LoweredReduction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.analysis.effects import EffectSummary

__all__ = [
    "FOOTPRINT_MEMO_SIZE",
    "REPLAY_PROBE_LEAF",
    "GroupBounds",
    "analyze_group_bounds",
]

#: per-range footprints one :class:`GroupBounds` keeps before starting over
#: (a footprint is a frozenset as wide as the groups the range reaches)
FOOTPRINT_MEMO_SIZE = 1024

#: smallest block :meth:`GroupBounds.blocks_reaching` asks about when the
#: summary carries no alignment hint — below this, asking costs more than
#: just re-reducing the elements
REPLAY_PROBE_LEAF = 16


class _FootprintMemo:
    """``(start, end, num_groups) -> footprint`` and how many were computed."""

    __slots__ = ("table", "evaluations")

    def __init__(self) -> None:
        self.table: dict[tuple[int, int, int], frozenset[int]] = {}
        self.evaluations = 0


@dataclass(frozen=True)
class GroupBounds:
    """The analysis result for one lowered reduction.

    ``bounded`` is True only when *every* RO update site's group index got
    a finite interval; ``lo``/``hi`` then cover the union of all sites.
    ``sites`` counts the intrinsic calls analyzed — zero sites is bounded
    and touches no groups.  ``reason`` documents why an inexact result is
    inexact (for stats and trace events).

    ``summary`` is the underlying effect summary; ``alignment`` is the
    combined element-period of the group forms (``None`` when no
    element-dependent form exposes one); ``uniform`` says that no live
    group form reads the element index, so every non-empty range has the
    same footprint.

    Per-range footprints are memoized here, beside the immutable summary
    they are a pure function of — nothing can invalidate an answer, so the
    memo is only bounded (:data:`FOOTPRINT_MEMO_SIZE`, cleared when full).
    A :attr:`uniform` footprint is computed once per ``num_groups``.
    ``evaluations`` counts the answers actually computed.
    """

    bounded: bool
    lo: int | None
    hi: int | None
    sites: int
    reason: str | None = None
    alignment: int | None = None
    uniform: bool = field(default=False, compare=False)
    summary: "EffectSummary | None" = field(
        default=None, compare=False, repr=False
    )
    _memo: "_FootprintMemo" = field(
        default_factory=_FootprintMemo, compare=False, repr=False
    )

    def groups(self, num_groups: int) -> frozenset[int] | None:
        """The touched group ids, clipped to the allocated layout.

        Returns ``None`` when the bounds are inexact (the caller must fall
        back), an explicit — possibly empty — frozenset otherwise.
        """
        if not self.bounded:
            return None
        if self.sites == 0 or self.lo is None or self.hi is None:
            return frozenset()
        lo = max(0, self.lo)
        hi = min(num_groups - 1, self.hi)
        return frozenset(range(lo, hi + 1))

    def groups_for_range(
        self, start: int, end: int, num_groups: int
    ) -> frozenset[int] | None:
        """Group ids elements ``[start, end)`` can touch (split footprint).

        Falls back to the whole-run :meth:`groups` set when no effect
        summary is attached (e.g. a :class:`GroupBounds` deserialized from
        an older spec).  Returns ``None`` when the bounds are inexact.
        """
        if not self.bounded:
            return None
        if self.summary is None:
            return self.groups(num_groups)
        memo = self._memo
        if self.uniform and end > start:
            start, end = 0, 1  # one footprint for every non-empty range
        key = (start, end, num_groups)
        out = memo.table.get(key)
        if out is None:
            out = self.summary.groups_for_range(start, end, num_groups)
            if out is None:  # pragma: no cover - bounded implies per-range too
                out = self.groups(num_groups)
            if len(memo.table) >= FOOTPRINT_MEMO_SIZE:
                memo.table.clear()
            memo.table[key] = out
            memo.evaluations += 1
        return out

    def blocks_reaching(
        self, targets: frozenset[int], n: int, num_groups: int
    ) -> list[tuple[int, int]]:
        """The blocks of ``[0, n)`` whose elements can touch ``targets``.

        The delta replay planner: walks one binary tree over the element
        positions asking each node's footprint — a node disjoint from
        ``targets`` is skipped whole, one inside them (or a leaf) is taken
        whole, a mixed one descends.  Node boundaries are multiples of the
        leaf size (:attr:`alignment`, else :data:`REPLAY_PROBE_LEAF`), the
        root spans a power of two of leaves, and a node is asked about
        unclipped (a superset of its elements below ``n``, so still sound):
        the questions depend on neither ``n`` nor which elements are live,
        so every epoch repeats them and the memo answers.  Blocks come back
        in position order, adjacent ones merged.
        """
        leaf = self.alignment or REPLAY_PROBE_LEAF
        span = leaf
        while span < n:
            span *= 2
        blocks: list[tuple[int, int]] = []
        stack = [(0, span)]
        while stack:
            start, size = stack.pop()
            if start >= n:
                continue
            footprint = self.groups_for_range(start, start + size, num_groups)
            if footprint is not None and footprint.isdisjoint(targets):
                continue
            if footprint is None or size == leaf or footprint <= targets:
                end = min(start + size, n)
                if blocks and blocks[-1][1] == start:
                    blocks[-1] = (blocks[-1][0], end)
                else:
                    blocks.append((start, end))
            else:
                half = size // 2
                stack += [(start + half, half), (start, half)]
        return blocks

    @property
    def evaluations(self) -> int:
        """Footprints computed from the summary so far (memo misses)."""
        return self._memo.evaluations

    def fingerprint(self) -> str:
        """Stable digest of the bounds.

        Includes the symbolic forms, so two reductions with the same hull
        but different per-split footprints digest differently.
        """
        text = f"{self.bounded}:{self.lo}:{self.hi}:{self.sites}"
        if self.summary is not None:
            text += f":{self.summary.fingerprint()}:{self.alignment}"
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def analyze_group_bounds(lowered: LoweredReduction) -> GroupBounds:
    """Bound the group index of every RO intrinsic in ``lowered``'s body."""
    # Imported lazily: repro.analysis.effects pulls in the analysis package,
    # which this compiler-side module must not require at import time.
    from repro.analysis.effects import (
        ELEM_RANGE,
        _ceil_int,
        _floor_int,
        analyze_effects,
    )

    summary = analyze_effects(lowered)
    sites = summary.accumulates
    if not sites:
        return GroupBounds(
            bounded=True, lo=None, hi=None, sites=0, summary=summary
        )
    intervals = [eff.group_bounds(ELEM_RANGE) for eff in sites]
    inexact = [iv for iv in intervals if not iv.bounded]
    if inexact:
        return GroupBounds(
            bounded=False,
            lo=None,
            hi=None,
            sites=len(sites),
            reason=(
                f"{len(inexact)} of {len(sites)} reduction-object update "
                "sites have an unbounded group index"
            ),
            summary=summary,
        )
    total = intervals[0]
    for iv in intervals[1:]:
        total = total.join(iv)
    assert total.lo is not None and total.hi is not None
    return GroupBounds(
        bounded=True,
        lo=_ceil_int(total.lo),
        hi=_floor_int(total.hi),
        sites=len(sites),
        alignment=summary.alignment(),
        uniform=not any(eff.group.depends_on_elem for eff in summary.live_accumulates),
        summary=summary,
    )
