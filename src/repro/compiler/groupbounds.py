"""The compiler's entry into the effect analysis for reduction-object groups.

The COLORED shared-memory technique (see :mod:`repro.freeride.coloring`)
needs to know, before a split runs, which reduction-object groups its RO
updates can possibly touch; the delta replay planner
(:func:`repro.freeride.delta.blocks_reaching`) asks the inverse.  One
abstract interpretation of the lowered accumulate body
(:mod:`repro.analysis.effects`) yields a **split-parametric** summary — an
affine form of the element index per ``roAdd``/``roMin``/``roMax`` call —
and that :class:`~repro.analysis.effects.EffectSummary` is what a compiled
spec's ``group_bounds`` holds: it answers every footprint question itself.
The analysis is deliberately conservative: it may report a wider footprint
than any execution realizes, never a narrower one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.compiler.lower import LoweredReduction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.analysis.effects import EffectSummary

__all__ = ["analyze_group_bounds"]


def analyze_group_bounds(lowered: LoweredReduction) -> "EffectSummary":
    """The effect summary that bounds the group index of every RO intrinsic
    in ``lowered``'s body."""
    # Imported lazily: repro.analysis.effects pulls in the analysis package,
    # which this compiler-side module must not require at import time.
    from repro.analysis.effects import analyze_effects

    return analyze_effects(lowered)
