"""Reduction-safety analyzer for the Chapel-to-FREERIDE pipeline.

Static checks over mini-Chapel reduction classes, the lowered IR, and the
:class:`~repro.chapel.reduce_op.ReduceScanOp` registry:

* :mod:`~repro.analysis.diagnostics` — stable-coded :class:`Diagnostic`
  records (``RS001``…) with source spans and a compiler-style renderer;
* :mod:`~repro.analysis.races` — the forall race detector;
* :mod:`~repro.analysis.algebra` — associativity / commutativity /
  identity checks for reduce ops (seeded, deterministic);
* :mod:`~repro.analysis.affine` — the shared symbolic range engine
  (:class:`Bounds` intervals with exactness, affine :class:`Form` terms of
  the element index);
* :mod:`~repro.analysis.effects` — the unified effect analysis: one
  abstract interpretation of a lowered accumulate body yielding
  split-parametric access summaries (group footprints per element range,
  bounded-gather proofs, RS1xx diagnostics);
* :mod:`~repro.analysis.plancheck` — cross-checks compilation plans
  against ``computeIndex`` layout metadata;
* :mod:`~repro.analysis.driver` — file/directory front end used by
  ``python -m repro.analyze``.
"""

from repro.analysis.diagnostics import (
    CODES,
    DEFAULT_SEVERITIES,
    Diagnostic,
    DiagnosticBag,
    Severity,
    Span,
    diag,
    render_diagnostic,
    render_diagnostics,
    summarize,
)
from repro.analysis.affine import TOP, Bounds, Form
from repro.analysis.effects import (
    ELEM_RANGE,
    AccumulateEffect,
    EffectSummary,
    analyze_effects,
)
from repro.analysis.races import check_class_races, check_program_races
from repro.analysis.algebra import (
    TRIAL_SEED,
    check_reduce_op,
    check_registry,
)
from repro.analysis.plancheck import validate_plan
from repro.analysis.driver import (
    AnalysisReport,
    analyze_file,
    analyze_path,
    analyze_program,
    analyze_source,
    guess_constants,
    iter_chapel_sources,
)

__all__ = [
    "CODES",
    "DEFAULT_SEVERITIES",
    "Diagnostic",
    "DiagnosticBag",
    "Severity",
    "Span",
    "diag",
    "render_diagnostic",
    "render_diagnostics",
    "summarize",
    "TOP",
    "Bounds",
    "Form",
    "ELEM_RANGE",
    "AccumulateEffect",
    "EffectSummary",
    "analyze_effects",
    "check_class_races",
    "check_program_races",
    "TRIAL_SEED",
    "check_reduce_op",
    "check_registry",
    "validate_plan",
    "AnalysisReport",
    "analyze_file",
    "analyze_path",
    "analyze_program",
    "analyze_source",
    "guess_constants",
    "iter_chapel_sources",
]
