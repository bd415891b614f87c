"""The Chapel-to-FREERIDE translation compiler — the paper's contribution.

Submodules map to the paper's §IV:

* :mod:`repro.compiler.access` — access paths over nested structures;
* :mod:`repro.compiler.linearize` — Algorithms 1 & 2 (``computeLinearizeSize``
  and ``linearizeIt``);
* :mod:`repro.compiler.mapping` — Algorithm 3 (``computeIndex``) and the
  Figure 6 metadata;
* :mod:`repro.compiler.lower` — elaboration and access-site analysis;
* :mod:`repro.compiler.passes` — the opt-1 (strength reduction) and opt-2
  (auxiliary linearization) transformations;
* :mod:`repro.compiler.codegen` — instrumented Python kernels + C-like text;
* :mod:`repro.compiler.batch` — the vectorized split-level NumPy backend
  ("opt-3") with scalar fallback;
* :mod:`repro.compiler.cache` — process-wide compiled-kernel memoization;
* :mod:`repro.compiler.translate` / :mod:`repro.compiler.pipeline` — the
  end-to-end driver producing FREERIDE-runnable specs;
* :mod:`repro.compiler.interp` — the oracle of what a lowered ``accumulate``
  body writes into the reduction object.
"""

from repro.compiler.access import AccessPath, FieldStep, IndexStep
from repro.compiler.batch import BatchCodegen, BatchUnsupported
from repro.compiler.cache import (
    clear_kernel_cache,
    compile_cached,
    kernel_cache_stats,
)
from repro.compiler.exprreduce import ReduceExprJob, compile_reduce_expr
from repro.compiler.interp import interpret_accumulate, interpret_over
from repro.compiler.linearize import (
    LinearizedBuffer,
    compute_linearize_size,
    delinearize,
    linearize_it,
)
from repro.compiler.lower import (
    AccessSite,
    LoweredReduction,
    elaborate_type,
    lower_reduction,
)
from repro.compiler.mapping import (
    MappingInfo,
    collect_mapping_info,
    compute_index,
    compute_index_chapel,
    contiguous_run,
    vectorized_offsets,
)
from repro.compiler.passes import (
    VERSION_NAMES,
    CompilationPlan,
    LoopHoist,
    SitePlan,
    plan_compilation,
)
from repro.compiler.pipeline import OPT_LEVELS, compile_all_versions
from repro.compiler.translate import (
    BACKENDS,
    BoundReduction,
    CompiledReduction,
    compile_reduction,
)

__all__ = [
    "AccessPath",
    "IndexStep",
    "FieldStep",
    "compute_linearize_size",
    "linearize_it",
    "delinearize",
    "LinearizedBuffer",
    "MappingInfo",
    "collect_mapping_info",
    "compute_index",
    "compute_index_chapel",
    "vectorized_offsets",
    "contiguous_run",
    "lower_reduction",
    "elaborate_type",
    "LoweredReduction",
    "AccessSite",
    "plan_compilation",
    "CompilationPlan",
    "SitePlan",
    "LoopHoist",
    "VERSION_NAMES",
    "compile_reduction",
    "compile_all_versions",
    "OPT_LEVELS",
    "BACKENDS",
    "CompiledReduction",
    "BoundReduction",
    "BatchCodegen",
    "BatchUnsupported",
    "compile_cached",
    "clear_kernel_cache",
    "kernel_cache_stats",
    "interpret_accumulate",
    "interpret_over",
    "compile_reduce_expr",
    "ReduceExprJob",
]
