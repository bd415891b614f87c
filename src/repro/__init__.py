"""repro — reproduction of *Translating Chapel to Use FREERIDE* (IPPS 2011).

The package implements, from scratch:

* :mod:`repro.chapel` — a mini-Chapel substrate (types, domains, nested
  values, ``ReduceScanOp`` reductions, a textual frontend);
* :mod:`repro.freeride` — the FREERIDE generalized-reduction middleware
  (explicit reduction object, splitter, shared-memory techniques,
  combination phases, Table I API);
* :mod:`repro.mapreduce` — a Phoenix-style Map-Reduce comparator;
* :mod:`repro.compiler` — the paper's contribution: linearization
  (Algorithms 1–2), index mapping (Algorithm 3), the opt-1/opt-2
  transformations, and code generation from mini-Chapel to FREERIDE;
* :mod:`repro.machine` — an instrumented cost model + simulated multicore
  machine standing in for the paper's Xeon E5345 testbed;
* :mod:`repro.apps` — k-means and PCA (the paper's applications) plus
  extension apps;
* :mod:`repro.data` — deterministic dataset generators at the paper's
  scales;
* :mod:`repro.bench` — the figure-regeneration harness (Figures 9–13 and
  ablations);
* :mod:`repro.obs` — end-to-end tracing: per-split spans,
  compiler-event stream, Chrome-trace export, and the
  ``python -m repro.trace`` report CLI (see ``docs/OBSERVABILITY.md``).

Quickstart::

    from repro.compiler import compile_cached
    from repro.freeride import FreerideEngine
    import numpy as np

    src = '''
    class sumReduction : ReduceScanOp {
      def accumulate(x: real) { roAdd(0, 0, x); }
    }
    '''
    comp = compile_cached(src, {}, opt_level=2)
    bound = comp.bind(np.arange(1000, dtype=np.float64))
    spec, idx = bound.make_spec([(1, "add")])
    print(FreerideEngine(num_threads=4).run(spec, idx).ro.get(0, 0))
"""

__version__ = "1.0.0"

from repro.analysis import (
    Diagnostic,
    Severity,
    analyze_file,
    analyze_path,
    analyze_source,
    check_reduce_op,
    check_registry,
    render_diagnostics,
)
from repro.compiler import CompilationPlan, SitePlan, compile_all_versions
from repro.obs import Tracer, get_tracer, set_tracer, trace_to, tracing

__all__ = [
    "chapel",
    "freeride",
    "mapreduce",
    "compiler",
    "analysis",
    "machine",
    "apps",
    "data",
    "bench",
    "obs",
    "util",
    # re-exported entry points
    "Diagnostic",
    "Severity",
    "analyze_file",
    "analyze_path",
    "analyze_source",
    "check_reduce_op",
    "check_registry",
    "render_diagnostics",
    "CompilationPlan",
    "SitePlan",
    "compile_all_versions",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "tracing",
    "trace_to",
]
