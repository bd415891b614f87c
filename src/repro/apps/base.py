"""What every application runner shares, written once.

The paper's evaluation (§V) runs one application four ways — ``generated``,
``opt-1``, ``opt-2`` and ``manual FR`` — and the four differ only in the
reduction function FREERIDE is handed.  :class:`ReductionApp` owns the rest:
the engine and its lifetime, the version → optimization-level table, the
compile call and the single pass.  A runner subclass supplies what is its
own: the Chapel source and its constants, the reduction-object layout, the
hand-written reduction, and the arithmetic after a pass.
"""

from __future__ import annotations

from typing import Any

from repro.compiler.cache import compile_cached
from repro.compiler.pipeline import OPT_LEVELS
from repro.compiler.translate import BACKENDS, CompiledReduction
from repro.freeride.runtime import FreerideEngine, ReductionResult, RunStats
from repro.freeride.spec import ReductionSpec
from repro.obs.profilestore import ProfileStore
from repro.obs.tracer import Tracer
from repro.util.validation import check_one_of

__all__ = ["ReductionApp", "VERSIONS"]

#: §V's four versions: the translation at its three levels, then hand-written
VERSIONS = (*OPT_LEVELS, "manual")


class ReductionApp:
    """One application, runnable as any of its :attr:`VERSIONS`.

    ``num_threads``, ``executor``, ``chunk_size``, ``technique``, ``tracer``
    and ``profile_store`` configure the :class:`FreerideEngine` the runner
    owns (public as ``engine``); ``backend`` is the compiler tier of the
    compiled versions.  The default, ``"scalar"``, is the interpreted
    per-element oracle: a million-point k-means runs for minutes on it.
    For speed pass ``backend="native"``, which falls back to ``"batch"``
    and then ``"scalar"`` with a warning where it cannot build;
    ``compiled.effective_backend`` reports the tier that ran.  Release the
    engine's worker pools and shared-memory segments with :meth:`close`,
    or use the runner as a context manager.
    """

    #: the versions a subclass exists in
    VERSIONS: tuple[str, ...] = VERSIONS

    def __init__(
        self,
        version: str,
        *,
        num_threads: int = 1,
        executor: str = "serial",
        chunk_size: int | None = None,
        technique: str = "full_replication",
        backend: str = "scalar",
        tracer: Tracer | None = None,
        profile_store: ProfileStore | str | bool | None = None,
    ) -> None:
        self.version = check_one_of(version, self.VERSIONS, "version")
        self.backend = check_one_of(backend, BACKENDS, "backend")
        self.engine = FreerideEngine(
            num_threads=num_threads,
            executor=executor,
            chunk_size=chunk_size,
            technique=technique,
            tracer=tracer,
            profile_store=profile_store,
        )
        #: RunStats of the most recent engine pass (None before the first)
        self.last_run_stats: RunStats | None = None

    @property
    def opt_level(self) -> int | None:
        """The compiler's optimization level; ``None`` for ``manual``."""
        return OPT_LEVELS.get(self.version)

    def compile(
        self, source: str, constants: dict[str, Any]
    ) -> CompiledReduction | None:
        """``source`` at this runner's level and backend; ``None`` for ``manual``."""
        if self.opt_level is None:
            return None
        return compile_cached(
            source, constants, opt_level=self.opt_level, backend=self.backend
        )

    def run_pass(self, spec: ReductionSpec, data: Any) -> ReductionResult:
        """One reduction pass on the runner's engine."""
        return self.note_pass(self.engine.run(spec, data))

    def note_pass(self, result: ReductionResult) -> ReductionResult:
        """Note a finished pass — the last one of a ``run_iterative`` loop."""
        self.last_run_stats = result.stats
        return result

    def close(self) -> None:
        """Release the engine's worker pools and shared-memory segments."""
        self.engine.close()

    def __enter__(self) -> "ReductionApp":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
