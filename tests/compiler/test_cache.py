"""Tests for the process-wide compiled-kernel cache."""

import pytest

from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.compiler.cache import (
    clear_kernel_cache,
    compile_cached,
    kernel_cache_stats,
    plan_fingerprint,
    program_digest,
)
from repro.compiler.pipeline import compile_all_versions

CONSTS = {"bins": 4, "lo": 0.0, "width": 0.25}


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


class TestCompileCached:
    def test_second_compile_is_a_hit_and_same_object(self):
        a = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2)
        stats = kernel_cache_stats()
        assert stats == {
            "hits": 0, "misses": 1, "evictions": 0, "entries": 1,
            "capacity": 128,
        }
        b = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2)
        assert b is a
        assert kernel_cache_stats()["hits"] == 1

    def test_distinct_levels_are_distinct_entries(self):
        a = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 0)
        b = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2)
        assert a is not b
        assert kernel_cache_stats()["entries"] == 2

    def test_distinct_constants_are_distinct_entries(self):
        a = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 1)
        b = compile_cached(HISTOGRAM_CHAPEL_SOURCE, {**CONSTS, "bins": 8}, 1)
        assert a is not b
        assert kernel_cache_stats() == {
            "hits": 0, "misses": 2, "evictions": 0, "entries": 2,
            "capacity": 128,
        }

    def test_distinct_backends_are_distinct_entries(self):
        a = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 1, backend="scalar")
        b = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 1, backend="batch")
        assert a is not b
        assert a.batch_kernel is None
        assert b.batch_kernel is not None

    def test_one_kernel_serves_every_technique(self):
        """A kernel is no technique's variant: compiled once, the same
        object runs colored and replicated — synchronization is the
        accessor's business, not the emitted code's."""
        import numpy as np

        from repro.freeride.runtime import FreerideEngine

        compiled = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2, backend="batch")
        assert compiled.effective_backend == "batch"
        data = (np.arange(400, dtype=np.float64) * 7 % 16) / 16.0
        snapshots = {}
        for technique in ("colored", "full_replication"):
            again = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2, backend="batch")
            assert again is compiled
            spec, idx = again.bind(data).make_spec([(2, "add")] * CONSTS["bins"])
            with FreerideEngine(
                num_threads=2, executor="threads", technique=technique, chunk_size=50
            ) as engine:
                result = engine.run(spec, idx)
            assert result.stats.technique_effective.value == technique
            snapshots[technique] = result.ro.snapshot()
        assert np.array_equal(snapshots["colored"], snapshots["full_replication"])
        stats = kernel_cache_stats()
        assert (stats["entries"], stats["misses"]) == (1, 1)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 0, backend="turbo")

    def test_clear_resets_everything(self):
        compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 0)
        clear_kernel_cache()
        assert kernel_cache_stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
            "capacity": 128,
        }


class TestDigests:
    def test_program_digest_stable_across_parses(self):
        from repro.chapel.parser import parse_program

        d1 = program_digest(parse_program(HISTOGRAM_CHAPEL_SOURCE), CONSTS)
        d2 = program_digest(parse_program(HISTOGRAM_CHAPEL_SOURCE), CONSTS)
        assert d1 == d2

    def test_program_digest_sensitive_to_constants(self):
        d1 = program_digest(HISTOGRAM_CHAPEL_SOURCE, CONSTS)
        d2 = program_digest(HISTOGRAM_CHAPEL_SOURCE, {**CONSTS, "lo": 1.0})
        assert d1 != d2

    def test_plan_fingerprint_differs_across_levels(self):
        a = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 0)
        b = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2)
        assert plan_fingerprint(a.plan) != plan_fingerprint(b.plan)

    def test_plan_fingerprint_stable_for_same_plan(self):
        a = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2)
        assert plan_fingerprint(a.plan) == plan_fingerprint(a.plan)


class TestPipelineIntegration:
    def test_compile_all_versions_uses_cache(self):
        compile_all_versions(HISTOGRAM_CHAPEL_SOURCE, CONSTS)
        assert kernel_cache_stats() == {
            "hits": 0, "misses": 3, "evictions": 0, "entries": 3,
            "capacity": 128,
        }
        compile_all_versions(HISTOGRAM_CHAPEL_SOURCE, CONSTS)
        assert kernel_cache_stats() == {
            "hits": 3, "misses": 3, "evictions": 0, "entries": 3,
            "capacity": 128,
        }

    def test_pipeline_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            compile_all_versions(HISTOGRAM_CHAPEL_SOURCE, CONSTS, backend="gpu")

    def test_run_stats_report_per_run_cache_hit_delta(self):
        # kernel_cache_hits is the *delta* over one run() call: hits from
        # runner construction (compile time) or earlier runs must not leak
        # into a run that performed no compilation itself.
        import numpy as np

        from repro.apps.histogram import HistogramRunner

        data = np.linspace(0.0, 1.0, 64)
        HistogramRunner(4, 0.0, 1.0, version="opt-2").run(data)
        result2 = HistogramRunner(4, 0.0, 1.0, version="opt-2")  # cache hit here
        assert kernel_cache_stats()["hits"] >= 1
        stats = result2.engine.run(*_spec_for(result2, data))
        assert stats.stats.kernel_cache_hits == 0  # no compiles during the run

    def test_run_stats_count_hits_during_the_run(self):
        import numpy as np

        from repro.freeride.runtime import FreerideEngine
        from repro.freeride.spec import ReductionSpec

        compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 1)  # warm the cache

        def reduction(args):
            # a reduction that recompiles per split (apriori-style)
            compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 1)
            args.ro.accumulate(0, 0, float(len(args.split)))

        spec = ReductionSpec(
            name="recompiling",
            setup_reduction_object=lambda ro: ro.alloc(1, "add"),
            reduction=reduction,
        )
        stats = FreerideEngine(num_threads=1).run(spec, np.arange(8.0))
        assert stats.stats.kernel_cache_hits >= 1

    def test_string_and_parsed_program_share_an_entry(self):
        from repro.chapel.parser import parse_program

        compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 1)
        # a parsed Program has a different digest (repr vs source text), so
        # this is a second entry — but repeated parsed compiles still hit
        prog = parse_program(HISTOGRAM_CHAPEL_SOURCE)
        compile_cached(prog, CONSTS, 1)
        hits_before = kernel_cache_stats()["hits"]
        compile_cached(parse_program(HISTOGRAM_CHAPEL_SOURCE), CONSTS, 1)
        assert kernel_cache_stats()["hits"] == hits_before + 1


def _spec_for(runner, data):
    bound = runner.compiled.bind(data)
    return bound.make_spec(runner.ro_layout())
