"""Tests for the process-wide compiled-kernel cache."""

import pickle

import numpy as np
import pytest

from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.compiler.cache import (
    CompileRequest,
    clear_kernel_cache,
    compile_cached,
    kernel_cache_stats,
    program_digest,
)
from repro.compiler.pipeline import compile_all_versions
from repro.util.errors import CompilerError

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

    def test_numpy_and_python_scalars_share_one_entry(self):
        """Equal values are one request whatever type spelled them: one
        kernel-cache entry, one profile-store key for the program."""
        a = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2)
        b = compile_cached(
            HISTOGRAM_CHAPEL_SOURCE,
            {"bins": np.int64(4), "lo": np.float64(0.0), "width": np.float32(0.25)},
            2,
        )
        assert b is a
        assert b.request.constants == CONSTS
        assert all(type(v) in (int, float) for v in b.request.constants.values())
        stats = kernel_cache_stats()
        assert (stats["entries"], stats["misses"], stats["hits"]) == (1, 1, 1)

    def test_array_constant_is_refused_before_any_cache_is_consulted(self):
        """A digest must pin the value it stands for.  An array's text does
        not (NumPy elides the middle of a long one, so these two would digest
        equally and share a kernel), nor does an object's default repr."""
        a = np.zeros(5000)
        b = a.copy()
        b[2500] = 1.0
        for consts in ({**CONSTS, "w": a}, {**CONSTS, "w": b}, {"w": [1, object()]}):
            with pytest.raises(CompilerError, match="constant 'w'"):
                compile_cached(HISTOGRAM_CHAPEL_SOURCE, consts, 2)
            with pytest.raises(CompilerError, match="constant 'w'"):
                program_digest(HISTOGRAM_CHAPEL_SOURCE, consts)
        assert kernel_cache_stats()["misses"] == 0

    def test_request_is_one_picklable_value_with_one_key(self):
        compiled = compile_cached(HISTOGRAM_CHAPEL_SOURCE, CONSTS, 2, backend="batch")
        request = compiled.request
        assert request == CompileRequest(
            HISTOGRAM_CHAPEL_SOURCE, CONSTS, None, 2, "batch"
        )
        assert request.digest == program_digest(HISTOGRAM_CHAPEL_SOURCE, CONSTS)
        assert request.key == (request.digest, 2, "batch")
        assert (compiled.opt_level, compiled.backend) == (2, "batch")
        shipped = pickle.loads(pickle.dumps(request))
        assert shipped == request and shipped.key == request.key
        assert shipped.compile() is compiled  # a worker's lookup: same entry
        # nested sequences of scalars are values too, tuples and lists alike
        nested = CompileRequest("x", {"shape": [np.int64(2), (3, 4.5)]})
        assert nested.constants == {"shape": (2, (3, 4.5))}
        assert nested.digest == program_digest("x", {"shape": (2, [3, 4.5])})

    def test_app_kernel_digests_are_pinned(self):
        """Profile stores are keyed on these: normalising the constants must
        not move the digest of any request the apps make (values from the
        parent commit's ``program_digest``)."""
        from tests.compiler.test_native import APP_KERNELS

        got = {
            app: CompileRequest(source, constants).digest[:16]
            for app, (source, constants) in APP_KERNELS.items()
        }
        assert got == {
            "apriori": "dc3b4c184f3c15db",
            "em": "971c593138b48043",
            "histogram": "c25c6c43b23ce8fe",
            "kmeans": "eb5110dad51d5002",
            "pca_cov": "02aa83af071722d1",
            "pca_mean": "0f004a3762c02b05",
            "windowed": "2b295a04bd74f3ef",
        }


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

