"""Tests for built-in reductions over iterative expressions (§IV-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chapel.expr import ArrayRef, BinOpExpr
from repro.chapel.forall import reduce_expr
from repro.chapel.types import REAL, array_of
from repro.chapel.values import ChapelArray
from repro.compiler.exprreduce import compile_reduce_expr
from repro.compiler.native import probe_toolchain
from repro.freeride.runtime import FreerideEngine
from repro.util.errors import CompilerError

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)
#: every tier, native only where a C toolchain is usable
BACKENDS = ["scalar", "batch", pytest.param("native", marks=needs_cc)]
AVAILABLE = ["scalar", "batch"] + (["native"] if probe_toolchain()["ok"] else [])
ALL_OPS = ["+", "min", "max", "minloc", "maxloc"]


def chapel(vals):
    return ChapelArray(array_of(REAL, len(vals))).fill_from(vals)


class TestPaperExample:
    """`min reduce A+B`: the paper's own example of a general reduction."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_min_reduce_a_plus_b(self, backend):
        A = ArrayRef(chapel([3.0, 1.0, 5.0, 2.0]))
        B = ArrayRef(chapel([2.0, 9.0, 0.0, 2.5]))
        job = compile_reduce_expr("min", A + B, backend=backend)
        assert job.effective_backend == backend
        assert job.result_value() == 4.5  # sums: 5, 10, 5, 4.5
        # and it agrees with the pure-Chapel semantics
        A2 = ArrayRef(chapel([3.0, 1.0, 5.0, 2.0]))
        B2 = ArrayRef(chapel([2.0, 9.0, 0.0, 2.5]))
        assert job.result_value() == reduce_expr("min", A2 + B2)


class TestStrategiesAndThreads:
    @pytest.mark.parametrize("op,ref", [("+", np.sum), ("min", np.min), ("max", np.max)])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", [1, 4])
    def test_ops_match_numpy(self, op, ref, backend, threads):
        rng = np.random.default_rng(5)
        a = rng.uniform(-10, 10, 257)
        b = rng.uniform(-10, 10, 257)
        expr = ArrayRef(a) * 2.0 - ArrayRef(b)
        job = compile_reduce_expr(op, expr, backend=backend)
        got = job.result_value(FreerideEngine(num_threads=threads))
        assert got == pytest.approx(float(ref(a * 2.0 - b)))

    def test_scalar_and_vectorized_agree(self):
        """Every tier gives the scalar tier's bits on one thread: the batch
        (vectorized) and native tiers run the same compiled class."""
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(100_000), rng.standard_normal(100_000)
        engine = FreerideEngine(num_threads=1, chunk_size=4096)
        for op in ALL_OPS:
            got = {
                backend: compile_reduce_expr(
                    op, -(ArrayRef(a) + ArrayRef(b)) * 3.0, backend=backend
                ).result_value(engine)
                for backend in AVAILABLE
            }
            assert len(set(got.values())) == 1, (op, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_elements_are_skipped(self, backend):
        """`min`/`minloc` ignore NaN elements on every tier, as the scalar
        tier's `value < best` does."""
        a = np.array([3.0, np.nan, 1.0, np.nan])
        for threads in (1, 3):
            engine = FreerideEngine(num_threads=threads, chunk_size=1)
            assert compile_reduce_expr("min", a, backend).result_value(engine) == 1.0
            assert compile_reduce_expr("minloc", a, backend).result_value(engine) == (1.0, 2)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op,want", [("+", 0.0), ("min", np.inf), ("minloc", (np.inf, 0))])
    def test_empty_input_gives_identity(self, op, want, backend):
        assert compile_reduce_expr(op, np.zeros(0), backend).result_value() == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_finite_constants(self, backend):
        a = ArrayRef(np.arange(4.0))
        assert np.isnan(compile_reduce_expr("+", a + float("nan"), backend).result_value())
        assert compile_reduce_expr("min", a - float("inf"), backend).result_value() == -np.inf

    def test_bare_arrays_accepted(self):
        a = np.arange(10, dtype=np.float64)
        assert compile_reduce_expr("+", a).result_value() == 45.0
        assert compile_reduce_expr("+", chapel([1.0, 2.0])).result_value() == 3.0

    def test_multidim_expression(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        b = np.ones((3, 4))
        job = compile_reduce_expr("+", ArrayRef(a) + ArrayRef(b))
        assert job.result_value() == float((a + b).sum())

    def test_one_kernel_serves_every_length(self):
        short = compile_reduce_expr("max", ArrayRef(np.ones(3)) + 2.0)
        long = compile_reduce_expr("max", ArrayRef(np.zeros(300)) + 2.0)
        assert short.bound.compiled is long.bound.compiled


class TestCounters:
    def test_linearization_charged_per_leaf(self):
        a, b = np.zeros(50), np.zeros(50)
        job = compile_reduce_expr("+", ArrayRef(a) + ArrayRef(b))
        assert job.counters.bytes_linearized == 2 * 50 * 8

    def test_counters_equal_across_backends(self):
        a = np.zeros(40)
        counters = []
        for backend in AVAILABLE:
            job = compile_reduce_expr("+", ArrayRef(a), backend=backend)
            job.run(FreerideEngine(num_threads=4))
            counters.append(job.counters.as_dict())
        assert counters[0]["linear_reads"] == 40
        assert counters[0]["ro_updates"] == 40
        assert all(c == counters[0] for c in counters)


class TestValidation:
    def test_unknown_op(self):
        with pytest.raises(ValueError):
            compile_reduce_expr("xor", np.zeros(3))

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            compile_reduce_expr("+", np.zeros(3), backend="gpu")

    def test_unreducible(self):
        with pytest.raises(CompilerError):
            compile_reduce_expr("+", {"not": "an array"})

    def test_power_is_not_mini_chapel(self):
        a = ArrayRef(np.ones(3))
        with pytest.raises(CompilerError, match=r"\*\*"):
            compile_reduce_expr("+", BinOpExpr("**", a, a))

    def test_composite_element_arrays_rejected(self):
        from repro.chapel.domains import Domain
        from repro.chapel.types import ArrayType, record

        P = record("P", x=REAL)
        arr = ChapelArray(ArrayType(Domain(3), P))
        with pytest.raises(CompilerError):
            compile_reduce_expr("+", ArrayRef(arr))


class TestProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        vals=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=80,
        ),
        op=st.sampled_from(["+", "min", "max"]),
        threads=st.integers(1, 6),
    )
    def test_matches_chapel_semantics(self, vals, op, threads):
        arr = np.array(vals)
        job = compile_reduce_expr(op, ArrayRef(arr) + 1.0)
        got = job.result_value(FreerideEngine(num_threads=threads))
        want = reduce_expr(op, ArrayRef(arr) + 1.0, num_tasks=threads)
        assert got == pytest.approx(want, rel=1e-12)


class TestLocReductions:
    """minloc/maxloc reduce — the (value, index) record case of §IV-B."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_minloc_matches_numpy(self, threads):
        rng = np.random.default_rng(17)
        a = rng.uniform(-100, 100, 333)
        job = compile_reduce_expr("minloc", a)
        value, loc = job.result_value(FreerideEngine(num_threads=threads))
        assert loc == int(np.argmin(a))
        assert value == float(a.min())

    @pytest.mark.parametrize("threads", [1, 3])
    def test_maxloc_over_expression(self, threads):
        rng = np.random.default_rng(18)
        a = rng.uniform(0, 1, 100)
        b = rng.uniform(0, 1, 100)
        from repro.chapel.expr import ArrayRef

        job = compile_reduce_expr("maxloc", ArrayRef(a) + ArrayRef(b))
        value, loc = job.result_value(FreerideEngine(num_threads=threads))
        assert loc == int(np.argmax(a + b))
        assert value == pytest.approx(float((a + b).max()))

    def test_first_minimum_wins(self):
        a = np.array([3.0, 1.0, 1.0, 5.0])
        _, loc = compile_reduce_expr("minloc", a).result_value()
        assert loc == 1  # numpy argmin tie-break: first occurrence

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op", ["minloc", "maxloc"])
    def test_lowest_tied_index_wins_on_every_lane_layout(self, op, backend):
        a = np.tile([2.0, 0.0, 1.0, 0.0, 2.0], 40)
        want = (0.0, 1) if op == "minloc" else (2.0, 0)
        job = compile_reduce_expr(op, a, backend=backend)
        for threads, chunk in ((1, None), (3, 7), (4, 1)):
            engine = FreerideEngine(num_threads=threads, chunk_size=chunk)
            assert job.result_value(engine) == want

    def test_chunked_runs_agree(self):
        rng = np.random.default_rng(19)
        a = rng.uniform(-5, 5, 200)
        ref = compile_reduce_expr("minloc", a).result_value()
        chunked = compile_reduce_expr("minloc", a).result_value(
            FreerideEngine(num_threads=3, chunk_size=7)
        )
        assert chunked == ref

    def test_locking_matches_replication(self):
        """No value/index pair has to update atomically any more: each pass
        is one `roMin`, which every technique serves."""
        a = np.random.default_rng(20).standard_normal(500)
        job = compile_reduce_expr("minloc", a)
        want = job.result_value(FreerideEngine(num_threads=2, technique="full_replication"))
        got = job.result_value(
            FreerideEngine(num_threads=2, technique="cache_sensitive_locking")
        )
        assert got == want == (float(a.min()), int(np.argmin(a)))

    def test_matches_chapel_minloc_semantics(self):
        from repro.chapel.forall import reduce_expr as chapel_reduce

        a = np.array([4.0, -2.0, 7.0, -2.0])
        value, loc = compile_reduce_expr("minloc", a).result_value()
        want_value, want_loc = chapel_reduce(
            "minloc", list(zip(a, range(len(a))))
        )
        assert (value, loc) == (want_value, want_loc)


class TestEngineOwnership:
    """A job run without an engine opens one for the call and closes it; an
    engine the caller passed stays open."""

    @pytest.fixture
    def engines(self, monkeypatch):
        """Engines the job module builds, and how many of them were closed."""
        import repro.compiler.exprreduce as exprreduce

        seen = {"opened": 0, "closed": 0}

        class Counted(FreerideEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen["opened"] += 1

            def close(self):
                if not self._closed:
                    seen["closed"] += 1
                super().close()

        monkeypatch.setattr(exprreduce, "FreerideEngine", Counted)
        return seen

    @pytest.mark.parametrize("op", ["min", "minloc"])
    def test_an_engine_of_its_own_is_closed(self, op, engines):
        a = np.array([4.0, -2.0, 7.0, -2.0])
        job = compile_reduce_expr(op, a)
        assert job.result_value() == (-2.0 if op == "min" else (-2.0, 1))
        # one engine per call, for both passes of a location reduction
        assert engines == {"opened": 1, "closed": 1}

    @pytest.mark.parametrize("op", ["min", "minloc"])
    def test_a_callers_engine_stays_open(self, op, engines):
        job = compile_reduce_expr(op, np.array([4.0, -2.0, 7.0, -2.0]))
        with FreerideEngine() as engine:
            first = job.result_value(engine)
            assert job.result_value(engine) == first  # a closed engine refuses
        assert engines == {"opened": 0, "closed": 0}
