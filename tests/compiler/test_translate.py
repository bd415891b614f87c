"""End-to-end translator tests: Chapel source -> FREERIDE run == oracle."""

import numpy as np
import pytest

from repro.chapel.parser import parse_program
from repro.compiler import (
    compile_all_versions,
    compile_reduction,
    interpret_over,
)
from repro.compiler.linearize import LinearizedBuffer
from repro.freeride.runtime import FreerideEngine
from repro.util.errors import CompilerError

from .conftest import KMEANS_SOURCE, SUM_SOURCE


def run_version(comp, data, extras, ro_layout, threads=1, **engine_kw):
    bound = comp.bind(data, extras)
    spec, idx = bound.make_spec(ro_layout)
    result = FreerideEngine(num_threads=threads, **engine_kw).run(spec, idx)
    return result, bound


def groups_of(ro):
    return [list(g) for _, g in ro.groups()]


class TestKmeansAllVersions:
    @pytest.fixture(autouse=True)
    def setup(self, kmeans_setup):
        self.cfg = kmeans_setup
        self.versions = compile_all_versions(
            self.cfg["source"], self.cfg["constants"]
        )
        self.reference = interpret_over(
            self.versions["generated"].lowered,
            self.cfg["data"],
            {"centroids": self.cfg["centroids"]},
            self.cfg["ro_layout"],
        )

    @pytest.mark.parametrize("version", ["generated", "opt-1", "opt-2"])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_matches_interpreter_oracle(self, version, threads):
        result, _ = run_version(
            self.versions[version],
            self.cfg["data"],
            {"centroids": self.cfg["centroids"]},
            self.cfg["ro_layout"],
            threads=threads,
        )
        for got, want in zip(groups_of(result.ro), groups_of(self.reference)):
            assert np.allclose(got, want)

    def test_counter_profile_shapes(self):
        """The §V overhead structure: index calls shrink with opt-1,
        nested reads disappear with opt-2."""
        counters = {}
        for name, comp in self.versions.items():
            _, bound = run_version(
                comp,
                self.cfg["data"],
                {"centroids": self.cfg["centroids"]},
                self.cfg["ro_layout"],
            )
            counters[name] = bound.counters
        gen, o1, o2 = counters["generated"], counters["opt-1"], counters["opt-2"]
        assert o1.index_calls < gen.index_calls
        assert gen.nested_reads == o1.nested_reads > 0
        assert o2.nested_reads == 0
        assert o2.linear_reads > o1.linear_reads  # centroid reads moved over
        assert gen.flops == o1.flops  # same arithmetic
        # opt-2 adds only the incremental base bumps (1 flop per c iteration)
        assert gen.flops <= o2.flops <= gen.flops * 1.25
        assert gen.ro_updates == o1.ro_updates == o2.ro_updates
        # opt-2 linearizes the centroids too
        assert o2.bytes_linearized > o1.bytes_linearized

    def test_version_names(self):
        assert self.versions["generated"].version_name == "generated"
        assert self.versions["opt-1"].version_name == "opt-1"
        assert self.versions["opt-2"].version_name == "opt-2"

    def test_c_source_reflects_plan(self):
        gen_c = self.versions["generated"].c_source
        o1_c = self.versions["opt-1"].c_source
        o2_c = self.versions["opt-2"].c_source
        assert "computeIndex" in gen_c and "hoisted" not in gen_c
        assert "hoisted (opt-1)" in o1_c
        assert "centroids[c].coord[d]" in o1_c  # still nested at opt-1
        assert "centroids[c].coord[d]" not in o2_c  # linearized at opt-2

    def test_describe(self):
        text = self.versions["opt-2"].describe()
        assert "opt-2" in text and "hoisted" in text


class TestSumScalarElements:
    def test_all_versions_sum(self):
        data = np.arange(100, dtype=np.float64)
        for name, comp in compile_all_versions(SUM_SOURCE, {}).items():
            result, _ = run_version(comp, data, {}, [(2, "add")], threads=3)
            assert result.ro.get(0, 0) == pytest.approx(float(data.sum()))
            assert result.ro.get(0, 1) == 100.0


class TestBinding:
    def make(self, level=0):
        return compile_reduction(SUM_SOURCE, {}, opt_level=level)

    def test_rebind_buffer_reuse(self):
        comp = self.make()
        data = np.arange(10, dtype=np.float64)
        b1 = comp.bind(data)
        assert b1.counters.bytes_linearized == 80
        # reuse the linearized buffer: no second linearization charge
        b2 = comp.bind(b1.data_buf, n_elements=b1.n_elements)
        assert b2.counters.bytes_linearized == 0
        spec, idx = b2.make_spec([(2, "add")])
        result = FreerideEngine().run(spec, idx)
        assert result.ro.get(0, 0) == 45.0

    def test_chapel_array_input(self, kmeans_setup):
        from repro.chapel.domains import Domain
        from repro.chapel.types import ArrayType
        from repro.chapel.values import from_python

        comp = compile_reduction(
            kmeans_setup["source"], kmeans_setup["constants"], opt_level=2
        )
        elem_t = comp.lowered.element_type
        data_np = kmeans_setup["data"][:10]
        dataset = from_python(
            ArrayType(Domain(10), elem_t), [list(row) for row in data_np]
        )
        bound_chapel = comp.bind(dataset, {"centroids": kmeans_setup["centroids"]})
        bound_numpy = comp.bind(data_np, {"centroids": kmeans_setup["centroids"]})
        s1, i1 = bound_chapel.make_spec(kmeans_setup["ro_layout"])
        s2, i2 = bound_numpy.make_spec(kmeans_setup["ro_layout"])
        r1 = FreerideEngine().run(s1, i1)
        r2 = FreerideEngine().run(s2, i2)
        assert groups_of(r1.ro) == groups_of(r2.ro)

    def test_update_extras_relinearizes(self, kmeans_setup):
        comp = compile_reduction(
            kmeans_setup["source"], kmeans_setup["constants"], opt_level=2
        )
        bound = comp.bind(
            kmeans_setup["data"], {"centroids": kmeans_setup["centroids"]}
        )
        before = bound.counters.bytes_linearized
        bound.update_extras({"centroids": kmeans_setup["centroids"]})
        assert bound.counters.bytes_linearized > before

    def test_missing_extras_rejected(self, kmeans_setup):
        comp = compile_reduction(
            kmeans_setup["source"], kmeans_setup["constants"], opt_level=0
        )
        with pytest.raises(CompilerError):
            comp.bind(kmeans_setup["data"], {})

    def test_wrong_numpy_shape_rejected(self, kmeans_setup):
        comp = compile_reduction(
            kmeans_setup["source"], kmeans_setup["constants"], opt_level=0
        )
        with pytest.raises(CompilerError):
            comp.bind(np.zeros((5, 7)), {"centroids": kmeans_setup["centroids"]})

    def test_buffer_size_mismatch_rejected(self):
        comp = self.make()
        bad = LinearizedBuffer(
            typ=comp.lowered.element_type, raw=np.zeros(12, dtype=np.uint8)
        )
        with pytest.raises(CompilerError):
            comp.bind(bad)


class TestMemberRootedExtras:
    SRC = """
    record Params { var scale: real; var offset: real; }
    class scaled : ReduceScanOp {
      var p: Params;
      def accumulate(x: real) {
        roAdd(0, 0, x * p.scale + p.offset);
      }
    }
    """

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_record_extra_all_levels(self, level):
        from repro.chapel.types import REAL, record
        from repro.chapel.values import from_python

        Params = record("Params", scale=REAL, offset=REAL)
        p = from_python(Params, {"scale": 2.0, "offset": 1.0})
        comp = compile_reduction(self.SRC, {}, opt_level=level)
        data = np.arange(10, dtype=np.float64)
        result, bound = run_version(comp, data, {"p": p}, [(1, "add")])
        assert result.ro.get(0, 0) == pytest.approx(float((data * 2 + 1).sum()))
        if level >= 2:
            assert bound.counters.nested_reads == 0
        else:
            assert bound.counters.nested_reads > 0


class TestRunSerial:
    def test_run_serial_with_bare_accessor(self):
        """BoundReduction.run_serial drives the kernel without the engine
        (used for quick checks and profiling)."""
        from repro.freeride.reduction_object import ReductionObject
        from repro.freeride.sharedmem import SharedMemManager, SharedMemTechnique

        comp = compile_reduction(SUM_SOURCE, {}, opt_level=1)
        data = np.arange(20, dtype=np.float64)
        bound = comp.bind(data)
        ro = ReductionObject()
        ro.alloc(2, "add")
        accessor = SharedMemManager(SharedMemTechnique.CACHE_SENSITIVE_LOCKING).setup(
            ro, 1
        )[0]
        bound.run_serial(accessor)
        assert ro.get(0, 0) == float(data.sum())
        assert ro.get(0, 1) == 20.0
