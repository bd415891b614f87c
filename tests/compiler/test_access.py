"""Unit tests for access paths."""

import pytest

from repro.chapel.domains import Domain
from repro.chapel.types import INT, REAL, ArrayType, array_of, record
from repro.compiler.access import AccessPath, FieldStep, IndexStep
from repro.util.errors import MappingError


def paper_types(t=2, n=3, m=4):
    """The Figure 6 structure: data: [1..t] B, B{b1:[1..n]A, b2}, A{a1:[1..m]real, a2}."""
    A = record("A", a1=array_of(REAL, m), a2=INT)
    B = record("B", b1=ArrayType(Domain(n), A), b2=INT)
    return ArrayType(Domain(t), B), A, B


class TestParse:
    def test_paper_path(self):
        p = AccessPath.parse("[i].b1[j].a1[k]")
        assert p.levels == 3
        assert p.index_vars == (("i",), ("j",), ("k",))
        assert str(p) == "[i].b1[j].a1[k]"

    def test_leading_root_name_allowed(self):
        p = AccessPath.parse("data[i].b1[j].a1[k]")
        assert p.levels == 3

    def test_multidim_step(self):
        p = AccessPath.parse("[r, c]")
        assert p.levels == 1
        assert p.index_vars == (("r", "c"),)
        assert p.flat_index_vars == ("r", "c")

    def test_trailing_field(self):
        p = AccessPath.parse("[i].b2")
        assert p.levels == 1

    def test_garbage_rejected(self):
        with pytest.raises(MappingError):
            AccessPath.parse("[i]..b")
        with pytest.raises(MappingError):
            AccessPath.parse("[1]")

    def test_must_start_with_index(self):
        with pytest.raises(MappingError):
            AccessPath.parse(".b1[i]")
        with pytest.raises(MappingError):
            AccessPath((FieldStep("x"),))

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            AccessPath(())


class TestStructure:
    def test_index_step_var_accessor(self):
        assert IndexStep("i").var == "i"
        with pytest.raises(MappingError):
            IndexStep(("r", "c")).var


class TestTypeWalking:
    def test_paper_path_types(self):
        data_t, A, B = paper_types()
        p = AccessPath.parse("[i].b1[j].a1[k]")
        assert p.result_type(data_t) is REAL
        assert p.validate_scalar(data_t) is REAL

    def test_trailing_field_type(self):
        data_t, A, B = paper_types()
        assert AccessPath.parse("[i].b2").result_type(data_t) is INT

    def test_index_of_non_array(self):
        data_t, *_ = paper_types()
        with pytest.raises(MappingError):
            AccessPath.parse("[i].b2[j]").result_type(data_t)

    def test_field_of_non_record(self):
        data_t, *_ = paper_types()
        with pytest.raises(MappingError):
            AccessPath.parse("[i].b1[j].a1[k].oops").result_type(data_t)

    def test_unknown_field(self):
        data_t, *_ = paper_types()
        with pytest.raises(Exception):
            AccessPath.parse("[i].nope").result_type(data_t)

    def test_rank_mismatch(self):
        mat = array_of(REAL, 3, 4)
        with pytest.raises(MappingError):
            AccessPath.parse("[i]").validate_scalar(mat)
        assert AccessPath.parse("[i, j]").validate_scalar(mat) is REAL

    def test_non_scalar_end_rejected(self):
        data_t, *_ = paper_types()
        with pytest.raises(MappingError):
            AccessPath.parse("[i].b1").validate_scalar(data_t)
