"""The builtin table, row by row, on every tier.

:mod:`repro.chapel.builtins` holds one row per operator and math builtin,
and every tier reads its meaning and spelling from there.  The parity
matrix: each row, on in-domain arguments of each argument-type
combination, leaves identical bits on the scalar, batch and native tiers,
the oracle (``interpret_over``) and a user-defined reduction op
(``reduce_op_from_source``), element by element.  One kernel per
combination holds every row, each writing its own RO element of the
element's own group, so the matrix costs four ``cc`` runs.
The tests are parametrized over the table's rows: a new row is covered
without a new test.  Domain edges (NaN through ``toInt``, ``sqrt(-1)``,
division by zero) are left out.

Arity is checked once, at lowering, so a builtin called with the wrong
number of arguments is refused the same on every tier.
"""

import itertools
import re
from functools import cache

import numpy as np
import pytest

from repro.chapel.builtins import CALLS, ROWS, UNARY
from repro.chapel.userdef import reduce_op_from_source
from repro.compiler.interp import interpret_over
from repro.compiler.native import probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import ChapelError, CompilerError

TIERS = ("scalar", "batch") + (("native",) if probe_toolchain()["ok"] else ())

#: Rows defined on booleans; their operands are comparisons of the data.
LOGICAL = {"&&", "||", "!"}
#: Rows whose domain is a half-line: every argument comes from column 3.
POSITIVE = {"sqrt", "log"}


def _dataset() -> np.ndarray:
    """Column 1 takes either sign, column 2 is at least 1 away from zero (a
    divisor, in ``toInt`` too) and column 3 is at least 1."""
    rng = np.random.default_rng(20)
    n = 48
    sign = rng.choice([-1.0, 1.0], n)
    return np.stack(
        [rng.uniform(-9, 9, n), sign * rng.uniform(1, 9, n), rng.uniform(1, 9, n)], axis=1
    )


DATA = _dataset()


def _operands(row, types):
    if row.name in LOGICAL:
        return ["b1", "b2"][: row.arity]
    columns = (3, 3) if row.name in POSITIVE else (1, 2)
    return [f"{t}{c}" for t, c in zip(types, columns)]


def _chapel(row, args):
    if CALLS.get(row.name) is row:
        return f"{row.name}({', '.join(args)})"
    if UNARY.get(row.name) is row:
        return f"({row.name}{args[0]})"
    return f"({args[0]} {row.name} {args[1]})"


#: The locals the operands name: ``i<c>``/``r<c>`` column ``c`` as an int or
#: a real, ``b1``/``b2`` two conditions.
_LOCALS = " ".join(
    [f"var i{c}: int = toInt(x[{c}]); var r{c}: real = x[{c}];" for c in (1, 2, 3)]
    + ["var b1: bool = x[1] < 0.0; var b2: bool = x[2] > x[1];"]
)


def _exprs(combo):
    """Every row's expression in the kernel of an argument-type combination
    (a unary row takes the combination's first type)."""
    return [_chapel(row, _operands(row, combo[: row.arity])) for row in ROWS]


@cache
def _results(combo):
    """tier -> the ``(element, row)`` values the combination's kernel leaves."""
    updates = " ".join(f"roAdd(elemIdx(), {k}, {e});" for k, e in enumerate(_exprs(combo)))
    source = (
        "class builtinMatrix : ReduceScanOp {\n"
        f"  def accumulate(x: [1..3] real) {{ {_LOCALS} {updates} }}\n}}\n"
    )
    layout = [(len(ROWS), "add")] * len(DATA)
    out = {}
    for backend in TIERS:
        compiled = compile_reduction(source, {}, 2, backend=backend)
        assert compiled.effective_backend == backend
        ro = ReductionObject()
        ro.alloc_many(layout)
        compiled.bind(DATA).run_serial(ro)
        out[backend] = ro.snapshot()
    out["oracle"] = interpret_over(compiled.lowered, DATA, {}, layout).snapshot()
    out["userdef"] = _userdef(combo)
    return out


def _userdef(combo):
    fields = " ".join(f"var s{k}: real = 0.0;" for k in range(len(ROWS)))
    sums = " ".join(f"s{k} = s{k} + {e};" for k, e in enumerate(_exprs(combo)))
    Op = reduce_op_from_source(
        f"class builtinOp : ReduceScanOp {{ {fields}\n"
        f"  def accumulate(x: [1..3] real) {{ {_LOCALS} {sums} }}\n"
        "  def combine(o: builtinOp) { }\n}\n"
    )
    values = []
    for element in DATA:
        op = Op()
        op.accumulate(element)
        values += [op._fields[f"s{k}"] for k in range(len(ROWS))]
    return np.array(values, dtype=np.float64)


def _cases():
    """``(row position, kernel combination)`` for every row and argument
    types: ``i`` int, ``r`` real (a logical row's operands are booleans)."""
    for k, row in enumerate(ROWS):
        if row.name in LOGICAL:
            yield pytest.param(k, ("i", "i"), id=f"{row.name}/bool")
            continue
        for types in itertools.product("ir", repeat=row.arity):
            yield pytest.param(k, (*types, "i")[:2], id=f"{row.name}/{''.join(types)}")


@pytest.mark.parametrize("k,combo", _cases())
def test_every_row_gives_the_same_bits_on_every_tier(k, combo):
    columns = {tier: got.reshape(len(DATA), -1)[:, k] for tier, got in _results(combo).items()}
    scalar = columns.pop("scalar")
    for tier, column in columns.items():
        differ = np.flatnonzero(column.view(np.int64) != scalar.view(np.int64))
        assert differ.size == 0, (tier, DATA[differ[:3]], column[differ[:3]], scalar[differ[:3]])


# ------------------------------------------------------------------- arity

#: Calls with the wrong argument count, and the refusal each gets.
WRONG_ARITY = [
    ("abs(x[1], 10.0)", "abs takes 1 argument; got 2"),
    ("sqrt()", "sqrt takes 1 argument; got 0"),
    ("toInt(x[1], 3.0)", "toInt takes 1 argument; got 2"),
    ("min(x[1])", "min takes 2 or more arguments; got 1"),
]


@pytest.mark.parametrize("backend", ["scalar", "batch", "native"])
@pytest.mark.parametrize("call,refusal", WRONG_ARITY)
def test_lowering_refuses_a_builtin_with_the_wrong_arity(call, refusal, backend):
    source = (
        "class arity : ReduceScanOp {\n"
        f"  def accumulate(x: [1..2] real) {{ roAdd(0, 0, {call}); }}\n}}\n"
    )
    with pytest.raises(CompilerError, match=re.escape(refusal)):
        compile_reduction(source, {}, 2, backend=backend)


@pytest.mark.parametrize("call,refusal", WRONG_ARITY)
def test_a_user_defined_op_refuses_the_same_calls(call, refusal):
    op = reduce_op_from_source(
        "class arity : ReduceScanOp { var value: real = 0.0;\n"
        f"  def accumulate(x: [1..2] real) {{ value = value + {call}; }}\n"
        "  def combine(o: arity) { value = value + o.value; }\n}\n"
    )()
    with pytest.raises(ChapelError, match=re.escape(refusal)):
        op.accumulate(np.array([-2.5, 3.0]))


# ---------------------------------------------------- variadic min and max

VARIADIC = """
class extremes : ReduceScanOp {
  def accumulate(x: [1..2] real) {
    roAdd(0, 0, max(x[1], 1.0, x[2]));
    roAdd(0, 1, min(x[2], x[1], 2.0, x[1]));
    roAdd(0, 2, max(toInt(x[1]), 0, toInt(x[2])));
  }
}
"""


def test_min_and_max_of_three_or_more_give_the_same_bits_on_every_tier():
    data = np.array([[-2.5, 3.0], [4.0, -1.5], [0.5, 0.25], [1.5, 7.0]])
    got = {}
    for backend in TIERS:
        compiled = compile_reduction(VARIADIC, {}, 2, backend=backend)
        assert compiled.effective_backend == backend
        ro = ReductionObject()
        ro.alloc(3, "add")
        compiled.bind(data).run_serial(ro)
        got[backend] = ro.get_group(0)
    got["oracle"] = interpret_over(compiled.lowered, data, {}, [(3, "add")]).get_group(0)
    expected = [
        sum(max(a, 1.0, b) for a, b in data),
        sum(min(b, a, 2.0, a) for a, b in data),
        sum(max(int(a), 0, int(b)) for a, b in data),
    ]
    for tier, values in got.items():
        assert values.tolist() == expected, tier


# ------------------------------------------- logical rows on numeric operands

#: ``&&``, ``||`` and ``!`` over reals: each is a truth value, 1 or 0,
#: whatever the operands' magnitude (Python's ``and``/``or`` would return an
#: operand instead).
NUMERIC_LOGIC = [
    ("x[1] && x[2]", [1.0, 0.0, 0.0, 1.0]),
    ("x[1] || x[2]", [1.0, 1.0, 1.0, 1.0]),
    ("!x[1]", [0.0, 1.0, 0.0, 0.0]),
    ("(x[1] && x[2]) * 3.0 + (x[2] || x[1])", [4.0, 1.0, 1.0, 4.0]),
]


@pytest.mark.parametrize("expr,expected", NUMERIC_LOGIC, ids=[e for e, _ in NUMERIC_LOGIC])
def test_logical_rows_over_numbers_give_truth_values_on_every_tier(expr, expected):
    data = np.array([[2.5, 3.0], [0.0, -1.5], [-2.0, 0.0], [-0.5, 7.0]])
    source = (
        "class numericLogic : ReduceScanOp {\n"
        f"  def accumulate(x: [1..2] real) {{ roAdd(elemIdx(), 0, {expr}); }}\n}}\n"
    )
    layout = [(1, "add")] * len(data)
    got = {}
    for backend in TIERS:
        compiled = compile_reduction(source, {}, 2, backend=backend)
        assert compiled.effective_backend == backend
        ro = ReductionObject()
        ro.alloc_many(layout)
        compiled.bind(data).run_serial(ro)
        got[backend] = ro.snapshot()
    got["oracle"] = interpret_over(compiled.lowered, data, {}, layout).snapshot()
    for tier, values in got.items():
        assert values.tolist() == expected, tier
