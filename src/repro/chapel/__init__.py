"""Mini-Chapel substrate: types, domains, values, reductions, expressions.

This subpackage stands in for the Chapel language/runtime in the paper.  It
models exactly the surface the Chapel-to-FREERIDE translation consumes:
nested data structures (arrays/records/tuples over primitives), the
``ReduceScanOp`` reduction-class protocol, reduce/scan expressions over
arrays and iterative expressions, and (in :mod:`repro.chapel.parser`) a
textual frontend for the reduction-class subset shown in the paper's
Figures 2 and 3.
"""

from repro.chapel.domains import Domain, Range
from repro.chapel.expr import ArrayRef, BinOpExpr, IterExpr, UnaryOpExpr, as_expr
from repro.chapel.forall import forall, reduce_expr, scan_expr, split_evenly
from repro.chapel.reduce_op import (
    REDUCE_OPS,
    BitwiseAndReduceScanOp,
    BitwiseOrReduceScanOp,
    BitwiseXorReduceScanOp,
    LogicalAndReduceScanOp,
    LogicalOrReduceScanOp,
    MaxLocReduceScanOp,
    MaxReduceScanOp,
    MinLocReduceScanOp,
    MinReduceScanOp,
    ProductReduceScanOp,
    ReduceScanOp,
    SumReduceScanOp,
    get_reduce_op,
    register_reduce_op,
)
from repro.chapel.types import (
    BOOL,
    INT,
    INT32,
    REAL,
    REAL32,
    UINT,
    ArrayType,
    ChapelType,
    EnumType,
    PrimitiveType,
    RecordType,
    ScalarSlot,
    StringType,
    TupleType,
    array_of,
    record,
    scalar_layout,
)
from repro.chapel.userdef import reduce_op_from_source
from repro.chapel.values import (
    ChapelArray,
    ChapelRecord,
    ChapelTuple,
    default_value,
    from_python,
    get_path,
    set_path,
    to_python,
)

__all__ = [
    # domains
    "Domain",
    "Range",
    # types
    "ChapelType",
    "PrimitiveType",
    "StringType",
    "EnumType",
    "ArrayType",
    "RecordType",
    "TupleType",
    "ScalarSlot",
    "INT",
    "INT32",
    "UINT",
    "REAL",
    "REAL32",
    "BOOL",
    "array_of",
    "record",
    "scalar_layout",
    # values
    "ChapelArray",
    "ChapelRecord",
    "ChapelTuple",
    "default_value",
    "from_python",
    "to_python",
    "get_path",
    "set_path",
    # expressions
    "IterExpr",
    "ArrayRef",
    "BinOpExpr",
    "UnaryOpExpr",
    "as_expr",
    # reductions
    "ReduceScanOp",
    "SumReduceScanOp",
    "ProductReduceScanOp",
    "MinReduceScanOp",
    "MaxReduceScanOp",
    "MinLocReduceScanOp",
    "MaxLocReduceScanOp",
    "LogicalAndReduceScanOp",
    "LogicalOrReduceScanOp",
    "BitwiseAndReduceScanOp",
    "BitwiseOrReduceScanOp",
    "BitwiseXorReduceScanOp",
    "REDUCE_OPS",
    "get_reduce_op",
    "register_reduce_op",
    "reduce_op_from_source",
    # evaluation
    "reduce_expr",
    "scan_expr",
    "forall",
    "split_evenly",
]
