"""The one table of mini-Chapel's operators and math builtins.

A :class:`Builtin` row says everything a tier needs to know about one
binary operator, unary operator or math builtin: how many arguments it
takes, what it computes on Python values (the evaluator calls it, the
scalar kernel reads it from its env, batch calls it on a lane-invariant
value), the type of its result, and how the scalar, batch and native
printers spell it.  Lowering checks a call's argument count here, the
effect analysis applies the row's abstract transfer, and no other module
branches on an operator's or a builtin's name.

A spelling is a :meth:`str.format` template over the argument texts
``{0}``, ``{1}``.  A variadic row (``min``, ``max``) takes ``arity`` or
more arguments, and every tier folds it over them pairwise, left to right.
A C spelling names the helpers it needs as fields, ``{sqrt}`` or
``{_imod}``: keys of :data:`C_LIBM` or :data:`C_HELPERS`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from string import Formatter
from typing import Any, Callable, Sequence

import numpy as np

from repro.chapel import ast as A

__all__ = [
    "Builtin", "BINARY", "UNARY", "CALLS", "ROWS", "SCALAR_ENV", "C_LIBM", "C_HELPERS",
    "lookup", "c_helpers",
]


@dataclass(frozen=True)
class Builtin:
    """One row of the table (module docstring)."""

    #: the Chapel spelling: ``+``, ``!``, ``sqrt``
    name: str
    #: the argument count; a ``variadic`` row takes this many or more
    arity: int
    #: the meaning on Python values
    py: Callable[..., Any]
    #: the result type: ``"real"``, ``"int"``, or ``"join"`` — real when any
    #: argument is real (for one argument, that argument's type)
    result: str
    #: the scalar kernel's Python template; ``_<name>(...)`` calls a local the
    #: kernel binds from ``_env[name]`` (:data:`SCALAR_ENV`)
    scalar: str
    #: the native C template, or ``(over int arguments, over real arguments)``
    #: where it depends on the join of the argument types
    c: str | tuple[str, str]
    #: the effect analysis's abstract transfer (``analysis.effects``)
    effect: str
    #: the batch kernel's template, when not the scalar one; a function it
    #: calls is :meth:`lift`'s
    batch: str | None = None
    #: what that function computes on lane arrays
    lane: Callable[..., Any] | None = None
    variadic: bool = False

    def check(self, n: int, error: type[Exception]) -> None:
        """Refuse a call with ``n`` arguments, raising ``error``."""
        if n != self.arity and not (self.variadic and n > self.arity):
            takes = f"{self.arity} or more" if self.variadic else str(self.arity)
            plural = "" if takes == "1" else "s"
            raise error(f"{self.name} takes {takes} argument{plural}; got {n}")

    def apply(self, fn: Callable[..., Any], args: Sequence[Any]) -> Any:
        """``fn`` over ``args``; a variadic row's is a left fold of pairs."""
        return reduce(fn, args) if self.variadic else fn(*args)

    def spell(self, template: str, args: Sequence[str], **helpers: str) -> str:
        """``template`` over the argument texts."""
        return self.apply(lambda *a: template.format(*a, **helpers), args)

    def lift(self) -> Callable[..., Any]:
        """The batch kernel's function: :attr:`lane` when any argument is a
        lane array, else :attr:`py` (a lane-invariant value keeps ``math``'s
        behaviour)."""
        lane, py = self.lane, self.py

        def lifted(*args: Any) -> Any:
            for a in args:
                if isinstance(a, np.ndarray):
                    return lane(*args)
            return py(*args)

        return lifted


def _per_lane(fn: Callable[[float], float], edge: Callable[[Any], Any]) -> Callable:
    """``fn`` lane by lane, for libm's own bits: NumPy's SIMD ``exp``/``log``
    round some arguments differently.  A lane ``fn`` refuses (the garbage of
    a masked-off lane) gets ``edge``'s value instead of raising."""

    def one(v: float) -> float:
        try:
            return fn(v)
        except (ValueError, OverflowError):
            return float(edge(v))

    each = np.frompyfunc(one, 1, 1)
    return lambda x: each(x).astype(np.float64)


def _infix(op: str, py: Callable, result: str, effect: str,
           c: str | tuple[str, str] = "") -> Builtin:
    spelled = f"({{0}} {op} {{1}})"
    return Builtin(op, 2, py, result, spelled, c or spelled, effect)


def _math(name: str, py: Callable, result: str, effect: str, c: str | tuple[str, str],
          lane: Callable) -> Builtin:
    return Builtin(name, 1, py, result, f"_{name}({{0}})", c, effect, f"_v{name}({{0}})", lane)


BINARY: dict[str, Builtin] = {r.name: r for r in (
    _infix("+", operator.add, "join", "add"),
    _infix("-", operator.sub, "join", "sub"),
    _infix("*", operator.mul, "join", "mul"),
    _infix("/", operator.truediv, "real", "div", "((double)({0}) / (double)({1}))"),
    _infix("%", operator.mod, "join", "mod",
           ("{_imod}({0}, {1})", "{_fmodpy}((double)({0}), (double)({1}))")),
    _infix("==", operator.eq, "int", "bool"),
    _infix("!=", operator.ne, "int", "bool"),
    _infix("<", operator.lt, "int", "bool"),
    _infix("<=", operator.le, "int", "bool"),
    _infix(">", operator.gt, "int", "bool"),
    _infix(">=", operator.ge, "int", "bool"),
    Builtin("&&", 2, lambda a, b: bool(a) and bool(b), "int", "(bool({0}) and bool({1}))",
            "({0} && {1})", "bool", "_land({0}, {1})", np.logical_and),
    Builtin("||", 2, lambda a, b: bool(a) or bool(b), "int", "(bool({0}) or bool({1}))",
            "({0} || {1})", "bool", "_lor({0}, {1})", np.logical_or),
)}

UNARY: dict[str, Builtin] = {r.name: r for r in (
    Builtin("-", 1, operator.neg, "join", "(-{0})", "(-({0}))", "neg"),
    Builtin("!", 1, operator.not_, "int", "(not {0})", "(!({0}))", "bool",
            "_lnot({0})", np.logical_not),
)}

CALLS: dict[str, Builtin] = {r.name: r for r in (
    Builtin("abs", 1, abs, "join", "abs({0})", ("{_absll}({0})", "{fabs}({0})"), "abs"),
    _math("sqrt", math.sqrt, "real", "nonneg", "{sqrt}((double)({0}))", np.sqrt),
    Builtin("min", 2, min, "join", "min({0}, {1})",
            ("{_minll}(({0}), ({1}))", "{_mind}((double)({0}), (double)({1}))"), "min",
            "_vmin({0}, {1})", np.minimum, variadic=True),
    Builtin("max", 2, max, "join", "max({0}, {1})",
            ("{_maxll}(({0}), ({1}))", "{_maxd}((double)({0}), (double)({1}))"), "max",
            "_vmax({0}, {1})", np.maximum, variadic=True),
    # math.floor of an int is the int itself; a C cast truncates like int()
    _math("floor", math.floor, "int", "floor", ("({0})", "((long long){floor}({0}))"),
          np.floor),
    Builtin("toInt", 1, int, "int", "int({0})", ("({0})", "((long long)({0}))"), "toint",
            "_toint({0})", lambda x: x.astype(np.int64)),
    _math("exp", math.exp, "real", "nonneg", "{exp}((double)({0}))",
          _per_lane(math.exp, np.exp)),
    _math("log", math.log, "real", "real", "{log}((double)({0}))",
          _per_lane(math.log, np.log)),
)}

#: Every row, binary operators first.
ROWS: tuple[Builtin, ...] = (*BINARY.values(), *UNARY.values(), *CALLS.values())

#: The builtins the scalar kernel calls through a local ``_<name>`` bound
#: from its env, which :meth:`CompiledReduction.bind` fills from here.
SCALAR_ENV: dict[str, Callable[..., Any]] = {
    r.name: r.py for r in CALLS.values() if r.scalar.startswith(f"_{r.name}(")
}

#: The libm functions the C spellings call, declared rather than included.
C_LIBM: dict[str, str] = {
    name: f"double {name}(double);" for name in ("sqrt", "exp", "log", "floor", "fabs")
}

#: The static C helpers the C spellings call.
C_HELPERS: dict[str, str] = {
    "_imod": """static long long _imod(long long a, long long b) {
    long long r; if (b == 0) return 0; r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b; return r;
}""",
    "_fmodpy": """double fmod(double, double);
static double _fmodpy(double a, double b) {
    double r = fmod(a, b);
    if (r != 0.0 && ((r < 0.0) != (b < 0.0))) r += b; return r;
}""",
    "_minll": "static long long _minll(long long a, long long b) { return a < b ? a : b; }",
    "_maxll": "static long long _maxll(long long a, long long b) { return a > b ? a : b; }",
    "_mind": "static double _mind(double a, double b) { return a < b ? a : b; }",
    "_maxd": "static double _maxd(double a, double b) { return a > b ? a : b; }",
    "_absll": "static long long _absll(long long a) { return a < 0 ? -a : a; }",
}


def c_helpers(template: str) -> list[str]:
    """The helpers a C template names (its non-positional fields)."""
    return [f for _, f, _, _ in Formatter().parse(template) if f and not f.isdigit()]


def lookup(expr: A.Expr) -> tuple[Builtin, Sequence[A.Expr]] | None:
    """The row an operator or a builtin call applies, with its operands;
    None for any other expression (``elemIdx()`` and the RO intrinsics too)."""
    if isinstance(expr, A.BinOp):
        return BINARY[expr.op], (expr.left, expr.right)
    if isinstance(expr, A.UnaryOp):
        return UNARY[expr.op], (expr.operand,)
    if isinstance(expr, A.Call) and expr.name in CALLS:
        return CALLS[expr.name], expr.args
    return None
