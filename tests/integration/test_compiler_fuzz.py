"""Differential fuzzing of the whole translation pipeline.

Generates random-but-valid mini-Chapel reduction classes (random element
shapes, extras, loop nests, arithmetic, conditionals, RO updates), compiles
each at all three optimization levels on every backend tier that accepts
it, runs them on the FREERIDE engine with random thread counts, and checks
every version against the AST interpreter oracle and every tier's counter
ledger against the scalar tier's.  Any transformation bug — wrong hoist, bad
offset, bad incremental base, a printer that counts differently — shows up
as a mismatch.  Where native C is built, each program also runs native
against scalar on its layout and on two layouts its updates do not fit: the
per-layout verdict that lets a native update skip its checks must never
change what a call returns, raises or leaves behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chapel.parser import parse_program
from repro.compiler import compile_reduction, interpret_over, lower_reduction
from repro.compiler.native import probe_toolchain
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.machine.counters import OpCounters

#: the backend axis: native only where a C toolchain can build it
TIERS = ("scalar", "batch") + (("native",) if probe_toolchain()["ok"] else ())

# ---------------------------------------------------------------- generators


@st.composite
def random_programs(draw):
    """A random reduction over elements of type [1..dim] real, with an
    optional array-of-records extra, random loops and accesses."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    use_extra = draw(st.booleans())
    n_groups = draw(st.integers(1, 3))
    group_elems = draw(st.integers(1, 3))
    # optionally one non-finite value planted into the data
    plant = draw(st.sampled_from([None, None, np.nan, np.inf, -np.inf]))

    body: list[str] = []
    body.append("var acc: real = 0.0;")

    # an inner loop over the element dimensions with a data access
    data_expr = draw(
        st.sampled_from(
            [
                "x[d]",
                "x[d] * 2.0",
                "x[d] - x[1]",
                "abs(x[d]) + 1.0",
            ]
        )
    )
    body.append(f"for d in 1..{dim} {{ acc = acc + {data_expr}; }}")

    if use_extra:
        extra_expr = draw(
            st.sampled_from(
                [
                    "w[c].v[d] * x[d]",
                    "w[c].v[d] + 1.0",
                    "w[c].v[d] - x[d]",
                ]
            )
        )
        body.append(
            f"for c in 1..{k} {{ for d in 1..{dim} {{ "
            f"acc = acc + {extra_expr}; }} }}"
        )

    if draw(st.booleans()):
        body.append(
            "if (acc < 0.0) { roAdd(0, 0, 0.0 - acc); } "
            "else { roAdd(0, 0, acc); }"
        )
    else:
        body.append("roAdd(0, 0, acc);")

    # a second group update with a computed group index (not over planted
    # data: toInt of a non-finite value raises in Python and is undefined in C)
    if n_groups > 1 and plant is None:
        body.append(
            f"var g: int = toInt(abs(acc)) % {n_groups};"
        )
        body.append("roAdd(g, 0, 1.0);")
    # an extremum update, into a group of its own: every tier (and the
    # oracle) refuses an update whose op is not its group's
    if group_elems > 1:
        body.append(f"roMax({n_groups}, {group_elems - 1}, acc);")

    extra_decl = f"var w: [1..{k}] W;" if use_extra else ""
    record_decl = f"record W {{ var v: [1..{dim}] real; }}" if use_extra else ""
    source = f"""
    {record_decl}
    class fuzzReduction : ReduceScanOp {{
      var k: int;
      var dim: int;
      {extra_decl}
      def accumulate(x: [1..{dim}] real) {{
        {' '.join(body)}
      }}
    }}
    """
    n_elements = draw(st.integers(1, 40))
    threads = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    return {
        "source": source,
        "dim": dim,
        "k": k,
        "use_extra": use_extra,
        "layout": [(group_elems, "add")] * n_groups
        + ([(group_elems, "max")] if group_elems > 1 else []),
        "n": n_elements,
        "threads": threads,
        "seed": seed,
        "plant": plant,
        "plant_at": draw(st.integers(0, n_elements * dim - 1)),
    }


def build_extras(cfg):
    if not cfg["use_extra"]:
        return {}
    from repro.chapel.domains import Domain
    from repro.chapel.types import REAL, ArrayType, array_of, record
    from repro.chapel.values import from_python

    rng = np.random.default_rng(cfg["seed"] + 1)
    W = record("W", v=array_of(REAL, cfg["dim"]))
    w_t = ArrayType(Domain(cfg["k"]), W)
    values = [
        {"v": [float(x) for x in rng.uniform(-2, 2, cfg["dim"])]}
        for _ in range(cfg["k"])
    ]
    return {"w": from_python(w_t, values)}


def fixed_layout(cfg):
    return cfg["layout"]


#: the op a layout's first group is swapped to
_OTHER_OP = {"add": "max", "min": "add", "max": "add"}


def layout_axis(layout):
    """The layout, its last group dropped, and its first group's op swapped:
    one the kernel's proof sites hold on, two the per-layout verdict must
    catch."""
    (n, op), *rest = layout
    return [layout, layout[:-1], [(n, _OTHER_OP[op]), *rest]]


#: what an invalid update's message says, in every tier's words
_REFUSALS = ("not allocated", "op does not match", "out of range")


def run_direct(comp, bound, layout, n):
    """The tier's kernel over ``[0, n)`` in three ranges, into a fresh object
    of ``layout``: ``(exception type and refusal or None, snapshot, touched
    groups, update count, ledger)``."""
    ro, ledger = ReductionObject(), OpCounters()
    ro.alloc_many(layout)
    ranges = [(0, n // 3), (n // 3, n - n // 4), (n - n // 4, n)]
    failed = None
    try:
        if comp.native_kernel is not None:
            starts, ends = np.array(ranges, dtype=np.int64).T
            comp.native_kernel.ranges(starts, ends, ro, bound.env, ledger)
        else:
            for start, end in ranges:
                comp.effective_kernel(start, end, ro, bound.env, ledger)
    except Exception as exc:  # compared across tiers
        failed = type(exc), [r for r in _REFUSALS if r in str(exc)][:1]
    return (failed, ro.snapshot(), ro.touched_groups(), ro.update_count,
            ledger.as_dict())


# ----------------------------------------------------------------------- test


class TestCompilerFuzz:
    # inf - inf over a planted value is the point, not a defect
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(cfg=random_programs())
    def test_all_levels_match_interpreter(self, cfg):
        program = parse_program(cfg["source"])
        constants = {"k": cfg["k"], "dim": cfg["dim"]}
        extras = build_extras(cfg)
        rng = np.random.default_rng(cfg["seed"])
        data = rng.uniform(-3, 3, (cfg["n"], cfg["dim"]))
        if cfg["plant"] is not None:
            data.flat[cfg["plant_at"]] = cfg["plant"]
        layout = fixed_layout(cfg)

        lowered = lower_reduction(program, constants)
        oracle = interpret_over(lowered, data, extras, layout)
        want = oracle.snapshot()

        for level in (0, 1, 2):
            ledgers, kernels = {}, {}
            for tier in TIERS:
                comp = compile_reduction(
                    program, constants, opt_level=level, backend=tier
                )
                if comp.effective_backend != tier:
                    continue  # the tier refused this program (reason recorded)
                bound = comp.bind(data, extras)
                kernels[tier] = comp, bound
                spec, idx = bound.make_spec(layout)
                engine = FreerideEngine(num_threads=cfg["threads"])
                try:
                    got = engine.run(spec, idx).ro.snapshot()
                finally:
                    engine.close()
                assert np.allclose(got, want, rtol=1e-9, atol=1e-9, equal_nan=True), (
                    f"level {level} on {tier} diverged\nsource: {cfg['source']}"
                )
                ledgers[tier] = bound.counters.as_dict()
            for tier, ledger in ledgers.items():
                assert ledger == ledgers["scalar"], (
                    f"level {level}: {tier} counted differently\n"
                    f"source: {cfg['source']}"
                )
            if "native" not in kernels:
                continue
            # the layout axis: on a layout that defeats a proof the native
            # kernel fails where, and leaves what, the scalar kernel does
            for bad in layout_axis(layout):
                native, scalar = (
                    run_direct(*kernels[tier], bad, cfg["n"])
                    for tier in ("native", "scalar")
                )
                where = f"level {level}, layout {bad}\nsource: {cfg['source']}"
                assert native[0] == scalar[0], where
                assert np.array_equal(native[1], scalar[1], equal_nan=True), where
                assert native[2:] == scalar[2:], where

    @settings(max_examples=15, deadline=None)
    @given(cfg=random_programs())
    def test_counter_monotonicity(self, cfg):
        """Across random programs: opt-1 never makes more computeIndex
        calls than generated, and opt-2 never leaves nested reads."""
        program = parse_program(cfg["source"])
        constants = {"k": cfg["k"], "dim": cfg["dim"]}
        extras = build_extras(cfg)
        rng = np.random.default_rng(cfg["seed"])
        data = rng.uniform(-3, 3, (cfg["n"], cfg["dim"]))
        layout = fixed_layout(cfg)

        counts = {}
        for level in (0, 1, 2):
            comp = compile_reduction(program, constants, opt_level=level)
            bound = comp.bind(data, extras)
            spec, idx = bound.make_spec(layout)
            FreerideEngine().run(spec, idx)
            counts[level] = bound.counters

        assert counts[1].index_calls <= counts[0].index_calls
        assert counts[2].nested_reads == 0
        assert counts[0].ro_updates == counts[1].ro_updates == counts[2].ro_updates
