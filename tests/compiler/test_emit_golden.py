"""The emitted kernel texts, pinned.

Every tier's text for the seven app kernels at the three optimization
levels, as a sha256 digest.  The four printers share one walk of the lowered
IR, so a change to a shared rule shows up here in every tier at once, and a
printer whose output stops being a pure function of ``(lowered, plan)``
shows up as a digest that will not stay put — which would also cold-start
every user's on-disk native kernel cache, keyed on the C text.

The batch, native-C and C-like digests were recorded at the commit before
the printers were split from the walk (PR 15's tree); the scalar digests at
the commit that added the op argument to ``_ro.accumulate`` — the one line
per RO update by which the scalar text differs from that tree's.  The
native-C digests of the kernels with proof sites moved again when the
default build dropped its ``_proven`` bit test (the checked twin keeps it
and is not pinned here).  Every native-C digest moved once more, and the
windowed kernel's scalar and batch ones, when ``elemIdx()`` gained the
element base a dataset segment starts at (the C entry's ``_e0`` argument,
``_elem_base`` in the Python tiers' env).  Every native-C digest moved
again when the C entry began prefetching the first data row of the range
``PREFETCH_DISTANCE`` ahead; the refused ones are messages and stood.
The native-C digests of the kernels with a group run of two or more
updates, or of one inside a loop (EM, histogram, k-means, both PCA kernels,
windowed), moved when a run's group, row and touched flag began to be
settled once per run; apriori's single update and the two ``op reduce
expr`` kernels print no run and stood.  Every native-C digest moved once
more when the text began with ``#include "freeride.h"`` and its entry's
declaration by the contract's type, took the reduction object as one
``struct freeride_ro``, and spelled its failure codes by their enum names.

The two kernels of ``op reduce expr`` (:mod:`repro.compiler.exprreduce`)
are pinned at opt-2 in the three tiers that run: ``min reduce A+B``, and
the minloc pass that finds the index of the best value.

To re-record after an intended change, run this file as a script with
``PYTHONPATH=src:.`` and paste its output over ``GOLDEN`` and ``EXPR_GOLDEN``.
"""

import hashlib

import numpy as np
import pytest

from repro.chapel.expr import ArrayRef
from repro.compiler import compile_reduce_expr, compile_reduction
from repro.compiler.batch import BatchCodegen, BatchUnsupported
from repro.compiler.native import NativeCodegen, NativeUnsupported

from tests.compiler.test_native import APP_KERNELS


def _expr_kernels():
    job = compile_reduce_expr("minloc", ArrayRef(np.zeros(2)) + ArrayRef(np.zeros(2)))
    return {
        "min_reduce_a_plus_b": job.bound.compiled.request,
        "minloc_index": job.loc_bound.compiled.request,
    }


KERNELS = {
    **APP_KERNELS,
    **{name: (r.source, r.constants) for name, r in _expr_kernels().items()},
}
EXPR_TIERS = ("scalar", "batch", "native")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def emitted(app, opt_level):
    """tier -> digest of its text, or the reason the tier refuses the kernel."""
    source, constants = KERNELS[app]
    compiled = compile_reduction(source, dict(constants), opt_level=opt_level)
    lowered, plan = compiled.lowered, compiled.plan
    summary = compiled.group_bounds
    out = {
        "scalar": _digest(compiled.python_source),
        "c_like": _digest(compiled.c_source),
    }
    try:
        out["batch"] = _digest(BatchCodegen(lowered, plan, summary=summary).generate())
    except BatchUnsupported as exc:
        out["batch"] = f"refused: {exc}"
    try:  # the C text before the hashed symbol is substituted; needs no cc
        out["native"] = _digest(NativeCodegen(lowered, plan, summary=summary).generate())
    except NativeUnsupported as exc:
        out["native"] = f"refused: {exc}"
    return out


GOLDEN = {
    ('apriori', 0): {
        'scalar': '3c785d828e890f1d',
        'c_like': '0c4bd0549a3d2ff8',
        'batch': 'eb135e9b75762ff9',
        'native': 'refused: nested access candidates[c][j] (un-linearized extra at opt level 0); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('apriori', 1): {
        'scalar': '3c785d828e890f1d',
        'c_like': '51b6248963ca1e2a',
        'batch': 'eb135e9b75762ff9',
        'native': 'refused: nested access candidates[c][j] (un-linearized extra at opt level 1); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('apriori', 2): {
        'scalar': '7a687dc7972b441b',
        'c_like': '38e7870de92cc674',
        'batch': '1f272c81502479d2',
        'native': 'b82123ca3220311b',
    },
    ('em', 0): {
        'scalar': '40a35e62b74a907c',
        'c_like': '3d8b82221b359dae',
        'batch': 'a3b7f24cba7674ba',
        'native': 'refused: nested access means[c][d] (un-linearized extra at opt level 0); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('em', 1): {
        'scalar': '20323185d4fb9956',
        'c_like': '31513224e1d0dcd3',
        'batch': '7020bf4a4ad3d2e4',
        'native': 'refused: nested access means[c][d] (un-linearized extra at opt level 1); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('em', 2): {
        'scalar': '444a0a593ecaf17f',
        'c_like': 'fca8c66641a40136',
        'batch': '6c852499d79c22ed',
        'native': '09cbddc9c4e4c735',
    },
    ('histogram', 0): {
        'scalar': '0e09601f9c5680b3',
        'c_like': '92bd8ddc0329c0d5',
        'batch': '60b264c6a5cbfaf6',
        'native': 'fde7506db985c573',
    },
    ('histogram', 1): {
        'scalar': '0e09601f9c5680b3',
        'c_like': '77a04571ce4fe216',
        'batch': '60b264c6a5cbfaf6',
        'native': 'b9200a0b00342dec',
    },
    ('histogram', 2): {
        'scalar': '0e09601f9c5680b3',
        'c_like': 'b2aea37411dd9ba4',
        'batch': '60b264c6a5cbfaf6',
        'native': '99fe805fac1ccf7b',
    },
    ('kmeans', 0): {
        'scalar': '01b67249503b2beb',
        'c_like': '8b634d642e9dafd1',
        'batch': '4c1928872733e400',
        'native': 'refused: nested access centroids[c].coord[d] (un-linearized extra at opt level 0); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('kmeans', 1): {
        'scalar': '3f81e31a0a59c07e',
        'c_like': '19ab580d3ccb79e2',
        'batch': '313b920ed97b74b4',
        'native': 'refused: nested access centroids[c].coord[d] (un-linearized extra at opt level 1); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('kmeans', 2): {
        'scalar': '86aa7e9c85db481a',
        'c_like': 'cb308bc4be971dd9',
        'batch': '897b919735c7bee1',
        'native': 'ca9f3b9db440ac31',
    },
    ('pca_cov', 0): {
        'scalar': '2acef880d96b2679',
        'c_like': 'c9e01a9a31a0f93b',
        'batch': '53ed23020297a385',
        'native': 'refused: nested access mean[a] (un-linearized extra at opt level 0); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('pca_cov', 1): {
        'scalar': '390a8cba204636c6',
        'c_like': 'd60b2f2cb9c3f7dc',
        'batch': '9536b87c523c8853',
        'native': 'refused: nested access mean[a] (un-linearized extra at opt level 1); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('pca_cov', 2): {
        'scalar': '0cb9a4bb05e6ee0e',
        'c_like': '15447a5ff327ef43',
        'batch': '51b7e853fac9b4c3',
        'native': 'ec92d2cd8238f5b8',
    },
    ('pca_mean', 0): {
        'scalar': 'b22fa849b10e1ace',
        'c_like': '308965df939bdaaa',
        'batch': '50f3666c2724b7fe',
        'native': 'b1dec5b92fdbfd39',
    },
    ('pca_mean', 1): {
        'scalar': '953c8eaa69981582',
        'c_like': 'c8e0185aec4c916d',
        'batch': '31b595ced95e17ca',
        'native': 'ca289710cd572da9',
    },
    ('pca_mean', 2): {
        'scalar': '953c8eaa69981582',
        'c_like': '96c15041353e6ba1',
        'batch': '31b595ced95e17ca',
        'native': '14c61d419ecc343e',
    },
    ('windowed', 0): {
        'scalar': 'c01d338f1d282413',
        'c_like': '73ed1ed77f39e4a7',
        'batch': "refused: index (b + 1) of extra access scale[(b + 1)] is element-dependent (gather not vectorized): site planned as 'nested'; a gather needs a linearized (non-hoisted) extra access",
        'native': 'refused: nested access scale[(b + 1)] (un-linearized extra at opt level 0); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('windowed', 1): {
        'scalar': 'c01d338f1d282413',
        'c_like': '66ac915b3d41d2b7',
        'batch': "refused: index (b + 1) of extra access scale[(b + 1)] is element-dependent (gather not vectorized): site planned as 'nested'; a gather needs a linearized (non-hoisted) extra access",
        'native': 'refused: nested access scale[(b + 1)] (un-linearized extra at opt level 1); native backend needs linear/hoisted sites — use opt-2 or the batch/scalar path',
    },
    ('windowed', 2): {
        'scalar': 'ed798e0b1e9c0603',
        'c_like': '19444ab15b5843b6',
        'batch': '99d12fac38311b0d',
        'native': '31123e8069dd45c9',
    },
}

EXPR_GOLDEN = {
    'min_reduce_a_plus_b': {
        'scalar': '898cbc32cb9e161e',
        'batch': '963d36c5729c1699',
        'native': 'da180e76974a4f2f',
    },
    'minloc_index': {
        'scalar': 'c45e1b4cbf9af330',
        'batch': '906a68c6c52d8dc1',
        'native': '5e3a417dc7af97c3',
    },
}


@pytest.mark.parametrize("opt_level", [0, 1, 2])
@pytest.mark.parametrize("app", sorted(APP_KERNELS))
def test_texts_are_the_recorded_ones(app, opt_level):
    assert emitted(app, opt_level) == GOLDEN[app, opt_level]


@pytest.mark.parametrize("kernel", sorted(EXPR_GOLDEN))
def test_expr_reduce_texts_are_the_recorded_ones(kernel):
    out = emitted(kernel, 2)
    assert {tier: out[tier] for tier in EXPR_TIERS} == EXPR_GOLDEN[kernel]


@pytest.mark.parametrize("app", sorted(APP_KERNELS))
def test_a_printer_can_be_run_twice(app):
    # generate() starts from nothing each time: same text from one instance
    source, constants = APP_KERNELS[app]
    compiled = compile_reduction(source, dict(constants), opt_level=2)
    gen = NativeCodegen(
        compiled.lowered, compiled.plan, summary=compiled.group_bounds
    )
    assert gen.generate() == gen.generate()


if __name__ == "__main__":
    print("GOLDEN = {")
    for app in sorted(APP_KERNELS):
        for opt_level in (0, 1, 2):
            print(f"    ({app!r}, {opt_level}): {{")
            for tier, value in emitted(app, opt_level).items():
                print(f"        {tier!r}: {value!r},")
            print("    },")
    print("}")
    print()
    print("EXPR_GOLDEN = {")
    for kernel in sorted(set(KERNELS) - set(APP_KERNELS)):
        out = emitted(kernel, 2)
        print(f"    {kernel!r}: {{")
        for tier in EXPR_TIERS:
            print(f"        {tier!r}: {out[tier]!r},")
        print("    },")
    print("}")
