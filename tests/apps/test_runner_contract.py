"""What every application runner promises, checked once over all six.

The runners share one base (:class:`repro.apps.base.ReductionApp`); these
tests pin what a caller sees of it: the constructor keywords (frozen for
``benchmarks/suite/layers.py``, which builds runners by keyword), the
``version``/``backend`` checks, the engine's lifetime, ``last_run_stats``.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.apps import (
    AprioriRunner,
    EmRunner,
    HistogramRunner,
    KmeansRunner,
    PcaRunner,
    ReductionApp,
    WindowedRunner,
)
from repro.apps.apriori import generate_transactions
from repro.compiler.native import probe_toolchain
from repro.freeride.runtime import RunStats
from repro.util.errors import FreerideError

REQUIRED = inspect.Parameter.empty

#: the seven keywords every runner takes, with the defaults they had when
#: each runner spelled them out itself
SHARED = {
    "num_threads": 1,
    "executor": "serial",
    "chunk_size": None,
    "technique": "full_replication",
    "backend": "scalar",
    "tracer": None,
    "profile_store": None,
}

rng = np.random.default_rng(7)

#: runner class -> (its own parameters and defaults, constructor arguments
#: of a small instance, the arguments of one small ``run``)
RUNNERS = {
    KmeansRunner: (
        {"k": REQUIRED, "dim": REQUIRED, "version": "opt-2"},
        (3, 2),
        (rng.integers(-9, 9, size=(40, 2)).astype(float), np.eye(3, 2), 2),
    ),
    PcaRunner: (
        {"m": REQUIRED, "version": "opt-2"},
        (3,),
        (rng.integers(-9, 9, size=(3, 16)).astype(float),),
    ),
    EmRunner: (
        {"k": REQUIRED, "dim": REQUIRED, "version": "manual"},
        (2, 2),
        (rng.normal(0.0, 1.0, size=(30, 2)), 2),
    ),
    AprioriRunner: (
        {"num_items": REQUIRED, "min_support_frac": 0.3, "max_size": 3,
         "version": "manual"},
        (5,),
        (generate_transactions(40, 5, avg_basket=3, seed=1),),
    ),
    HistogramRunner: (
        {"bins": REQUIRED, "lo": REQUIRED, "hi": REQUIRED, "version": "opt-2"},
        (4, 0.0, 1.0),
        (rng.uniform(0.0, 1.0, 50),),
    ),
    WindowedRunner: (
        {"window": REQUIRED, "num_windows": REQUIRED, "scale": REQUIRED,
         "lo": REQUIRED, "hi": REQUIRED, "version": "opt-2"},
        (8, 4, [1.0, 2.0], 0.0, 1.0),
        (rng.uniform(0.0, 1.0, 32),),
    ),
}

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)
BACKENDS = ["scalar", pytest.param("native", marks=needs_cc)]
each_runner = pytest.mark.parametrize("cls", RUNNERS, ids=lambda c: c.__name__)


def accepted(cls):
    """``name -> default`` of every argument ``cls(...)`` takes: its own
    ``__init__``'s, then — where that forwards ``**options`` — the base's."""
    own = inspect.signature(cls.__init__).parameters
    params = [p for p in own.values() if p.name != "self"]
    if params[-1].kind is inspect.Parameter.VAR_KEYWORD:
        base = inspect.signature(ReductionApp.__init__).parameters
        params = params[:-1] + [
            p for p in base.values() if p.name != "self" and p.name not in own
        ]
    return {p.name: p.default for p in params}


def make(cls, backend="scalar", **kwargs):
    return cls(*RUNNERS[cls][1], backend=backend, **kwargs)


@each_runner
@pytest.mark.parametrize("backend", BACKENDS)
class TestConstructor:
    def test_keywords_and_defaults_are_the_frozen_table(self, cls, backend):
        assert accepted(cls) == {**RUNNERS[cls][0], **SHARED}
        # and they are really taken: every shared keyword at once
        with make(cls, **{**SHARED, "backend": backend}) as runner:
            assert runner.version == RUNNERS[cls][0]["version"]
            assert runner.backend == backend

    def test_an_engine_option_no_runner_takes_is_refused(self, cls, backend):
        with pytest.raises(TypeError, match="splitter"):
            make(cls, backend, splitter=None)

    def test_bad_version_or_backend_names_the_choices(self, cls, backend):
        with pytest.raises(ValueError, match=r"version must be one of .*'opt-2'"):
            make(cls, backend, version="opt-3")
        with pytest.raises(ValueError, match=r"backend must be one of .*'native'"):
            make(cls, backend="gpu")
        if cls is WindowedRunner:  # compiled only
            with pytest.raises(ValueError, match="version must be one of"):
                make(cls, backend, version="manual")
        else:
            make(cls, backend, version="manual").close()


@each_runner
@pytest.mark.parametrize("backend", BACKENDS)
class TestLifecycle:
    def test_with_block_closes_the_engine(self, cls, backend):
        with make(cls, backend) as runner:
            assert isinstance(runner, cls)
            runner.run(*RUNNERS[cls][2])
        with pytest.raises(FreerideError, match="engine is closed"):
            runner.engine.run(None, [])
        runner.close()  # idempotent
        with pytest.raises(FreerideError, match="engine is closed"):
            runner.run(*RUNNERS[cls][2])

    def test_last_run_stats_is_the_last_pass(self, cls, backend):
        with make(cls, backend) as runner:
            assert runner.last_run_stats is None
            result = runner.run(*RUNNERS[cls][2])
            assert isinstance(runner.last_run_stats, RunStats)
            if cls is KmeansRunner:
                assert runner.last_run_stats is result.per_iteration_stats[-1]
            if cls is PcaRunner:
                assert runner.last_run_stats is result.cov_stats


@each_runner
def test_lifecycle_is_the_base_classes(cls):
    assert issubclass(cls, ReductionApp)
    assert not {"close", "__enter__", "__exit__"} & set(vars(cls))


@pytest.mark.parametrize("version", ["generated", "opt-1", "opt-2", "manual"])
def test_pca_phase_counters_sum_to_the_merged_ledger(version):
    with PcaRunner(3, version=version) as runner:
        result = runner.run(*RUNNERS[PcaRunner][2])
    merged = result.counters.as_dict()
    assert result.mean_counters.elements_processed == 16
    assert result.cov_counters.elements_processed == 16
    for f in dataclasses.fields(result.counters):
        assert merged[f.name] == getattr(result.mean_counters, f.name) + getattr(
            result.cov_counters, f.name
        ), f.name
