"""The plan as a value, and the shape of planning.

``repro.freeride.plan.plan_node`` decides one node's pass — splits,
technique, wave schedule — before anything runs, from the run's own
inputs alone.  Pinned here: (a) the planner is callable on its own, says
what a run then does, and a profile store never changes it; (b) a run
plans once — the static coloring resolved once, the profile key hashed
once, and no store work without a store; (c) the engine's fixed glue does
not grow; (d) manual and compiled delta sessions are one shape, and a
failed epoch leaves either as it found it.
"""

import sys
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import repro.freeride.plan as plan_module
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.apps.windowed import WindowedRunner
from repro.chapel.values import from_python
from repro.compiler.cache import compile_cached
from repro.compiler.native import probe_toolchain
from repro.compiler.translate import compile_reduction
from repro.freeride.delta import DeltaSession
from repro.freeride.execute import RunContext
from repro.freeride.faults import FaultInjector, FaultPolicy, InjectedFault
from repro.freeride.plan import ExecutionPlan, plan_node
from repro.freeride.runtime import DELTA_COMMIT_SPLIT_ID, FreerideEngine, RunStats
from repro.freeride.sharedmem import SharedMemManager, SharedMemTechnique
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.obs.profilestore import ProfileKey, ProfileStore, split_layout_fingerprint
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.util.errors import FreerideError

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

BINS = 8
HIST_CONSTS = {"bins": BINS, "lo": 0.0, "width": 64.0 / BINS}
HIST_LAYOUT = [(2, "add")] * BINS
HIST_DATA = (np.arange(3300, dtype=np.float64) * 7) % 64
#: sorted: contiguous splits land in disjoint bins, which only a run can see
SORTED_HIST_DATA = np.repeat(np.arange(64.0), 50)


def _histogram(backend="batch", data=HIST_DATA):
    """Statically serial: any split may touch any bin."""
    compiled = compile_cached(HISTOGRAM_CHAPEL_SOURCE, HIST_CONSTS, 2, backend=backend)
    return compiled.bind(data).make_spec(HIST_LAYOUT)


def _windowed():
    """Statically wide: the group is a function of the element position."""
    with WindowedRunner(64, 8, np.linspace(0.5, 1.5, 6), 0.0, 1.0) as runner:
        scale_t = runner.compiled.lowered.extra_types["scale"]
        bound = runner.compiled.bind(
            np.random.default_rng(0).uniform(0, 1, 512),
            {"scale": from_python(scale_t, runner.scale.tolist())},
        )
        return bound.make_spec(runner.ro_layout())


def _plan(engine, spec, data) -> ExecutionPlan:
    """What the engine would plan for a run — nothing runs."""
    return plan_node(
        spec, data, spec.build_reduction_object(),
        technique=engine.technique, executor=engine.executor,
        num_threads=engine.num_threads,
        chunk_size=engine.chunk_size, splitter=engine.splitter,
    )


# -- (a) the planner says what a run does ----------------------------------------

TECHNIQUES = ["auto"] + [t.value for t in SharedMemTechnique]


@pytest.mark.parametrize("executor", ["serial", "threads", "process"])
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize(
    "case", ["windowed", "histogram", "over_budget", "windowed_over_budget"]
)
def test_plan_equals_what_the_run_reports(case, technique, executor, monkeypatch):
    if case.endswith("over_budget"):
        # either 128-byte object, two replicas, a 64-byte budget
        monkeypatch.setattr(plan_module, "REPLICATION_BUDGET_BYTES", 64)
    windowed = case.startswith("windowed")
    spec, data = _windowed() if windowed else _histogram()
    if executor == "process" and technique not in ("auto", "full_replication"):
        with pytest.raises(FreerideError, match="full_replication"):
            FreerideEngine(num_threads=2, executor=executor, technique=technique)
        return
    with FreerideEngine(
        num_threads=2, executor=executor, technique=technique
    ) as engine:
        plan = _plan(engine, spec, data)
        stats = engine.run(spec, data).stats
    assert plan.technique is stats.technique_effective
    assert plan.decision == stats.technique_decision
    assert plan.split_alignment == stats.split_alignment
    assert (
        plan.coloring.as_dict() if plan.coloring is not None else None
    ) == stats.coloring
    assert int((plan.layout[1] - plan.layout[0]).sum()) == stats.total_elements
    sm, shape = stats.sharedmem, plan.shape
    assert (sm.num_locks, sm.private_copies, sm.ro_memory_bytes, sm.wave_widths) == (
        shape.num_locks, shape.private_copies, shape.ro_memory_bytes, shape.wave_widths
    )
    assert len(shape.wave_widths) == (
        plan.coloring.num_colors if plan.coloring is not None else 1
    )

    in_process = executor != "process"
    if technique == "auto":
        decision = plan.decision
        assert list(decision) == ["requested", "chosen", "reason", "inputs"]
        assert decision["requested"] == "auto"
        assert decision["inputs"]["executor"] == executor
        assert decision["inputs"]["num_splits"] == len(plan.layout[0])
        if not in_process:
            assert plan.technique is SharedMemTechnique.FULL_REPLICATION
            assert "coercing" in decision["reason"]
        elif windowed:
            # parallel waves come before the budget: they replicate nothing
            assert plan.technique is SharedMemTechnique.COLORED
            assert plan.coloring.max_wave_width == 2
            assert decision["inputs"]["max_wave_width"] == 2
        elif case == "over_budget":
            assert plan.technique is SharedMemTechnique.CACHE_SENSITIVE_LOCKING
            assert "exceeds the 64-byte budget" in decision["reason"]
        else:
            assert plan.technique is SharedMemTechnique.FULL_REPLICATION
            assert "small enough" in decision["reason"]
    elif technique == "colored":
        # compiler bounds are exact for both kernels: no fallback, no record
        assert plan.technique is SharedMemTechnique.COLORED and plan.decision is None
        assert plan.coloring.source == "compiler"
        assert plan.coloring.max_wave_width == (2 if windowed else 1)
    else:
        assert plan.technique.value == technique
        assert plan.decision is None and plan.coloring is None
    # only a request that can execute waves snaps split boundaries
    wave_capable = in_process and technique in ("auto", "colored")
    assert plan.split_alignment == (64 if windowed and wave_capable else None)


def test_colored_without_group_sets_falls_back_with_one_record():
    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            args.ro.accumulate(0, 0, float(x))

    spec = ReductionSpec(
        name="sum", setup_reduction_object=lambda ro: ro.alloc(1, "add"),
        reduction=reduction,
    )
    data = np.arange(10, dtype=np.float64)
    with FreerideEngine(num_threads=2, technique="colored") as engine:
        plan = _plan(engine, spec, data)
        stats = engine.run(spec, data).stats
    assert plan.technique is SharedMemTechnique.FULL_REPLICATION
    assert plan.decision == stats.technique_decision
    assert list(plan.decision) == ["requested", "chosen", "reason", "inputs"]
    assert plan.decision["inputs"]["colorable"] is False


@pytest.mark.parametrize("technique", ["auto", "colored", "full_replication"])
@pytest.mark.parametrize("case", ["windowed", "sorted histogram"])
def test_a_store_never_steers_the_plan(case, technique, tmp_path):
    """The third run of a store-attached engine plans and computes what a
    store-less engine does: the store is written, never read."""
    spec, data = _windowed() if case == "windowed" else _histogram(data=SORTED_HIST_DATA)
    results = {}
    for store in (None, tmp_path):
        with FreerideEngine(
            num_threads=2, executor="threads", technique=technique,
            profile_store=store,
        ) as engine:
            for _ in range(3 if store is not None else 1):
                results[store] = engine.run(spec, data)
    plain, stored = results[None].stats, results[tmp_path].stats
    assert stored.technique_effective is plain.technique_effective
    assert stored.technique_decision == plain.technique_decision
    assert stored.coloring == plain.coloring
    if plain.coloring is not None:
        assert stored.coloring["fingerprint"] == plain.coloring["fingerprint"]
    assert (
        results[tmp_path].ro.snapshot().tobytes()
        == results[None].ro.snapshot().tobytes()
    )
    assert len(ProfileStore(tmp_path).load()) == 3


def test_profile_key_is_built_from_the_layout(tmp_path):
    """A record is filed under the kernel's digest and its layout's
    fingerprint — the same strings the key hashed from ``Split`` objects."""
    spec, data = _histogram()
    for chunk in (None, 97):
        with FreerideEngine(
            num_threads=2, executor="threads", chunk_size=chunk, profile_store=tmp_path
        ) as engine:
            plan = _plan(engine, spec, data)
            engine.run(spec, data)
        key = ProfileKey.of(spec.bound.compiled.request.digest, *plan.layout)
        assert key.digest == spec.bound.compiled.request.digest
        assert key.split_fingerprint == split_layout_fingerprint(
            zip(plan.layout[0].tolist(), plan.layout[1].tolist())
        )
    records = ProfileStore(tmp_path).load()
    assert [r["split_fingerprint"] for r in records] == [
        "4d7179c4c8eef880", "5ce92ac82b23ef37",
    ]
    assert [r["num_splits"] for r in records] == [2, 35]


def _context(engine, spec, data) -> RunContext:
    """The run context as the engine builds it — nothing runs."""
    plan = _plan(engine, spec, data)
    ro = spec.build_reduction_object()
    policy = engine.fault_policy or (
        FaultPolicy() if engine.fault_injector is not None else None
    )
    return RunContext(
        spec=spec, plan=plan, base_ro=ro,
        lanes=SharedMemManager(plan.technique).setup(ro, engine.num_threads),
        stats=RunStats(), tracer=NULL_TRACER,
        executor=engine.executor, num_threads=engine.num_threads,
        policy=policy, injector=engine.fault_injector,
    )


def test_whole_object_commits_into_a_colored_lane_are_serialized():
    """A colored lane's target is a view of the shared copy, so a commit not
    restricted to the split's proven groups would read-modify-write cells
    other lanes own.  No colored run commits that way: it is direct, or its
    fault policy restricts every commit to the split's proven groups."""
    sorted_hist = _histogram(data=SORTED_HIST_DATA)
    seen = Counter()
    for spec, data in (_windowed(), _histogram(), sorted_hist):
        for request in ("colored", "auto"):
            for faults in ({}, {"fault_policy": FaultPolicy()}):
                with FreerideEngine(
                    num_threads=2, executor="threads", technique=request, **faults,
                ) as engine:
                    ctx = _context(engine, spec, data)
                    engine.run(spec, data)
                if ctx.plan.technique is not SharedMemTechnique.COLORED:
                    continue
                width = ctx.plan.coloring.max_wave_width
                if ctx.direct:
                    kind = "direct"  # no commits: lanes update their views
                else:
                    # each commit reads its position's proven group set
                    kind = "restricted"
                    assert len(ctx.plan.coloring.group_sets) == ctx.plan.num_splits
                seen[kind, width >= 2] += 1
    # every way a colored run commits was planned, wide and serial
    assert {kind for kind, _ in seen} == {"direct", "restricted"}
    assert seen["restricted", True] and seen["restricted", False]


# -- (b) planning happens once ------------------------------------------------------


def _calls(work, under="repro/"):
    """Python-level calls ``work()`` makes, by function name, in files
    whose path contains ``under``."""
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call" and under in frame.f_code.co_filename:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def _repro_calls(engine, spec, data, under="repro/"):
    """:func:`_calls` of one warm run: the engine's third."""
    engine.run(spec, data)
    engine.run(spec, data)
    return _calls(lambda: engine.run(spec, data), under)


def test_each_coloring_tier_and_the_profile_key_are_computed_once(tmp_path):
    """Three runs of one compiled spec plan once: one static coloring tier,
    whatever the store holds; each run's record hashes its layout once."""
    spec, data = _histogram()
    with FreerideEngine(
        executor="serial", technique="auto", chunk_size=100, profile_store=tmp_path
    ) as engine:
        calls = _calls(lambda: [engine.run(spec, data) for _ in range(3)])
        assert sum(engine.run(spec, data).stats.splits_per_thread) == 33
    assert calls["plan_node"] == 1
    assert calls["resolve_group_sets"] == 1
    assert calls["color_splits"] == 1
    assert calls["split_layout_fingerprint"] == 3


def test_a_run_without_a_store_does_no_store_work():
    spec, data = _histogram()
    with FreerideEngine(executor="serial", technique="auto", chunk_size=100) as engine:
        calls = _repro_calls(engine, spec, data, under="repro/obs/profilestore")
    assert not calls


# -- (c) fixed glue does not grow ----------------------------------------------------


#: calls into ``repro/freeride/`` of a warm one-split serial native run,
#: as measured once a warm run reused its plan and its replicas
GLUE_CEILING = {"full_replication": 32, "auto": 32}


@needs_cc
@pytest.mark.parametrize("technique,before", [("full_replication", 50), ("auto", 65)])
def test_fixed_glue_of_a_one_split_run(technique, before):
    """Calls into ``repro/freeride/`` of a warm one-split serial run over a
    native kernel stay within :data:`GLUE_CEILING`, 32 plain and with
    ``auto``, and plan nothing: the engine planned its one key once, on
    the cold run.  ``before`` is the ceiling while every run planned and
    cloned its replicas (58 and 72 while the layout was a list of
    ``Split`` objects, 59 and 78 before this module's planner)."""
    spec, data = _histogram(backend="native")
    with FreerideEngine(executor="serial", technique=technique) as engine:
        cold = _calls(lambda: engine.run(spec, data), "repro/freeride/")
        calls = _repro_calls(engine, spec, data, under="repro/freeride/")
    assert cold["plan_node"] == 1
    assert calls["plan_node"] == 0
    assert sum(calls.values()) <= GLUE_CEILING[technique] < before


@pytest.fixture
def split_objects_built(monkeypatch):
    """How many ``Split`` objects are constructed, on any thread."""
    from repro.freeride.splitter import Split

    built = Counter()
    init = Split.__init__

    def counting(self, *args, **kwargs):
        built["splits"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Split, "__init__", counting)
    return built


#: calls a 1,100-split batched run may make beyond its one-split twin
GLUE_PER_RUN = 2


@needs_cc
@pytest.mark.parametrize("executor,n,chunk_size,store", [
    pytest.param(
        executor, n, chunk_size, store,
        id=f"{n}-{chunk_size}-{executor}" + ("-store" if store else ""),
    )
    for store in (False, True)
    for executor in ("serial", "threads")
    for n, chunk_size in ((3300, 3), (33_000, 30))
])
def test_glue_does_not_grow_with_splits(
    executor, n, chunk_size, store, split_objects_built, tmp_path
):
    """A warm batched run over 1,100 splits makes the calls into
    ``repro/freeride/`` its one-split twin makes, plus at most
    ``GLUE_PER_RUN``, and builds no ``Split`` at all — with a profile store
    attached too, whose record reads the layout arrays.  At 3,300 elements
    a threaded wave runs inline; at 33,000 it goes to the lane team, whose
    lanes run no Python at all: the hand-off and the per-lane settling are
    on the calling thread, where the profiler counts them, and the same
    for two splits as for 1,100."""
    spec, data = _histogram(backend="native", data=np.resize(HIST_DATA, n))
    calls = {}
    for chunk in (None, chunk_size):
        with FreerideEngine(
            executor=executor, num_threads=2, chunk_size=chunk,
            technique="full_replication", profile_store=tmp_path if store else None,
        ) as engine:
            calls[chunk] = _repro_calls(engine, spec, data, under="repro/freeride/")
            stats = engine.run(spec, data).stats
        if chunk is not None:
            assert sum(stats.splits_per_thread) == 1100
    assert sum(calls[chunk_size].values()) <= sum(calls[None].values()) + GLUE_PER_RUN
    assert split_objects_built["splits"] == 0
    if store:
        assert ProfileStore(tmp_path).load()[-1]["num_splits"] == 1100


#: every combination the engine accepts: any technique in process, the
#: process executor only with what replicates
ACCEPTED = [
    (executor, technique)
    for executor in ("serial", "threads", "process")
    for technique in TECHNIQUES
    if executor != "process" or technique in ("auto", "full_replication")
]


@needs_cc
@pytest.mark.parametrize("executor,technique", ACCEPTED)
def test_a_compiled_run_builds_no_split(executor, technique, split_objects_built):
    """A spec from ``make_spec`` runs as positions end to end: 1,100 splits
    under any technique, executor, fault policy and tracer — the per-split
    lanes included — build no ``Split``, and report what one range call
    per split does."""
    spec, data = _histogram(backend="native", data=np.resize(HIST_DATA, 33_000))
    for faults in ({}, {"fault_policy": FaultPolicy()}):
        for tracer in (None, Tracer()):
            with FreerideEngine(
                num_threads=2, executor=executor, technique=technique,
                chunk_size=30, tracer=tracer, **faults,
            ) as engine:
                stats = engine.run(spec, data).stats
            assert split_objects_built["splits"] == 0
            assert sum(stats.splits_per_thread) == 1100
            assert stats.total_elements == 33_000
            if faults:
                assert stats.split_attempts == dict.fromkeys(range(1100), 1)
            if tracer is not None:
                spans = [s for s in tracer.spans() if s.name == "split"]
                assert sorted(s.args["split_id"] for s in spans) == list(range(1100))
                assert {s.args["elements"] for s in spans} == {30}


def test_element_independent_footprints_are_evaluated_once():
    """The histogram's group is its bin, not its position: every non-empty
    range has one footprint, so two plans of 1,100 splits — past the
    memo's size — evaluate it once."""
    compiled = compile_reduction(HISTOGRAM_CHAPEL_SOURCE, HIST_CONSTS, 2, backend="batch")
    spec, data = compiled.bind(np.resize(HIST_DATA, 33_000)).make_spec(HIST_LAYOUT)
    with FreerideEngine(executor="threads", technique="colored", chunk_size=30) as engine:
        for _ in range(2):
            assert _plan(engine, spec, data).coloring.num_colors == 1100
    assert spec.group_bounds.evaluations == 1


# -- (d) one session shape -----------------------------------------------------------


def _manual_session(engine):
    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            args.ro.accumulate(int(x // 8), 0, 1.0)
            args.ro.accumulate(int(x // 8), 1, float(x))

    spec = ReductionSpec(
        name="manual-histogram",
        setup_reduction_object=lambda ro: ro.alloc_many(HIST_LAYOUT),
        reduction=reduction,
    )
    return engine.run_baseline(spec, HIST_DATA[:200].copy())[1]


def _compiled_session(engine):
    compiled = compile_cached(HISTOGRAM_CHAPEL_SOURCE, HIST_CONSTS, 2, backend="batch")
    bound = compiled.bind(HIST_DATA[:200].copy())
    return engine.run_baseline(bound=bound, ro_layout=HIST_LAYOUT)[1]


@pytest.mark.parametrize("open_session", [_manual_session, _compiled_session])
def test_both_kinds_of_session_are_one_shape_and_roll_back(open_session):
    names = {f.name for f in fields(DeltaSession)}
    assert "source" in names
    assert not names & {"respec", "extend", "shrink", "data", "compiled"}
    injector = FaultInjector(fail_split_ids={DELTA_COMMIT_SPLIT_ID}, fail_attempts=1)
    with FreerideEngine(executor="serial", fault_injector=injector) as engine:
        session = open_session(engine)
        for gone in ("respec", "extend", "shrink", "data"):
            assert not hasattr(session, gone)
        before, updates = session.ro.snapshot(), session.ro.update_count
        tail = HIST_DATA[200:230]
        with pytest.raises(InjectedFault):
            engine.run_delta(session, append=tail, retract=[1, 2])
        assert np.array_equal(session.ro.snapshot(), before)
        assert session.ro.update_count == updates
        assert (session.epoch, session.rollbacks) == (0, 1)
        assert session.n_elements == session.source.n_elements == 200
        assert session.live.all() and session.live.size == session.live_count == 200

        # the retry is attempt 2 of the epoch, past fail_attempts
        stats = engine.run_delta(session, append=tail, retract=[1, 2]).stats
        assert (stats.delta_epoch, stats.delta_mode) == (1, "append+retract")
        assert (stats.delta_appended, stats.delta_retracted) == (30, 2)
        assert session.source.n_elements == session.n_elements == 230
        survivors = np.concatenate([np.delete(HIST_DATA[:200], [1, 2]), tail])
        expected = np.zeros((BINS, 2))
        bins = (survivors // 8).astype(int)  # HIST_CONSTS: lo 0, width 8
        expected[:, 0] = np.bincount(bins, minlength=BINS)
        expected[:, 1] = np.bincount(bins, weights=survivors, minlength=BINS)
        assert np.array_equal(session.ro.snapshot(), expected.reshape(-1))
