"""A delta epoch's C bookkeeping against the NumPy path it replaces.

``epoch.c`` (built into the lane team's runtime) checks, tombstones and
cuts a retraction's runs, cuts the replay's live runs and makes the
checkpointed commit in two halves around the fault seam.  The NumPy path
stays where no runtime exists and is the reference here: every random
session runs twice, once on the runtime and once with it forced off, and
must leave the same bits, flags, counts, checkpoint ring, liveness and
errors.  Layouts mix ``add``, ``min`` and ``max`` groups; the data holds
NaN, ±inf and ±0.0; retractions come unsorted, duplicated, out of range and
already retracted; some commits fail at the seam and roll back.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.native import NativeUnsupported, probe_toolchain, team
from repro.freeride import delta
from repro.freeride.delta import DELTA_COMMIT_SPLIT_ID
from repro.freeride.faults import FaultInjector
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.freeride.spec import ReductionSpec
from repro.obs.tracer import NullTracer
from repro.util.errors import FreerideError


@pytest.fixture(scope="module", autouse=True)
def runtime():
    """The runtime, built and landed before any session opens."""
    if not probe_toolchain()["ok"]:
        pytest.skip(f"no usable C toolchain: {probe_toolchain()['reason']}")
    try:
        return team.RUNTIME.get(wait=True)
    except NativeUnsupported as exc:
        pytest.skip(f"no native runtime: {exc}")


VALUES = [0.0, -0.0, 1.5, np.nan, np.inf, -np.inf]

layouts = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from(["add", "min", "max"])),
    min_size=1, max_size=6,
)


@st.composite
def sessions(draw):
    """``(layout, base rows, epochs)``: a row is ``(group, element,
    value)``; an epoch is ``(appended rows or None, retract positions or
    None, does its first commit fail at the seam)``."""
    layout = draw(layouts)

    def rows(min_size):
        picks = draw(st.lists(
            st.tuples(st.integers(0, len(layout) - 1), st.integers(0, 2),
                      st.sampled_from(VALUES)),
            min_size=min_size, max_size=12,
        ))
        return np.array(
            [(g, e % layout[g][0], v) for g, e, v in picks], dtype=np.float64
        ).reshape(-1, 3)

    base = rows(1)
    epochs = []
    for _ in range(draw(st.integers(1, 6))):
        append = rows(1) if draw(st.booleans()) else None
        retract = draw(st.one_of(
            st.none(), st.lists(st.integers(-2, len(base) + 30), max_size=8),
        ))
        epochs.append((append, retract, draw(st.booleans())))
    return layout, base, epochs


def _reduction(args):
    for g, e, v in args.data.tolist():
        args.ro.accumulate(int(g), int(e), v)


def _walk(layout, base, epochs):
    """Everything a session leaves, epoch by epoch and at the end."""
    spec = ReductionSpec(
        name="mixed", setup_reduction_object=lambda ro: ro.alloc_many(layout),
        reduction=_reduction,
    )
    seen = []
    with FreerideEngine(executor="serial") as engine:
        _, session = engine.run_baseline(spec, base.copy())
        for append, retract, fails in epochs:
            engine.fault_injector = (
                FaultInjector(fail_split_ids={DELTA_COMMIT_SPLIT_ID}, fail_attempts=1)
                if fails else None
            )
            try:
                stats = engine.run_delta(session, append=append, retract=retract).stats
            except Exception as exc:  # a refused batch or a rolled-back epoch
                seen.append((type(exc).__name__, str(exc)))
            else:
                seen.append((stats.delta_epoch, stats.delta_retracted,
                             stats.delta_groups_replayed, stats.delta_replay_elements,
                             stats.delta_checkpoint_saves, stats.delta_checkpoint_hits))
        ro, cp = session.ro, session.checkpoints
        past = [
            (epoch, _state(session.ro_at(epoch)))
            for epoch in cp.restorable_epochs(session.epoch)
        ]
        return session._native is not None, {
            "epochs": seen, "ro": _state(ro), "checkpoint": (cp.saves, cp.hits),
            "past": past, "live": session.live.tobytes(),
            "counts": (session.live_count, session.n_elements, session.epoch,
                       session.rollbacks),
            "scratch": [_state(s) for s in session.scratch.values()],
        }


def _state(ro: ReductionObject):
    """Bytes, flags and count.  Every NaN is made one: IEEE 754 leaves the
    sign and payload of ``NaN + NaN`` open, and NumPy's own ``add`` takes
    the first operand's in a SIMD lane and the second's in its scalar tail,
    so no other implementation could reproduce which NaN a cell holds."""
    values = ro.snapshot()
    values[np.isnan(values)] = np.nan
    return values.tobytes(), ro.touched_mask().tobytes(), ro.update_count


@contextlib.contextmanager
def _numpy_path():
    """The runtime forced off: sessions opened inside run the NumPy path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delta, "_epoch_runtime", delta._no_runtime)
        yield


@settings(max_examples=200, deadline=None)
@given(sessions())
def test_the_c_bookkeeping_leaves_the_numpy_paths_bits(case):
    native, on_c = _walk(*case)
    assert native
    with _numpy_path():
        native, on_numpy = _walk(*case)
    assert not native
    assert on_c == on_numpy


def test_a_tie_of_zeros_keeps_the_committed_value():
    """``fmin``/``fmax`` over ±0.0 tie: the committed zero stays, on both
    paths, wherever the group sits in the layout."""
    layout = [(1, "min")] * 9 + [(1, "max")] * 9
    zeros = np.where(np.arange(18) % 2, 0.0, -0.0)  # -0.0, 0.0, -0.0, ...
    base = np.array([(g, 0, zeros[g]) for g in range(18)])
    tail = np.array([(g, 0, -zeros[g]) for g in range(18)])
    results = []
    for path in (contextlib.nullcontext(), _numpy_path()):
        with path:
            _, state = _walk(layout, base, [(tail, None, False)])
        results.append(state["ro"][0])
    assert results[0] == results[1] == zeros.tobytes()


def test_a_refused_retraction_says_the_same_on_both_paths():
    layout = [(1, "add")]
    base = np.array([(0, 0, 1.0)] * 10)
    epochs = [(None, [3], False), (None, [4, 3], False), (None, [12, 1], False),
              (None, [-1], False), (None, [2, 2, 2], False)]
    seen = []
    for path in (contextlib.nullcontext(), _numpy_path()):
        with path:
            seen.append(_walk(layout, base, epochs)[1]["epochs"])
    assert seen[0] == seen[1]
    assert seen[0][1] == ("FreerideError", "retract of already-retracted element(s) [3]")
    assert seen[0][2] == seen[0][3] == ("FreerideError", "retract index out of range [0, 10)")
    assert seen[0][4][:2] == (2, 1)  # the second epoch, deduplicated


def test_a_run_starts_only_at_a_position_in_range():
    """A position in range right after one below 0 starts a run of its own:
    nothing is written in front of the run buffers (``ends[-1]`` would be
    the last slot of ``starts``)."""
    spec = ReductionSpec(
        name="one", setup_reduction_object=lambda ro: ro.alloc_many([(1, "add")]),
        reduction=_reduction,
    )
    with FreerideEngine(executor="serial") as engine:
        _, session = engine.run_baseline(spec, np.array([(0, 0, 1.0)] * 8))
        bound = session._native
        bound.starts[-1] = -7
        with pytest.raises(FreerideError, match="out of range"):
            session.normalize_retract([-1, 0, 1])
        assert bound.starts[-1] == -7


def test_a_session_binds_its_loops_once():
    spec = ReductionSpec(
        name="one", setup_reduction_object=lambda ro: ro.alloc_many([(1, "add")] * 3),
        reduction=_reduction,
    )
    with FreerideEngine(executor="serial") as engine:
        _, session = engine.run_baseline(spec, np.array([(0, 0, 1.0)] * 4))
        bound = session._native
        ep = bound.ep
        for epoch in range(40):  # grows the liveness and the run arrays
            # every other element of the previous epoch's batch
            retract = np.arange(epoch * 50 - 46, epoch * 50 + 4, 2) if epoch else None
            engine.run_delta(session, append=np.array([(1, 0, 2.0)] * 50), retract=retract)
        assert session._native is bound and bound.ep is ep
        assert bound.cap >= 25 and session.live.base is bound._live
        assert not session.live[4:54:2].any() and session.live[5:54:2].all()


def test_a_refused_tombstone_changes_no_liveness():
    """``apply`` given positions ``normalize_retract`` would refuse: the C
    check refuses them before any is tombstoned, and the rewind re-marks
    none."""
    spec = ReductionSpec(
        name="one", setup_reduction_object=lambda ro: ro.alloc_many([(1, "add")]),
        reduction=_reduction,
    )
    with FreerideEngine(executor="serial") as engine:
        _, session = engine.run_baseline(spec, np.array([(0, 0, 1.0)] * 8))
        engine.run_delta(session, retract=[2])
        before = session.live.tobytes()
        with pytest.raises(FreerideError, match=r"already-retracted element\(s\) \[2\]"):
            session.apply(
                None, np.array([1, 2], dtype=np.int64), injector=None,
                tracer=NullTracer(), executor="serial",
            )
        assert session.live.tobytes() == before and session.live_count == 7
