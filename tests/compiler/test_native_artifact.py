"""Every native artifact kind takes one build path, and it survives faults.

Kernels, their checked twins, the lane-team runtime and the linearizer
walker are keyed, built, loaded and refused by ``native.artifact``.  These
tests hold each kind to the same two rules: a cached ``.so`` that will not
load is a miss, rebuilt and republished, never an error; and a fork that
lands while a build probes the toolchain or runs ``cc``, or while a runtime
holder decides, leaves the child free to finish its own work with the
parent's bits.
"""

import ast
import os
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import cffi
import numpy as np
import pytest

import repro
from repro.compiler import compile_reduction, linearize_it, native
from repro.compiler.native import CACHE_ENV, CC_ENV, probe_toolchain, reset_toolchain_probe
from repro.freeride.execute import INLINE_WAVE_ELEMENTS
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.runtime import FreerideEngine
from repro.machine.counters import OpCounters
from tests.compiler.test_linearize import _points
from tests.compiler.test_linearize_walk import _forked
from tests.compiler.test_native import HISTOGRAM_CHAPEL_SOURCE, _bounded_case, _defeat
from tests.freeride.test_runtime_pool import _histogram_wave

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

#: each kind's shared library, by its file name in the kernel cache
PREFIX = {"kernel": "repro_native_", "twin": "repro_native_",
          "team": "repro_team_", "walker": "repro_walk_"}


def _report(kind):
    """What this process computes through ``kind``'s artifact: ``(path of
    the artifact, how it ran, the result's bytes as hex)``."""
    if kind in ("kernel", "twin"):
        constants, data, extras, layout = _bounded_case("histogram")
        compiled = compile_reduction(
            HISTOGRAM_CHAPEL_SOURCE, dict(constants), opt_level=2, backend="native"
        )
        kernel = compiled.native_kernel.native
        ro = ReductionObject()
        ro.alloc_many(layout if kind == "kernel" else _defeat(layout, "op"))
        try:
            compiled.native_kernel.ranges(
                np.array([0]), np.array([len(data)]), ro,
                compiled.bind(data, extras).env, OpCounters(),
            )
            how = compiled.effective_backend
        except Exception as exc:  # the defeated layout's error, as scalar raises it
            how = f"{compiled.effective_backend}: {type(exc).__name__}"
        path = kernel.so_path if kind == "kernel" else kernel.twin().so_path
        return str(path), how, ro.snapshot().tobytes().hex()
    if kind == "team":
        with FreerideEngine(num_threads=2, executor="threads") as engine:
            result = engine.run(*_histogram_wave(2 * INLINE_WAVE_ELEMENTS))
            how = "team" if engine._res.team is not None else "inline"
        bits = result.ro.snapshot().tobytes().hex()
    else:
        _, value = _points(10)
        native.linearizer(wait=True)
        buf = linearize_it(value, value.type)
        how, bits = buf.walk, buf.raw.tobytes().hex()
    path = next(native.kernel_cache_dir().glob(f"{PREFIX[kind]}*.so"))
    return str(path), how, bits


def _in_a_new_process(kind, cache):
    """:func:`_report` from a fresh interpreter on the kernel cache ``cache``."""
    root = Path(repro.__file__).resolve().parents[2]
    run = subprocess.run(
        [sys.executable, "-c",
         f"from tests.compiler.test_native_artifact import _report; print(_report({kind!r}))"],
        capture_output=True, text=True, timeout=300, cwd=root,
        env={**os.environ, CACHE_ENV: str(cache),
             "PYTHONPATH": os.pathsep.join((str(root / "src"), str(root)))},
    )
    assert run.returncode == 0, run.stderr
    return ast.literal_eval(run.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("kind", sorted(PREFIX))
def test_a_torn_cache_file_is_rebuilt_not_raised(kind, tmp_path):
    clean = _in_a_new_process(kind, tmp_path)
    path = Path(clean[0])
    os.truncate(path, 100)
    torn = _in_a_new_process(kind, tmp_path)
    assert torn == clean
    assert clean[1] == {"kernel": "native", "twin": "native: ReductionObjectError",
                        "team": "team", "walker": "c"}[kind]
    assert path.stat().st_size > 100
    cffi.FFI().dlopen(str(path))  # republished whole: it loads


@pytest.fixture
def sleepy_cc(tmp_path, monkeypatch):
    """A ``REPRO_CC`` that holds its ``--version`` answer and each build of
    one kind for 0.3 s, marking ``building`` as such a build starts; the
    kernel cache in ``tmp_path``, and both runtimes not yet submitted."""

    def use(kind):
        script = tmp_path / "cc-wrapper"
        script.write_text(
            "#!/bin/sh\n"
            'case "$*" in --version) sleep 0.3 ;; '
            f'*{PREFIX[kind]}*) touch {shlex.quote(str(tmp_path / "building"))}; sleep 0.3 ;; '
            "esac\n"
            f'exec {shlex.quote(probe_toolchain()["cc"])} "$@"\n'
        )
        script.chmod(0o755)
        monkeypatch.setenv(CC_ENV, str(script))
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "kernels"))
        for runtime in (native.team.RUNTIME, native.walker.RUNTIME):
            for name in ("loaded", "build", "_pid", "_warned"):
                monkeypatch.setattr(runtime, name, None)
        reset_toolchain_probe()
        return tmp_path / "building"

    yield use
    for runtime in (native.team.RUNTIME, native.walker.RUNTIME):
        if runtime.build is not None:
            runtime.build.exception()  # nothing lands after the state is restored
    reset_toolchain_probe()


def _decide_for_a_while():
    """Hold the lock a runtime holder decides under, as a slow start would."""
    with native.toolchain._runtime_lock:
        time.sleep(0.3)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.parametrize("kind, moment", [
    (kind, moment) for kind in ("kernel", "team", "walker") for moment in ("probe", "build")
] + [("team", "holder")])
def test_a_fork_during_a_build_leaves_the_child_its_own_run(kind, moment, sleepy_cc):
    building = sleepy_cc(kind)
    started = {"probe": native.toolchain._probe_lock.locked, "build": building.exists,
               "holder": native.toolchain._runtime_lock.locked}[moment]
    parent = {}
    work = _decide_for_a_while if moment == "holder" else lambda: parent.update(
        report=_report(kind))
    worker = threading.Thread(target=work)
    worker.start()
    deadline = time.monotonic() + 60
    while not started():
        assert time.monotonic() < deadline, f"no {moment} started"
        time.sleep(0.002)
    child = _forked(lambda: _report(kind))
    worker.join(timeout=120)
    assert not worker.is_alive()
    report = parent.get("report") or _report(kind)
    assert child[1:] == report[1:]
    assert child[1] == {"kernel": "native", "team": "team", "walker": "c"}[kind]
