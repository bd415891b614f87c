"""Leaked engines must not hang interpreter shutdown or leak segments.

The engine registers its pools and shared-memory segments with a
``weakref.finalize`` guard, which Python runs via ``atexit`` *before*
threading/multiprocessing teardown — so an application that forgets
``engine.close()`` still gets an orderly pool shutdown and no ``/dev/shm``
litter.
"""

import gc
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import attach_shm_segment
from repro.freeride.spec import ReductionArgs, ReductionSpec


def simple_spec():
    def setup(ro):
        ro.alloc(1, "add")

    def reduction(args: ReductionArgs) -> None:
        for x in args.data:
            args.ro.accumulate(0, 0, float(x))

    return ReductionSpec(
        name="sum", setup_reduction_object=setup, reduction=reduction
    )


class TestFinalizerLifecycle:
    def test_finalizer_registered_and_fired_by_close(self):
        engine = FreerideEngine(num_threads=2, executor="threads")
        engine.run(simple_spec(), np.arange(50.0))
        assert engine._pool is not None
        fin = engine._finalizer
        assert fin.alive
        engine.close()
        assert not fin.alive
        assert engine._pool is None

    def test_garbage_collected_engine_releases_pool(self):
        engine = FreerideEngine(num_threads=2, executor="threads")
        engine.run(simple_spec(), np.arange(50.0))
        pool = engine._pool
        fin = engine._finalizer
        del engine
        gc.collect()
        assert not fin.alive
        # a released executor refuses new work
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_garbage_collected_engine_joins_no_thread(self, monkeypatch):
        """Collection may run the finalizer on a thread that holds
        ``threading``'s own locks — a thread being started holds the one a
        join takes — so releasing a collected engine's pool joins nothing;
        the workers still stop."""
        engine = FreerideEngine(num_threads=2, executor="threads")
        engine.run(simple_spec(), np.arange(50.0))
        workers = list(engine._pool._threads)
        assert workers
        joined = []
        monkeypatch.setattr(
            threading.Thread, "join", lambda thread, timeout=None: joined.append(thread)
        )
        del engine
        gc.collect()
        monkeypatch.undo()
        assert joined == []
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()

    def test_garbage_collected_engine_releases_segments(self):
        from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
        from repro.compiler.cache import compile_cached

        compiled = compile_cached(
            HISTOGRAM_CHAPEL_SOURCE, {"bins": 4, "lo": 0.0, "width": 4.0},
            opt_level=2,
        )
        bound = compiled.bind(np.arange(64, dtype=np.float64) % 16)
        engine = FreerideEngine(num_threads=2, executor="process")
        spec, idx = bound.make_spec([(2, "add")] * 4)
        engine.run(spec, idx)
        names = engine._res.segments.names()
        assert names
        fin = engine._finalizer
        del engine
        gc.collect()
        assert not fin.alive
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_shm_segment(name)


class TestInterpreterExit:
    @pytest.mark.parametrize("executor", ["threads", "process"])
    def test_leaked_engine_does_not_hang_shutdown(self, executor):
        """A script that leaks a live engine must exit promptly and cleanly."""
        script = textwrap.dedent(
            f"""
            import numpy as np
            from repro.apps.histogram import HistogramRunner

            runner = HistogramRunner(bins=4, lo=0.0, hi=16.0, version="opt-2",
                                     num_threads=2, executor={executor!r})
            res = runner.run(np.arange(64, dtype=np.float64) % 16)
            assert res.counts.sum() == 64
            segs = runner.engine._res.segments.names()
            print("SEGMENTS:" + ",".join(segs))
            # no close(): the engine (pools, segments) is deliberately leaked
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        marker = [
            line for line in proc.stdout.splitlines()
            if line.startswith("SEGMENTS:")
        ]
        assert marker, proc.stdout
        names = [n for n in marker[0][len("SEGMENTS:"):].split(",") if n]
        if executor == "process":
            assert names
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_shm_segment(name)
