"""The linearizer walker: Algorithm 2 over a whole nested value in one C call.

``walk.c`` walks a value depth first against a plan of its type
(``linearize._walk_plan``), takes each nested value only in a form
``linearize._pack`` packs to the same bytes (docs/PERFORMANCE.md,
"Linearization"), and writes every scalar at its offset as it goes.  It
reads Python objects under the GIL, so it is a CPython extension module
built against ``Python.h`` and NumPy's headers, never a cffi library (an
ABI-mode call releases the GIL).  The first linearization of a walkable
type submits its build, which probes on a build thread; none waits for it.
"""

from __future__ import annotations

import importlib.util
import sysconfig
from concurrent.futures import Future
from importlib.machinery import ExtensionFileLoader
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.compiler.native import artifact, toolchain
from repro.compiler.native.toolchain import NativeUnsupported, kernel_cache_dir, probe_toolchain

_SOURCE = (Path(__file__).parent / "walk.c").read_text()


def _includes() -> tuple[str, ...]:
    """The include directories the walker builds against: this interpreter's
    and NumPy's.  Raises :class:`NativeUnsupported` when a header is missing."""
    paths = sysconfig.get_paths()
    if not Path(paths["include"], "Python.h").exists():
        raise NativeUnsupported(f"no Python.h in {paths['include']}")
    numpy_include = np.get_include()
    if not Path(numpy_include, "numpy", "ndarraytypes.h").exists():
        raise NativeUnsupported(f"no numpy/ndarraytypes.h in {numpy_include}")
    return tuple(dict.fromkeys((paths["include"], paths["platinclude"], numpy_include)))


def _load(so_path: Path, symbol: str) -> Callable[..., bool]:
    loader = ExtensionFileLoader(symbol, str(so_path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(symbol, loader))
    loader.exec_module(module)
    return module.walk


def _start() -> Future:
    cache_dir = kernel_cache_dir()

    def build() -> Callable[..., bool]:
        probe = probe_toolchain()
        if not probe["ok"]:
            raise NativeUnsupported(probe["reason"], toolchain=True)
        art = artifact.Artifact(
            "walk", ("walk", f"numpy {np.__version__}", sysconfig.get_config_var("EXT_SUFFIX")),
            _SOURCE, probe, _load,
            flags=toolchain.CC_FLAGS + tuple(f"-I{d}" for d in _includes()),
            cache_dir=cache_dir,
        )
        return art.build()[0]

    return toolchain.submit(build)


#: The walker, once per process.  Where it cannot exist, each linearization
#: records a ``linearize_walk`` trace event, and the process logs one warning.
RUNTIME = artifact.Runtime(
    "linearizer walker", _start, ("linearize_walk", "linearize"),
    "Algorithm 2 runs on linearize._pack", walk="building",
)


def linearizer(wait: bool = False) -> tuple[Callable[..., bool] | None, str]:
    """The walker's ``walk(plan, value, out)`` and ``"c"``; ``(None,
    "building")`` until its build lands; ``(None, "unavailable")``, with a
    ``linearize_walk`` trace event, where it cannot exist (no ``cc``, no
    ``Python.h``, a failed build).  ``wait=True`` waits for the build."""
    try:
        walk: Any = RUNTIME.get(wait)
    except Exception as exc:  # the build's boundary: report, never raise
        RUNTIME.report(exc, walk="unavailable")
        return None, "unavailable"
    return (walk, "c") if walk is not None else (None, "building")
