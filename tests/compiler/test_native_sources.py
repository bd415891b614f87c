"""The hand-written C of the native package compiles warning-free.

Every ``*.c`` file in ``repro/compiler/native/`` — the linearizer walker
(``walk.c``) and the lane-team runtime (``team.c``, with ``team.h``) — is
built once per process, and only on the first cold start of a cache; this
checks each, found by glob, with ``-fsyntax-only -Wall -Wextra -Werror``
under the toolchain ``REPRO_CC`` names, against this interpreter's headers
and NumPy's, so a warning fails here rather than in one user's build.
"""

import subprocess
from pathlib import Path

import pytest

from repro.compiler import native
from repro.compiler.native import probe_toolchain

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

WARNINGS = ("-fsyntax-only", "-Wall", "-Wextra", "-Werror")
SOURCES = sorted(Path(native.__file__).parent.glob("*.c"))


def test_the_package_holds_its_c_sources():
    assert {path.name for path in SOURCES} >= {"team.c", "walk.c"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_the_runtime_source_compiles_without_a_warning(path):
    try:
        includes = [f"-isystem{d}" for d in native.walker._includes()]
    except native.NativeUnsupported as exc:  # no Python.h: only the walker needs it
        if "<Python.h>" in path.read_text():
            pytest.skip(str(exc))
        includes = []
    run = subprocess.run(
        [probe_toolchain()["cc"], *WARNINGS, *includes, str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
