"""The hand-written C kept in Python strings compiles warning-free.

The linearizer walker (``native._WALK_SOURCE``) and the lane-team runtime
(``native._TEAM_SOURCE``) are built once per process, and only on the first
cold start of a cache; this checks both with ``-fsyntax-only -Wall -Wextra
-Werror`` under the toolchain ``REPRO_CC`` names, against this interpreter's
headers and NumPy's, so a warning fails here rather than in one user's build.
"""

import subprocess

import pytest

from repro.compiler import native
from repro.compiler.native import probe_toolchain

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

WARNINGS = ("-fsyntax-only", "-Wall", "-Wextra", "-Werror")


def _includes():
    try:
        return [f"-isystem{d}" for d in native._walker_includes()]
    except native.NativeUnsupported as exc:
        pytest.skip(str(exc))


@pytest.mark.parametrize(
    "source, prefix, includes",
    [(native._WALK_SOURCE, "repro_walk", _includes), (native._TEAM_SOURCE, "repro_team", list)],
    ids=["walker", "team"],
)
def test_the_runtime_source_compiles_without_a_warning(tmp_path, source, prefix, includes):
    path = tmp_path / f"{prefix}.c"
    path.write_text(source.replace(native._SYMBOL_SENTINEL, f"{prefix}_check"))
    run = subprocess.run(
        [probe_toolchain()["cc"], *WARNINGS, *includes(), str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
