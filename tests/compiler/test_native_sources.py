"""The hand-written C of the native package compiles warning-free, and
``freeride.h`` is the one place the native contract is written.

Every ``*.c`` file in ``repro/compiler/native/`` — the linearizer walker
(``walk.c``) and the lane-team runtime (``team.c``) — is built once per
process, and only on the first cold start of a cache; this checks each,
found by glob, and ``freeride.h`` on its own, with ``-fsyntax-only -Wall
-Wextra -Werror`` under the toolchain ``REPRO_CC`` names, against this
interpreter's headers and NumPy's, so a warning fails here rather than in
one user's build.  The header is also what cffi parses: no Python string
spells a ``ranges`` parameter list or a C struct again, and ``team.c`` calls
the kernel through the header's type.  ``team_driver.c`` runs ``team.c``'s
lanes on pthreads with no Python at all.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.compiler import native
from repro.compiler.native import probe_toolchain

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

WARNINGS = ("-fsyntax-only", "-Wall", "-Wextra", "-Werror")
NATIVE = Path(native.__file__).parent
SOURCES = sorted(NATIVE.glob("*.c"))
HEADER = NATIVE / "freeride.h"
DRIVER = Path(__file__).parent / "team_driver.c"


def test_the_package_holds_its_c_sources():
    assert {path.name for path in SOURCES} >= {"team.c", "walk.c"}
    assert HEADER.exists() and not (NATIVE / "team.h").exists()


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


def test_the_header_compiles_alone_without_a_warning():
    run = subprocess.run(
        [probe_toolchain()["cc"], "-x", "c", *WARNINGS, str(HEADER)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_the_contract_ffi_parses_the_header():
    ffi = native.artifact.contract_ffi()
    codes = ffi.typeof("enum freeride_rc").relements
    assert codes["FREERIDE_UNSTORED"] == 100
    assert set(native.printer._RC_MESSAGES) == set(codes) - {"FREERIDE_UNSTORED"}
    assert [name for name, _ in ffi.typeof("struct freeride_ro").fields] == [
        "acc", "off", "n", "op", "groups", "proven", "touched",
    ]
    ranges = ffi.typeof("freeride_ranges *")
    assert ranges.kind == "function" and len(ranges.args) == 7
    assert ranges.args[5] is ffi.typeof("struct freeride_ro *")
    lane = dict(ffi.typeof("struct freeride_lane").fields)
    assert lane["fn"].type is ranges
    assert lane["ro"].type is ffi.typeof("const struct freeride_ro *")


def test_racing_first_calls_share_one_contract():
    # build threads load kernels at once; a second parse of the header would
    # give a kernel struct types no other library accepts
    run = subprocess.run(
        [sys.executable, "-c", (
            "import threading\n"
            "from repro.compiler.native import artifact\n"
            "got, start = [], threading.Barrier(4)\n"
            "def first():\n"
            "    start.wait()\n"
            "    got.append(artifact.contract_ffi())\n"
            "threads = [threading.Thread(target=first) for _ in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "print(len({id(ffi) for ffi in got}))\n"
        )],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1"]


def _cdef_texts():
    """The string literal parts of every ``*.cdef(...)`` call under src/repro."""
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "cdef"):
                yield path.name, " ".join(
                    part.value for arg in node.args for part in ast.walk(arg)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                )


def test_no_cdef_spells_a_signature_or_a_struct():
    texts = list(_cdef_texts())
    assert texts, "the cffi declarations moved: find them again"
    for where, text in texts:
        assert "(" not in text, (where, text)
        assert not re.search(r"struct\s*\w*\s*\{", text), (where, text)


def test_team_c_calls_the_kernel_through_the_header_s_type():
    source = (NATIVE / "team.c").read_text()
    assert '#include "freeride.h"' in source
    assert not re.search(r"typedef[^;]*\(\s*\*", source), "a function-pointer typedef"
    assert "_ADDR" not in source


@pytest.fixture(scope="module")
def team_driver(tmp_path_factory):
    """``team_driver.c`` built with ``CC_FLAGS`` less ``-shared`` (it is a
    program, not a library)."""
    out = tmp_path_factory.mktemp("driver") / "team_driver"
    flags = [flag for flag in native.CC_FLAGS if flag != "-shared"]
    run = subprocess.run(
        [probe_toolchain()["cc"], str(DRIVER), f"-I{NATIVE}", *flags, "-pthread",
         "-o", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return out


@pytest.mark.parametrize("lanes", [2, 3, 8])
def test_the_team_runs_without_python(team_driver, lanes):
    run = subprocess.run(
        [str(team_driver), str(lanes), "10000"], capture_output=True, text=True, timeout=60,
    )
    words = run.stdout.split()
    tally = dict(zip(words[::2], map(int, words[1::2])))
    assert run.returncode == 0, (run.stdout, run.stderr)
    assert tally["lanes"] == lanes and tally["waves"] == 10000
    # every position of each clean wave was claimed exactly once
    assert tally["once"] == tally["positions"] > 0
    # a lane that returned nonzero poisoned its wave, which stopped short
    assert tally["poisoned"] == tally["short"] == tally["failing"] > 0
    # the stop ended every lane
    assert tally["joined"] == lanes
