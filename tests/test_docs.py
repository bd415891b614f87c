"""Docs may only name what exists.

Every user-facing document is scanned for four kinds of reference, and each
must resolve against the checkout: repository paths, ``python -m repro.x``
entry points, back-ticked dotted ``repro.*`` names and ``REPRO_*`` environment
variables.  A deleted script, a renamed module or a removed knob then fails
here with the document and the dead name, instead of living on in prose.
CHANGES.md, ROADMAP.md and ISSUE.md are history and are not scanned.
"""

import functools
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    + list((ROOT / "docs").glob("*.md"))
    + [ROOT / "benchmarks/README.md", ROOT / "benchmarks/suite/README.md"]
)
#: git-ignored output directories: a path under one names a file a run writes
WRITTEN_BY_A_RUN = ("benchmarks/suite/results/",)

PATH = re.compile(
    r"(?<![\w/.-])(?:benchmarks|examples|tests|src|docs)/[\w./-]*\.(?:py|md|json|txt|yml)\b"
)
ENTRY_POINT = re.compile(r"python3? -m (repro(?:\.\w+)+)")
DOTTED = re.compile(r"`(repro(?:\.\w+)+)[`(]")
ENV_VAR = re.compile(r"\bREPRO_[A-Z_]+\b")


def _module(dotted: str):
    try:
        return importlib.import_module(dotted)
    except ImportError:
        return None


def _resolves(dotted: str) -> bool:
    """``a.b.c`` is a module, or an attribute chain under its longest module."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        obj = _module(".".join(parts[:cut]))
        if obj is not None:
            break
    else:
        return False
    try:
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
    except AttributeError:
        return False
    return True


@functools.cache
def _where_env_vars_are_read() -> str:
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "benchmarks/suite").glob("*.py")]
    return "\n".join(f.read_text() for f in files)


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_doc_names_only_what_exists(doc):
    text, sources = doc.read_text(), _where_env_vars_are_read()

    def found(pattern):
        return sorted(set(pattern.findall(text)))

    dead = [
        f"path {p}"
        for p in found(PATH)
        if not p.startswith(WRITTEN_BY_A_RUN) and not (ROOT / p).exists()
    ]
    dead += [f"python -m {m}" for m in found(ENTRY_POINT) if _module(m) is None]
    dead += [f"name {n}" for n in found(DOTTED) if not _resolves(n)]
    dead += [f"environment variable {v}" for v in found(ENV_VAR) if v not in sources]
    assert not dead, f"{doc.relative_to(ROOT)} names what does not exist: {dead}"
