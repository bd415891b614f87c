"""Every example script must run cleanly end to end.

Examples are the public face of the library; this keeps them from rotting.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "nested_records.py",
    "compare_runtimes.py",
    "userdefined_reductions.py",
    "pca_analysis.py",
    "kmeans_clustering.py",
    "data_mining_suite.py",
    "cluster_scaling.py",
    "lint_reductions.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_cleanly(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script} failed\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"{script} produced no output"


def test_trace_kmeans_writes_valid_trace(tmp_path):
    """The observability walkthrough runs and emits a valid Chrome trace."""
    from repro.obs import validate_chrome_trace_file

    out = tmp_path / "kmeans_trace.json"
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "trace_kmeans.py"), str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "per-thread split work" in proc.stdout
    assert validate_chrome_trace_file(out) == []
