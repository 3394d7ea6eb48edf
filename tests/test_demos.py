"""Smoke test of the example scripts in ``demos/``.

Each script runs in a fresh interpreter against the source tree, with one
BLAS thread, and must exit cleanly. The conditioning demo also prints a
verdict per row that must never read VIOLATED.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, path], capture_output=True, text=True, env=env, timeout=120
    )


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if os.path.basename(path) == "basis_conditioning_bound.py":
        rows = [line for line in proc.stdout.splitlines() if line.rstrip().endswith(" ok")]
        assert rows
        assert "VIOLATED" not in proc.stdout
