"""Smoke test of the example scripts in ``demos/``.

Each script runs in a fresh interpreter against the source tree, with one
BLAS thread, and must exit cleanly. The conditioning demo also prints a
verdict per row that must never read VIOLATED. The shell session runs
with an ``sgmres`` command on PATH that starts the source tree's CLI.
"""

import glob
import os
import stat
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def demo_env(**extra):
    return dict(
        os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1", **extra
    )


def run_demo(path):
    return subprocess.run(
        [sys.executable, path], capture_output=True, text=True, env=demo_env(), timeout=120
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


def test_cli_session_script_runs(tmp_path):
    shim = tmp_path / "sgmres"
    shim.write_text('#!/bin/sh\nexec "%s" -m sstep_gmres "$@"\n' % sys.executable)
    shim.chmod(shim.stat().st_mode | stat.S_IXUSR)
    env = demo_env(PATH=str(tmp_path) + os.pathsep + os.environ.get("PATH", ""))
    proc = subprocess.run(
        ["sh", os.path.join(ROOT, "demos", "cli_session.sh")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the classical run stalls and reports it through exit code 2
    assert "exit code: 2" in proc.stdout
