"""The committed output digest tool: its quick run set repeats bit for bit."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "output_digest.py")


def quick_digest():
    proc = subprocess.run(
        [sys.executable, TOOL, "--quick"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quick_set_digest_repeats():
    first = quick_digest()
    name, digest = first.split()
    assert name == "quick"
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert quick_digest() == first
