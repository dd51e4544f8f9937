"""The benchmark's own self-test, run as part of the test suite.

`perfbench/selftest.py` runs every workload at its tiny size, traced and
untraced, and checks every operation: each fit converges, each fit's
objective equals its mean per-point score to 1e-8, and later passes repeat
the first bit for bit. Its outputs go to the git-ignored `perfbench/out/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
