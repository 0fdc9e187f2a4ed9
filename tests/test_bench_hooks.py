"""The benchmark's trace hooks still find every asmsim name they wrap, and its
own helper tests pass."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The hooks replace module attributes, so they run in a fresh interpreter.
INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import worker
worker.install(worker.Tracer(), worker.Counts())
print("installed")
"""


def test_perfbench_trace_hooks_install():
    proc = subprocess.run([sys.executable, "-c", INSTALL, os.path.join(ROOT, "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "installed", proc.stderr


def test_perfbench_helper_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/test_perfbench.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
