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
for name in sys.argv[2:]:
    module, attr = name.rsplit(".", 1)
    delattr(worker.mod[module], attr)
worker.install(worker.Tracer(), worker.Counts())
print("installed")
"""


def _install(*removed):
    return subprocess.run([sys.executable, "-c", INSTALL, os.path.join(ROOT, "perfbench"),
                           *removed], capture_output=True, text=True, timeout=120)


def test_perfbench_trace_hooks_install():
    proc = _install()
    assert proc.returncode == 0 and proc.stdout.strip() == "installed", proc.stderr


def test_perfbench_trace_hooks_fail_on_a_missing_name():
    """The install check has teeth: a hooked name gone from asmsim stops it."""
    proc = _install("cli.encode_function")
    assert proc.returncode != 0 and "installed" not in proc.stdout
    assert "AttributeError" in proc.stderr and "encode_function" in proc.stderr


def test_perfbench_helper_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/test_perfbench.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
