"""The walk-through demos run to completion against the current package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
CSVS = ("alpha_sweep.csv", "budget_sweep.csv", "memory_curve.csv")


def run_demo(name, *args, hash_seed=None):
    """Run a demo to completion and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run([sys.executable, str(DEMOS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", [
    "01_contexts_and_cases.py",
    "02_tree_compilation.py",
    "03_anytime_retrieval.py",
])
def test_demo_exits_cleanly(name):
    # and prints the same under two string hash seeds
    assert run_demo(name, hash_seed=0) == run_demo(name, hash_seed=1)


def test_benchmark_demo_reproduces_committed_csvs(tmp_path):
    run_demo("04_benchmarks.py", str(tmp_path))
    for name in CSVS:
        assert (tmp_path / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name
