"""The walk-through demos run to completion against the current package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


# 04_benchmarks.py is left out: it rewrites the CSVs under demos/out/
@pytest.mark.parametrize("name", [
    "01_contexts_and_cases.py",
    "02_tree_compilation.py",
    "03_anytime_retrieval.py",
])
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
