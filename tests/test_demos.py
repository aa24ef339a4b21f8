"""The narrative demos run to completion against the current API.

Demo 05 is left out: it runs one pretraining and six replacement
trainings, several seconds in all, so CI runs it as a step of its own.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_fixed_point_ring.py",
    "02_shares_and_beaver.py",
    "03_secure_comparison.py",
    "04_distribution_aware_fit.py",
    "06_private_inference.py",
])
def test_demo_runs(script):
    run_demo(script)


def run_demo(script: str) -> str:
    """The demo's standard output; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_comparison_demo_ladder_matches_the_protocol():
    """Demo 03 prints its L=64 round ladder as measured: a2b 7 rounds (1 +
    ceil(log2 63)), b2a 1, and ReLU, a2b then one select, 8."""
    out = run_demo("03_secure_comparison.py")
    assert "bit width L = 64" in out
    rounds = {step.strip(): int(n) for step, n in re.findall(r"^  (\S.*?)\s+(\d+) rounds", out, re.M)}
    assert rounds == {"a2b (sign bit)": 7, "b2a (select 1)": 1, "ltz (a2b + b2a)": 8, "relu (a2b + select)": 8}
