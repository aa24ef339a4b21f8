"""The narrative demos run to completion against the current API.

Demo 05 is left out: it runs one pretraining and six replacement
trainings, several seconds in all, so CI runs it as a step of its own.
"""

import os
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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
