"""Smoke test: the quick demos run to completion as scripts.

Each demo runs in a fresh interpreter with the package on ``PYTHONPATH``
and ``TMPDIR`` pointed at the test's own directory, so run directories a
demo creates with ``tempfile`` are removed with it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hydrostat

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "demo_01_spectral_playground.py",
    "demo_02_vertical_velocity_and_pressure.py",
    "demo_03_exact_solutions.py",
    "demo_04_velocity_splitting.py",
    "demo_05_rough_data_and_mollification.py",
    "demo_06_quantitative_lemmas.py",
    "demo_07_experiment_harness.py",
])
def test_demo_runs(name, tmp_path):
    src = str(Path(hydrostat.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                            cwd=tmp_path, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
