"""Smoke test: the quick demos run to completion as scripts.

Each demo runs in a fresh interpreter with the package on ``PYTHONPATH``
and ``TMPDIR`` pointed at the test's own directory, so run directories a
demo creates with ``tempfile`` are removed with it.
"""

import pytest
from tooling import ROOT, fresh_python

DEMOS = ROOT / "demos"


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
    result = fresh_python([str(DEMOS / name)], env=dict(TMPDIR=str(tmp_path)),
                          cwd=tmp_path, timeout=300)
    assert result.returncode == 0, result.stderr
