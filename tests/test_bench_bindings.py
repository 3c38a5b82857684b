"""The benchmark rebinds program functions by module and name.

``bench/tracing.py`` calls ``getattr`` on every binding it lists, so a
renamed or removed function breaks the traced benchmark run; and
``bench/workloads.py`` ends each round's set-up at the first call of a
module global, so a run that stops calling it through that module reads
no set-up time.  These tests make both a suite failure instead.  The
bench files are only read.
"""

import importlib
import json

import numpy as np
import pytest

from hydrostat import experiments, solver
from hydrostat.config import parse_config
from hydrostat.spectral import EVEN, Grid, field_from_function
from tooling import bench_markers, fresh_python, tracer_bindings

KINDS = {"energy_identity", "decomposition", "stability", "mollification",
         "lemma_suite"}

CHECK = """
import importlib, json, sys
bindings = json.loads(sys.argv[1])
missing = [f"{m}.{a}" for m, a in bindings
           if not callable(getattr(importlib.import_module(f"hydrostat.{m}"), a, None))]
runners = sorted(importlib.import_module("hydrostat.experiments")._RUNNERS)
print(json.dumps({"missing": missing, "runners": runners}))
"""


def _fresh_import_check():
    out = fresh_python(["-c", CHECK, json.dumps(tracer_bindings())], check=True)
    return json.loads(out.stdout)


def test_tracer_bindings_resolve_and_runners_cover_every_kind():
    result = _fresh_import_check()
    assert result["missing"] == []
    assert set(result["runners"]) == KINDS


TINY = """
[grid]
nx = 8
ny = 8
nz = 8
[time]
dt = 2e-3
t_end = 4e-3
[experiment]
kind = {kind}
moser_count = 2
ladyzhenskaya_count = 1
[output]
directory = {out}
"""


def _integrate(tmp_path):
    v0 = field_from_function(Grid.make(8, 8, 8, 0.5), lambda X, Y, Z: (
        0.1 * np.cos(2 * np.pi * Z), 0.2 * np.cos(2 * np.pi * X)), EVEN)
    solver.integrate(solver.make_state(v0, 0.0, solver.PhysicsParams(1.0)),
                     solver.StepControl(dt=2e-3), 4e-3)


def _run(kind):
    return lambda tmp_path: experiments.run_experiment(
        parse_config(text=TINY.format(kind=kind, out=tmp_path / kind)))


# the run each marker's workload makes: split-32, smooth-64 and lemmas
TINY_RUNS = {("decomposition", "step"): _run("decomposition"),
             ("solver", "step"): _integrate,
             ("experiments", "random_instance"): _run("lemma_suite")}


def test_bench_markers_are_the_tiny_runs():
    assert bench_markers() == set(TINY_RUNS)


@pytest.mark.parametrize("marker", sorted(TINY_RUNS), ids=".".join)
def test_bench_marker_is_reached_through_its_module(marker, tmp_path, monkeypatch):
    module = importlib.import_module(f"hydrostat.{marker[0]}")
    calls = []
    fn = getattr(module, marker[1])
    monkeypatch.setattr(module, marker[1], lambda *a, **k: calls.append(1) or fn(*a, **k))
    TINY_RUNS[marker](tmp_path)
    assert calls
