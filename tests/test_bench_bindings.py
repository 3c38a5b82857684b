"""The benchmark's tracer rebinds program functions by module and name.

``bench/tracing.py`` calls ``getattr`` on every binding it lists, so a
renamed or removed function breaks the traced benchmark run; these tests
make that a suite failure instead.  The tracer file is only read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hydrostat

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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


def _bindings():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [(module, attr) for module, attr, _ in namespace["BINDINGS"]]


def _fresh_import_check():
    src = str(Path(hydrostat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", CHECK, json.dumps(_bindings())],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_tracer_bindings_resolve_and_runners_cover_every_kind():
    result = _fresh_import_check()
    assert result["missing"] == []
    assert set(result["runners"]) == KINDS
