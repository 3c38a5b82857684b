"""The benchmark's tracer rebinds program functions by module and name.

``bench/tracing.py`` calls ``getattr`` on every binding it lists, so a
renamed or removed function breaks the traced benchmark run; these tests
make that a suite failure instead.  The tracer file is only read.
"""

import json

from tooling import fresh_python, tracer_bindings

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
