"""Shared test tooling: a fresh interpreter on the package's sources, and
the benchmark's tracer bindings and set-up markers read from its source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hydrostat

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(hydrostat.__file__).resolve().parents[1]


def fresh_python(args, env=None, **kwargs):
    """``python *args`` in a fresh interpreter, with the directory of the
    imported ``hydrostat`` first on ``PYTHONPATH``.

    ``env`` adds to this process's environment; other keywords go to
    ``subprocess.run``, which captures stdout and stderr as text.
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, **(env or {}),
                                                            PYTHONPATH=path),
                          capture_output=True, text=True, **kwargs)


def tracer_bindings():
    """(module, name) of every binding that ``bench/tracing.py`` rebinds, in
    the order of its ``BINDINGS``, parsed as a literal and never run."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "BINDINGS" for t in node.targets):
            return [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no BINDINGS")


def bench_markers():
    """(module, name) of every function whose first call ends a round's
    set-up in ``bench/workloads.py``: the string pairs handed to
    ``_experiment_round`` and the ``prog.<module>.<name>`` wrapped by
    ``FirstCall``, found by parsing the file, never running it."""
    markers = set()
    for node in ast.walk(ast.parse((ROOT / "bench" / "workloads.py").read_text())):
        name = getattr(getattr(node, "func", None), "id", None)
        if name == "_experiment_round" and len(node.args) >= 6:
            markers.add(tuple(ast.literal_eval(a) for a in node.args[4:6]))
        elif name == "FirstCall" and isinstance(node.args[0], ast.Attribute):
            markers.add((node.args[0].value.attr, node.args[0].attr))
    return markers
