"""Every public name in the package has a caller outside the tests.

The sources are read as text and tokenized, never imported, so comments
and strings do not count as references. A public ``def`` or ``class``
(methods included) must be named in ``src/`` somewhere other than its own
definition, or in ``demos/`` or ``bench/``. A name that only the tests
call belongs in the test that uses it.

The package's ``__init__.py`` is left out of the scan: a re-export there
names every public function once, so it would count as a caller of each.

No module keeps an import it does not use, unless the benchmark's tracer
rebinds that name on that module: the ``(module, name)`` pairs of
``BINDINGS`` in ``bench/tracing.py``, read here as a literal.
"""

import ast
import io
import tokenize
from collections import Counter

from tooling import ROOT, tracer_bindings

PACKAGE = ROOT / "src" / "hydrostat"


def _names(paths):
    """Count of every NAME token in the given files."""
    counts = Counter()
    for path in paths:
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        counts.update(tok.string for tok in tokens if tok.type == tokenize.NAME)
    return counts


def _public_definitions(path):
    """(qualified name, bare name) of each public module-level def/class and
    of each public method of a module-level class."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    definitions = [d for path in sources for d in _public_definitions(path)]
    defined = Counter(name for _, name in definitions)
    in_src = _names(sources)
    outside = _names(sorted(ROOT.glob("demos/**/*.py"))
                     + sorted(ROOT.glob("bench/**/*.py")))
    uncalled = [qual for qual, name in definitions
                if in_src[name] <= defined[name] and not outside[name]]
    assert not uncalled, f"public names that only tests call: {uncalled}"


def test_every_import_is_used_or_rebound_by_the_tracer():
    kept = set(tracer_bindings())
    unused = []
    for path in sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in kept:
                        unused.append(f"{path.stem}.{name}")
    assert not unused, f"imported but never used: {unused}"
