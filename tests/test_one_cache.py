"""The package keeps one cache, the grid's band (``Grid.band``).

The sources are read as text and parsed, never imported. Every use of a
``functools`` cache (``cache``, ``lru_cache`` or ``cached_property``,
by its own name, under an import alias or as ``functools.<name>``),
as a decorator or as a call, is found. The one allowed is the
``cached_property`` on ``Grid.band``: a cache at module level lives as
long as the process and is shared by every caller in it.
"""

import ast

from tooling import ROOT

PACKAGE = ROOT / "src" / "hydrostat"
CACHES = {"cache", "lru_cache", "cached_property"}


def _cache_uses(tree):
    """(line, name) of every reference to a ``functools`` cache in ``tree``."""
    names = set(CACHES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname for a in node.names if a.name in CACHES and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            yield node.lineno, node.attr


def _band_decorator():
    """(file, line, name) of the decorator on ``Grid.band``."""
    tree = ast.parse((PACKAGE / "spectral.py").read_text())
    grid = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Grid")
    band = next(n for n in grid.body if isinstance(n, ast.FunctionDef) and n.name == "band")
    (decorator,) = band.decorator_list
    return "spectral.py", decorator.lineno, decorator.id


def test_the_grid_band_is_the_only_cache():
    uses = [(path.name, line, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for line, name in _cache_uses(ast.parse(path.read_text()))]
    assert uses == [_band_decorator()] and uses[0][2] == "cached_property", uses


def test_aliased_and_dotted_caches_are_found():
    source = ("import functools\nfrom functools import lru_cache as memo\n"
              "@memo(maxsize=1)\ndef f(): pass\ng = functools.cache(f)\n")
    assert sorted(_cache_uses(ast.parse(source))) == [(3, "memo"), (5, "cache")]
