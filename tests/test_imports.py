"""Every name a library module imports is used in that module, and every
third-party package it imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "dcheun"
MODULES = sorted(p.name for p in PKG.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Imported names that no Name node of the module refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    src = "import os\nimport math as m\nfrom a.b import c, d\nprint(m.pi, d)\n"
    assert unused_imports(src) == ["c", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PKG / module).read_text()) == []


def third_party_imports(source: str) -> set:
    """Top-level names of the absolute imports of a module, anywhere in it
    (a function-level import counts), that are not in the standard library."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"__future__"}


def test_checker_finds_a_lazy_third_party_import():
    src = "import os, numpy as np\nfrom . import core\ndef f():\n    import scipy.special\n"
    assert third_party_imports(src) == {"numpy", "scipy"}


def test_every_third_party_import_is_a_dependency():
    # scipy and mpmath are test oracles (the ``test`` extra): no library
    # module may import them
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", dep, 1)[0].lower() for dep in project["dependencies"]}
    used = set().union(*(third_party_imports(p.read_text()) for p in PKG.glob("*.py")))
    assert sorted(used - declared) == []
