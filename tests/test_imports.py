"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "dcheun"
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
