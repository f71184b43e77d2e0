"""Every module-level name a library module defines is used somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "dcheun"
MODULES = sorted(p.name for p in PKG.glob("*.py") if p.name != "__init__.py")


def defined_names(source: str) -> list:
    """Functions, classes and assigned names at module level, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def loaded_names(source: str) -> set:
    """Names a module reads: bare loads, attributes and from-imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def dead_names(source: str, sources: list) -> list:
    """Names ``source`` defines that none of ``sources`` loads."""
    used = set().union(*map(loaded_names, sources))
    return sorted(set(defined_names(source)) - used)


def test_checker_flags_a_dead_name():
    src = "A = 1\nB, C = 2, 3\n_D: int = 4\n__all__ = []\ndef f():\n    return B\nclass K:\n    pass\n"
    other = "from m import K\nimport m\nprint(m.f)\n"
    assert dead_names(src, [src, other]) == ["A", "C", "_D"]


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_module_names(module):
    sources = [p.read_text() for p in (*PKG.glob("*.py"), *(ROOT / "tests").glob("*.py"))]
    assert dead_names((PKG / module).read_text(), sources) == []
