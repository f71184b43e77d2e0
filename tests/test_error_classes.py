"""Every error class of the package is raised or warned by some test."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ERRORS = ROOT / "src" / "dcheun" / "errors.py"


def error_classes(source: str) -> list:
    """Names of the classes a module defines, the base class aside."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name != "DcheunError"
    ]


def expected_names(source: str) -> set:
    """Names in the first argument of each pytest.raises / pytest.warns call,
    tuples included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("raises", "warns")
            and node.args
        ):
            continue
        for n in ast.walk(node.args[0]):
            if isinstance(n, ast.Name):
                found.add(n.id)
            elif isinstance(n, ast.Attribute):
                found.add(n.attr)
    return found


def test_checker_reads_raises_and_warns():
    src = (
        "with pytest.raises((A, errors.B), match='C'):\n    pass\n"
        "with pytest.warns(D):\n    pass\n"
        "pytest.raises(E, f, G)\n"
    )
    assert expected_names(src) == {"A", "errors", "B", "D", "E"}


def test_every_error_class_is_forced_by_a_test():
    forced = set().union(*(expected_names(p.read_text()) for p in (ROOT / "tests").glob("*.py")))
    assert sorted(set(error_classes(ERRORS.read_text())) - forced) == []
