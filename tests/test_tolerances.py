"""Every threshold is named once, in ``dcheun/tolerances.py``, with its reason."""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "dcheun"
TABLE = PKG / "tolerances.py"
MODULES = sorted(p.name for p in PKG.glob("*.py") if p.name != TABLE.name)


def threshold_literals(source: str) -> list:
    """(line, value) of each float or complex literal with 0 < |x| < 1e-2 or
    |x| >= 1e2: the sizes a tolerance, floor or cap takes."""
    found = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and type(node.value) in (float, complex)
        and (0 < abs(node.value) < 1e-2 or abs(node.value) >= 1e2)
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [(node.lineno, node.value) for node in found]


def uncommented_entries(source: str) -> list:
    """Names of table entries that are not UPPER_CASE or lack a non-empty
    comment line directly above them; any statement that is not an
    assignment (or the docstring) is reported by its line."""
    lines = source.splitlines()
    body = ast.parse(source).body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    out = []
    for node in body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            out.append(f"line {node.lineno}")
            continue
        name = getattr(node.targets[0], "id", f"line {node.lineno}")
        above = lines[node.lineno - 2].strip() if node.lineno > 1 else ""
        if not name.isupper() or not above.startswith("#") or not above.lstrip("#").strip():
            out.append(name)
    return out


def test_checker_flags_a_planted_threshold():
    src = '"""Docstring quoting 1e-9 is text."""\nif err < 1e-9:\n    pass\nx = 0.5 * 2 + 0j\n'
    assert threshold_literals(src) == [(2, 1e-9)]
    assert threshold_literals("y = 3e2 * z + 2e-3j\n") == [(1, 300.0), (1, 2e-3j)]


def test_checker_flags_an_uncommented_entry():
    src = (
        '"""Table."""\n\n# why A\nA = 1e-9\n\nB = 2\n# \nC = 3\n'
        "# why d\nd = 4\nimport os\n"
    )
    assert uncommented_entries(src) == ["B", "C", "d", "line 11"]


@pytest.mark.parametrize("module", MODULES)
def test_no_threshold_literal_outside_the_table(module):
    assert threshold_literals((PKG / module).read_text()) == []


def test_every_table_entry_has_its_reason():
    assert uncommented_entries(TABLE.read_text()) == []
