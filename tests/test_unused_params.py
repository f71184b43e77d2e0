"""Every library function reads each of its parameters."""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "dcheun"
MODULES = sorted(p.name for p in PKG.glob("*.py") if p.name != "__init__.py")


def unread_params(source: str) -> list:
    """'function(param)' for each parameter of a function or lambda that its
    body never loads; ``self`` and ``_``-prefixed names are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out += [
            f"{name}({p})" for p in params
            if p != "self" and not p.startswith("_") and p not in read
        ]
    return out


def test_checker_flags_an_unread_parameter():
    src = (
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def g(e):\n"
        "        return a\n"
        "    return g, kw\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        x = 2\n"
        "h = lambda y, z: z\n"
    )
    assert sorted(unread_params(src)) == ["<lambda>(y)", "f(args)", "f(b)", "f(d)", "g(e)", "m(x)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    assert unread_params((PKG / module).read_text()) == []
