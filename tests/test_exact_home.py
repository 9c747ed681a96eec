"""Exact arithmetic has one home: ``fractalspec.exact``.

No other module of the package imports ``fractions`` or ``decimal`` or
calls ``as_integer_ratio``; each reads the rationals that module keeps.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fractalspec"
EXACT_MODULES = {"fractions", "decimal"}


def exact_arithmetic(tree: ast.Module):
    """Each import of an exact-arithmetic module and each call of
    ``as_integer_ratio`` in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] in EXACT_MODULES)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] in EXACT_MODULES:
                yield node.module
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "as_integer_ratio":
                yield f"line {node.lineno}: as_integer_ratio()"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_exact_arithmetic_lives_in_the_exact_module(path):
    found = list(exact_arithmetic(ast.parse(path.read_text())))
    if path.name == "exact.py":
        assert "fractions" in found  # the guard sees what it looks for
    else:
        assert found == []
