"""Every private name in the package is read somewhere besides its own definition.

A private top-level name (function, class or assignment) or a private
method that nothing reads is dead code: the public names are pinned by the
lazy import table, the bench's layer map and the tests, but a private one
has only its callers inside ``src/fractalspec``.  The walk counts a read
as a ``Name`` or ``Attribute`` load, or an import, anywhere in the package
outside the definition itself, so a function that only calls itself still
counts as unread.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fractalspec"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(module: ast.Module):
    """(name, node) for each private top-level name and private method."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if is_private(node.name):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_private(item.name):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and is_private(name.id):
                        yield name.id, None


def reads(module: ast.Module):
    """(name, node) for each read of a name in a module."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def package_modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def unread_private_names(modules: dict) -> list[str]:
    defined = [
        (file, name, node)
        for file, module in modules.items()
        for name, node in private_definitions(module)
    ]
    read = [(name, node) for module in modules.values() for name, node in reads(module)]
    unread = []
    for file, name, definition in defined:
        inside = set() if definition is None else {id(n) for n in ast.walk(definition)}
        if not any(seen == name and id(node) not in inside for seen, node in read):
            unread.append(f"{file}: {name}")
    return unread


def test_every_private_name_is_read():
    modules = package_modules()
    assert sum(1 for module in modules.values() for _ in private_definitions(module)) > 50
    assert unread_private_names(modules) == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("def _f():\n    return _f()\n", ["m.py: _f"]),
        ("class C:\n    def _g(self):\n        return self._g()\n", ["m.py: _g"]),
        ("_X = 1\n", ["m.py: _X"]),
        ("_X = 1\ndef f():\n    return _X\n", []),
        ("class _C:\n    pass\nclass D(_C):\n    pass\n", []),
        ("def __getattr__(name):\n    return name\n", []),
    ],
    ids=["recursive-only", "method-recursive-only", "constant", "read-constant", "base-class", "dunder"],
)
def test_walk_finds_unread_names(source, unread):
    assert unread_private_names({"m.py": ast.parse(source)}) == unread
