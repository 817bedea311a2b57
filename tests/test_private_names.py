"""Every module-level private function or class in src/orbitgap/ has a caller.

A helper whose last caller is deleted still imports, and its own tests
still pass, but no program path reaches it.  This finds such a helper by
name: a `_private` definition must be named somewhere in the package
outside its own body.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "orbitgap"


def _names(top):
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _private(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__"))


def test_every_private_definition_is_named_elsewhere():
    bodies = {path.name: ast.parse(path.read_text()).body for path in sorted(SRC.glob("*.py"))}
    assert "subspace.py" in bodies
    named = [(top, set(_names(top))) for body in bodies.values() for top in body]
    orphans = [
        f"{module}:{node.name}"
        for module, body in bodies.items()
        for node in body
        if _private(node) and not any(node.name in names for top, names in named if top is not node)
    ]
    assert not orphans
