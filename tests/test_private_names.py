"""Every module-level private function or class in src/orbitgap/ has a
caller, and every module-level import outside __init__.py is used.

A helper whose last caller is deleted still imports, and its own tests
still pass, but no program path reaches it.  This finds such a helper by
name: a `_private` definition must be named somewhere in the package
outside its own body.  An import whose last use is deleted is found the
same way: the name it binds must appear in its own module.
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


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the public surface
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{bound}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (bound := (alias.asname or alias.name).split(".")[0]) not in used
        ]
    assert not unused
