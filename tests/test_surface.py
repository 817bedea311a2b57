"""The public surface: what `orbitgap` exports and what the benchmark calls.

The benchmark files are read as text, never imported or edited, so this
guards them without depending on their own imports.
"""

import ast
import importlib
import pathlib

import orbitgap

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level {name} assignment")


def test_every_exported_name_resolves():
    namespace = {}
    exec("from orbitgap import *", namespace)
    missing = [name for name in orbitgap.__all__ if name not in namespace]
    assert not missing


def test_benchmark_layers_exist():
    layers = _assigned(ast.parse((PERFBENCH / "tracing.py").read_text()), "LAYERS")
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"orbitgap.{layer}"), name, None))
    ]
    assert not missing


def test_benchmark_library_calls_exist():
    # every og.<name> and records.<name> the workloads and the runner use
    modules = {"og": orbitgap, "records": importlib.import_module("orbitgap.records")}
    missing = set()
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "run.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)):
                missing.add(f"{node.value.id}.{node.attr}")
    assert not missing
