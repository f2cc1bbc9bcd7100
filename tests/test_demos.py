"""Each package name has one import path: the module that defines it.

The package root re-exports nothing. Running all the demos takes tens of
seconds, so this parses each one with ``ast`` and resolves its
``ellipsim`` imports without executing it. A name that a module merely
re-imports counts as moved: the demo should follow it to its one home.
"""
import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_package_root_binds_only_its_version():
    path = ROOT / "src" / "ellipsim" / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.Import, ast.ImportFrom)), ast.unparse(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
    assert bound == ["__version__"]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    resolved = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ellipsim":
                    importlib.import_module(alias.name)
                    resolved += 1
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "ellipsim":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module} has no {alias.name}"
                )
                home = getattr(getattr(module, alias.name), "__module__", node.module)
                assert home == node.module, (
                    f"{path.name}: {alias.name} lives in {home}, not {node.module}"
                )
                resolved += 1
    assert resolved, f"{path.name} imports nothing from ellipsim"
