"""Every name a package module imports is used in that module.

No linter is a dependency of the project, so this walks each module's
syntax tree: a name bound by an ``import`` statement must be read
somewhere in the module, as a bare name or as the root of an attribute
chain, annotations included. ``from __future__`` imports bind nothing.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ellipsim"


def unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_walker_finds_an_unused_import():
    source = "import os\nfrom typing import Dict, Tuple\nx: Dict[str, int] = {}\n"
    assert unused_imports(source) == [(1, "os"), (2, "Tuple")]


@pytest.mark.parametrize(
    "module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_package_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []
