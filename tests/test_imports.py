"""Every name a package module imports is used in that module, and every
private module-level name is read somewhere in the package.

No linter is a dependency of the project, so this walks each module's
syntax tree: a name bound by an ``import`` statement must be read
somewhere in the module, as a bare name or as the root of an attribute
chain, annotations included. ``from __future__`` imports bind nothing.
A module-level function, class or variable whose name has one leading
underscore must be read in some package module, as a bare name or as an
attribute, so nothing private is kept that nothing uses.
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


def private_definitions(source: str):
    """Module-level names with one leading underscore, and their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def names_read(source: str):
    """Every name a module reads, as a bare name or as an attribute."""
    tree = ast.parse(source)
    loads = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return loads | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_the_walker_finds_an_unread_private_name():
    source = (
        "_A = 1\n_B, __all__ = 2, []\n\n"
        "def _f():\n    return _A\n\n"
        "class _C:\n    _d = 3\n"
    )
    assert private_definitions(source) == {"_A": 1, "_B": 2, "_f": 4, "_C": 7}
    assert sorted(set(private_definitions(source)) - names_read(source)) == [
        "_B",
        "_C",
        "_f",
    ]


def test_every_private_module_level_name_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(names_read(source) for source in sources.values()))
    unread = [
        (module, line, name)
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    ]
    assert unread == []
