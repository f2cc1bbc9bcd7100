"""Every named tolerance is in use.

A constant in ``tolerances`` whose code has gone would still read as a
live setting, so each one must be read somewhere else in the package.
"""
import ast
import pathlib

from ellipsim import tolerances

PACKAGE = pathlib.Path(tolerances.__file__).resolve().parent


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_tolerance_is_read_by_another_module():
    defined = {
        target.id
        for node in _parse(PACKAGE / "tolerances.py").body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert defined
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(_parse(path)):
            # an import alone is not a read: the name must be used
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(defined - read) == []
