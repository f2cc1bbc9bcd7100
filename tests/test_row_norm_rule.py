"""No package module takes row norms outside ``linalg.row_norms``.

The unit-ball rule compares each row's norm with ``1 + NORM_SLACK``, and
``np.linalg.norm(rows, axis=1)`` sums a Fortran-ordered or strided array in
another order than a C-ordered one, so a second way of taking row norms
could refuse rows the first accepts. This walks each module's syntax tree
for a call of ``np.linalg.norm`` (or ``numpy.linalg.norm``, or a bare
``norm``) that passes ``axis``, by keyword or as the third positional
argument.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ellipsim"


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def axis_norm_calls(source: str):
    """Lines of ``linalg.norm`` calls that pass an ``axis``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name != "norm" and not name.endswith("linalg.norm"):
            continue
        if len(node.args) >= 3 or any(kw.arg == "axis" for kw in node.keywords):
            lines.append(node.lineno)
    return lines


def test_the_walker_finds_an_axis_norm():
    source = (
        "import numpy as np\n"
        "a = np.linalg.norm(x)\n"
        "b = np.linalg.norm(x, axis=1)\n"
        "c = numpy.linalg.norm(x, None, 1)\n"
        "d = norm(x, axis=0, keepdims=True)\n"
        "e = np.sqrt((x * x).sum(axis=1))\n"
    )
    assert axis_norm_calls(source) == [3, 4, 5]


@pytest.mark.parametrize(
    "module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_package_module_takes_row_norms_only_through_linalg(module):
    assert axis_norm_calls(module.read_text()) == []
