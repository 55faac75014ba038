"""The "no floating point decides anything" rule, checked on the package
source: no float literal, no `float`, no `math` function beyond the integer
ones, and no true division except the `Path` join by a string."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "artifact"
INTEGER_MATH = {"isqrt", "gcd", "lcm", "prod"}


def float_uses(tree):
    """(line, what) for every construct of the tree that the rule forbids."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {alias.name}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            if not (isinstance(right, ast.Constant) and isinstance(right.value, str)):
                yield node.lineno, "true division"


def test_no_floating_point_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}: {what}"
        for path in files
        for line, what in float_uses(ast.parse(path.read_text()))
    ]
    assert found == []


def test_scan_catches_each_forbidden_construct():
    source = "x = 0.5\ny = float(x)\nz = math.floor(x)\nw = a / b\nv /= 2\nu = p / 'd'\n"
    lines = sorted(line for line, _ in float_uses(ast.parse(source)))
    assert lines == [1, 2, 3, 4, 5]
