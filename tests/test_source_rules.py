"""Rules checked on the package source.

- "No floating point decides anything": no float literal, no `float`, no
  `math` function beyond the integer ones, and no true division except the
  `Path` join by a string.
- No dead API: every function, class, method or property the package
  defines is used by the package, or is allowed by name with a reason.
- Integers inside: `fractions` is imported only where a rational enters.
- Doubled coordinates belong to `quadring`: no other module halves a
  product, as the product of two (p, q) pairs does."""

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


# The modules that may import `fractions`, and why.
FRACTION_IMPORTERS = {
    "cli.py": "a user's cutoff M is parsed as a Fraction",
    "dplus.py": "the enumerators take a cutoff M = a/b as a Fraction",
    "quadring.py": "QuadInt ==, order and compare_values accept a Fraction",
}


def fraction_imports(tree):
    """Lines of every import of the `fractions` module or of a name
    `Fraction`, from any module, in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "fractions" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "fractions"
            or any(alias.name == "Fraction" for alias in node.names)
        ):
            yield node.lineno


def test_fractions_only_where_a_rational_enters():
    importers = {
        path.name
        for path in SRC.glob("*.py")
        if any(fraction_imports(ast.parse(path.read_text())))
    }
    # a module that stops importing it leaves the list
    assert importers == set(FRACTION_IMPORTERS)


def test_fraction_scan_catches_each_import():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "from .quadring import Fraction\n"
        "import math, fractions as fr\n"
        "from fractions import *\n"
        "from .dplus import in_dplus\n"
        "x = Fraction\n"
    )
    assert sorted(fraction_imports(ast.parse(source))) == [1, 2, 3, 4, 5]


def halved_products(tree):
    """Lines of every floor division by 2 of an expression that contains a
    product, such as (p*r + N*q*s) // 2."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 2
            and any(
                isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
                for sub in ast.walk(node.left)
            )
        ):
            yield node.lineno


def test_doubled_coordinates_multiply_only_in_quadring():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "quadring.py"
        for line in halved_products(ast.parse(path.read_text()))
    ]
    assert found == []


def test_halved_product_scan_catches_each_form():
    source = (
        "a = (p * r + N * q * s) // 2\n"
        "b = p * q // 2\n"
        "c = (t * u) // 2\n"
        "d = (p + s) // 2\n"
        "e = p * q // 4\n"
        "f = p // 2\n"
    )
    assert sorted(halved_products(ast.parse(source))) == [1, 2, 3]


# Defined in the package, used by nothing in it, and kept for a reason.
UNUSED_ALLOWED = {
    "tambara_yamagami_dim": "a family formula of the paper; public API",
    "near_group_dim": "a family formula of the paper; public API",
    "haagerup_izumi_dim": "a family formula of the paper; public API",
    "generalized_near_group_check": "a family formula of the paper; public API",
    "cardinality_bound": "the paper's bound on the count below M; public API",
    "cf_expand": "perfbench's tracer looks it up by name",
    "delta_combos": "perfbench's worker draws its deltas from it",
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_definitions(trees: dict) -> list[str]:
    """"file:line: name" of every function, class, method or property that
    the trees define and that no name, attribute or import in them uses.
    Dunder methods are used by the language, and are not reported."""
    used, defined = set(), []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, DEFINITIONS):
                defined.append((name, node.lineno, node.name))
    return [
        f"{name}:{line}: {what}"
        for name, line, what in sorted(defined)
        if what not in used and not (what.startswith("__") and what.endswith("__"))
    ]


def test_no_unused_definitions_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    found = unused_definitions(trees)
    assert [f for f in found if f.rsplit(" ", 1)[1] not in UNUSED_ALLOWED] == []
    # an allowed name that is used again, or gone, leaves the list
    assert sorted(f.rsplit(" ", 1)[1] for f in found) == sorted(UNUSED_ALLOWED)


def test_unused_scan_flags_each_kind_of_definition():
    source = {
        "a.py": (
            "class Dead:\n"
            "    def method(self): pass\n"
            "    @property\n"
            "    def prop(self): return 1\n"
            "    def __eq__(self, other): return True\n"
            "def dead(): pass\n"
            "def called(): pass\n"
            "class Live:\n"
            "    def attr(self): pass\n"
        ),
        "b.py": "from a import Live\ncalled()\nLive().attr()\n",
    }
    found = unused_definitions({k: ast.parse(v) for k, v in source.items()})
    assert found == ["a.py:1: Dead", "a.py:2: method", "a.py:4: prop", "a.py:6: dead"]
