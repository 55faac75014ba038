"""Rules checked on the package source.

- "No floating point decides anything": no float literal, no `float`, no
  `math` function beyond the integer ones, and no true division.
- No dead API: every function, class, method, property or NamedTuple
  field the package defines is used by the package, or is allowed by name
  with a reason.  The names that perfbench looks up exist.
- Integers inside: `fractions` is imported only where a rational enters.
- One reader of an operand: nothing but `quadring._coordinates` asks
  `isinstance(x, Fraction)`.
- Doubled coordinates belong to `quadring`: no other module halves a
  product, as the product of two (p, q) pairs does.
- A quick start: records are `NamedTuple`s, and importing the CLI loads
  neither `dataclasses` nor the modules it pulls in, nor `pathlib`, nor
  `random`, which only the largest factorizations use, nor `argparse`,
  which only help and usage errors use.
- No module-global mutable state beyond the listed caches: every
  `lru_cache` or `cache` in the package is allowed by name with a reason."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from artifact.dnumbers import DivisibilityVerdict, FieldRecord
from artifact.dplus import DPlusElement
from artifact.fusion import decompose_global_dim, quantum_group_table
from artifact.quadring import QuadInt
from artifact.units import cf_expand, fundamental_unit
from oracles import cf_digits

SRC = Path(__file__).resolve().parent.parent / "src" / "artifact"
PERFBENCH = SRC.parent.parent / "perfbench"
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
    assert lines == [1, 2, 3, 4, 5, 6]


# The modules that may import `fractions`, and why.
FRACTION_IMPORTERS = {
    "cli.py": "a user's cutoff M is parsed as a Fraction",
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


def fraction_tests(tree):
    """(line, function) for every isinstance test against `Fraction` in the
    tree, with the innermost function that holds it ("" at module level)."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "isinstance"
                and len(child.args) == 2
                and any(
                    getattr(sub, "id", getattr(sub, "attr", None)) == "Fraction"
                    for sub in ast.walk(child.args[1])
                )
            ):
                yield child.lineno, owner
            yield from visit(child, owner)

    return list(visit(tree, ""))


def test_fraction_is_read_only_by_coordinates():
    """`quadring._coordinates` is the one reader of an operand: no other
    code asks whether a value is a Fraction."""
    found = [
        f"{path.name}:{line}: {owner}"
        for path in sorted(SRC.glob("*.py"))
        for line, owner in fraction_tests(ast.parse(path.read_text()))
        if (path.name, owner) != ("quadring.py", "_coordinates")
    ]
    assert found == []


def test_fraction_test_scan_catches_each_form():
    source = (
        "isinstance(x, Fraction)\n"
        "def f(x): return isinstance(x, (int, Fraction))\n"
        "def g(x):\n"
        "    def h(y): return isinstance(y, fractions.Fraction)\n"
        "    return isinstance(x, int)\n"
        "class C:\n"
        "    def m(self, x): return isinstance(x, (int, (bool, Fraction)))\n"
        "y = Fraction(1, 2)\n"
        "z = lambda x: isinstance(x, Fraction)\n"
    )
    assert fraction_tests(ast.parse(source)) == [
        (1, ""), (2, "f"), (4, "h"), (7, "m"), (9, ""),
    ]


# The modules that may import `units`, and why.  Every other layer reads eps
# and N(eps) from the cached field record, so each field's unit runs once.
UNIT_IMPORTERS = {
    "dnumbers.py": "the field record is built from the unit",
    "cli.py": "`dnum unit` and `table units` print the unit itself",
}


def unit_imports(tree):
    """Lines of every import of the `units` module or of a name from it,
    relative or absolute, in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.rsplit(".", 1)[-1] == "units" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").rsplit(".", 1)[-1] == "units"
            or any(alias.name == "units" for alias in node.names)
        ):
            yield node.lineno


def test_units_imported_only_by_the_record_and_the_cli():
    importers = {
        path.name
        for path in SRC.glob("*.py")
        if any(unit_imports(ast.parse(path.read_text())))
    }
    assert importers == set(UNIT_IMPORTERS)


def test_unit_scan_catches_each_import():
    source = (
        "from .units import fundamental_unit\n"
        "from . import dplus, units\n"
        "import artifact.units\n"
        "from artifact.units import *\n"
        "from artifact import units as u\n"
        "from .dnumbers import generator_set\n"
        "from .quadring import unit\n"
    )
    assert sorted(unit_imports(ast.parse(source))) == [1, 2, 3, 4, 5]


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
    # test_the_names_perfbench_looks_up_exist checks these three
    "cf_expand": "perfbench's tracer looks it up by name",
    "delta_combos": "perfbench's worker draws its deltas from it",
    "record": "perfbench's enumerate digest joins it",
    "CFExpansion.preamble": "only tests read it; perfbench pins cf_expand",
    "CFExpansion.period": "only tests read it; perfbench pins cf_expand",
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def namedtuple_fields(tree):
    """(line, Class.field, field) for every field of every NamedTuple class
    that the tree defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
            for base in node.bases
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    field = item.target.id
                    yield item.lineno, f"{node.name}.{field}", field


def unused_definitions(trees: dict) -> list[str]:
    """"file:line: name" of every function, class, method or property that
    the trees define and that no name, attribute or import in them uses,
    and "file:line: Class.field" of every NamedTuple field that no
    attribute in them reads.  A method, property or field is used only
    through an attribute (x.name), so a local variable of the same name
    does not hide it.  Dunder methods are used by the language, and are not
    reported."""
    names, attrs, defined = set(), set(), []
    for name, tree in trees.items():
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, DEFINITIONS)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, DEFINITIONS):
                defined.append(
                    (name, node.lineno, node.name, node.name, id(node) in methods)
                )
        defined += [
            (name, line, what, field, True)
            for line, what, field in namedtuple_fields(tree)
        ]
    return [
        f"{name}:{line}: {what}"
        for name, line, what, used_as, member in sorted(defined)
        if used_as not in (attrs if member else names | attrs)
        and not (used_as.startswith("__") and used_as.endswith("__"))
    ]


def test_no_unused_definitions_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    found = unused_definitions(trees)
    assert [f for f in found if f.rsplit(" ", 1)[1] not in UNUSED_ALLOWED] == []
    # an allowed name that is used again, or gone, leaves the list
    assert sorted(f.rsplit(" ", 1)[1] for f in found) == sorted(UNUSED_ALLOWED)


def tracer_constant(name: str):
    """The literal value of the module-level constant `name` of
    perfbench/tracer.py, read from its source."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py has no {name}")


def test_the_names_perfbench_looks_up_exist():
    """perfbench's tracer wraps each (module, name) of FUNCTIONS and each
    QuadInt method of QUADINT_GROUPS, and its worker calls
    FieldRecord.delta_combos and DPlusElement.record: a cleanup that drops
    one breaks `perfbench/run.py --trace 1`, which no other test runs."""
    functions = tracer_constant("FUNCTIONS")
    assert functions
    for _, module, name in functions:
        found = getattr(importlib.import_module(f"artifact.{module}"), name, None)
        assert callable(found), (module, name)
    for methods in tracer_constant("QUADINT_GROUPS").values():
        for method in methods:
            assert method in QuadInt.__dict__, method
    worker = (PERFBENCH / "worker.py").read_text()
    for cls, name in ((FieldRecord, "delta_combos"), (DPlusElement, "record")):
        assert f".{name}()" in worker and callable(getattr(cls, name, None)), name


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
            "    def shadowed(self): pass\n"
            "class Row(NamedTuple):\n"
            "    read: int\n"
            "    unread: int\n"
        ),
        # a local variable of a method's or a field's name does not use it
        "b.py": (
            "from a import Live, Row\ncalled()\nLive().attr()\nshadowed = 1\n"
            "Row(1, 2).read\nunread = 2\n"
        ),
    }
    found = unused_definitions({k: ast.parse(v) for k, v in source.items()})
    assert found == [
        "a.py:1: Dead", "a.py:2: method", "a.py:4: prop", "a.py:6: dead",
        "a.py:10: shadowed", "a.py:13: Row.unread",
    ]


# The package's caches, and why each may hold state for the life of the
# process.  Each maps an argument to a value that never changes.
CACHES_ALLOWED = {
    "_field": "interns one QuadField per N: QuadInt compares fields by identity first",
    "_field_record": "the unit, kappas and generator rows of field N are built once",
    "_primes": "the sieve of primes up to 10^6 is built once, on first use",
    "_prime_block": "the product of each block of sieve primes, on first use",
    "_build_parser": "the dnum parser is built once; parsing never mutates it",
}
CACHE_NAMES = ("lru_cache", "cache")


def cached_names(tree):
    """(line, name) for every mention of `lru_cache` or `cache` in the
    tree, bare or as functools.x: the name of the function it decorates,
    or of the target of name = lru_cache(...)(f), else "?"."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            uses, name = node.decorator_list, node.name
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            uses, name = [node.value], node.targets[0].id
        else:
            continue
        owner.update((id(sub), name) for use in uses for sub in ast.walk(use))
    return sorted(
        (node.lineno, owner.get(id(node), "?"))
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", None)) in CACHE_NAMES
    )


def test_only_the_allowed_caches_in_the_package():
    found = [
        name
        for path in SRC.glob("*.py")
        for _, name in cached_names(ast.parse(path.read_text()))
    ]
    # a new cache needs a reason here; a cache that goes leaves the list
    assert sorted(found) == sorted(CACHES_ALLOWED)


def test_cache_scan_catches_each_form():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(n): pass\n"
        "@cache\n"
        "def b(n): pass\n"
        "@functools.lru_cache\n"
        "def c(n): pass\n"
        "d = lru_cache(maxsize=None)(len)\n"
        "e = functools.cache(len)\n"
        "def f(): return cache(len)\n"
        "g = {}\n"
    )
    assert cached_names(ast.parse(source)) == [
        (3, "a"), (5, "b"), (7, "c"), (9, "d"), (10, "e"), (11, "?"),
    ]


# Loaded by `import dataclasses` (inspect, ast, dis, tokenize) or by a path
# object; none of them answers a question of the paper.
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib")
# Imported on first use, each by the only code that needs it: random by
# Miller-Rabin's extra bases from psi_13 on and by Brent's rho, which run on
# cofactors of at least 10^12 alone; argparse (which imports gettext) by
# help and usage errors alone.
LAZY_IMPORTS = ("random", "argparse", "gettext")


def test_cli_import_loads_no_slow_module():
    """A fresh `python -S` (no site, so no `.pth` file can import one of
    them first) imports the CLI without loading any of SLOW_IMPORTS or
    LAZY_IMPORTS, and answers `factor 5 6 2` without loading argparse or
    gettext; the usage error of `unit` without N loads argparse."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    names = SLOW_IMPORTS + LAZY_IMPORTS
    probe = (
        "import sys, artifact.cli\n"
        f"def loaded(): return ' '.join(m for m in {names!r} if m in sys.modules)\n"
        "seen = [loaded()]\n"
        "artifact.cli.main(['factor', '5', '6', '2'])\n"
        "seen.append(loaded())\n"
        "try: artifact.cli.main(['unit'])\n"
        "except SystemExit as err: seen.append(f'{err.code}: {loaded()}')\n"
        "print(seen)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == [
        "ell=2 m=2 delta=000", "['', '', '2: argparse gettext']",
    ]


def dataclass_imports(tree):
    """Lines of every import of the `dataclasses` module in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "dataclasses" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            yield node.lineno


def test_no_dataclasses_in_the_package():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in dataclass_imports(ast.parse(path.read_text()))
    ]
    assert found == []
    source = "import dataclasses\nfrom dataclasses import dataclass\nimport math\n"
    assert list(dataclass_imports(ast.parse(source))) == [1, 2]


def test_records_keep_their_semantics():
    """A verdict is false when it does not divide, a record's fields cannot
    be assigned, and the methods and __str__ of each record still work."""
    assert not DivisibilityVerdict(False, "ell")
    assert DivisibilityVerdict(True, None)
    fu = fundamental_unit(5)
    assert str(fu) == f"eps_5 = {fu.eps} (norm -1)"
    scan = decompose_global_dim(5, 72, 2)
    row = quantum_group_table()[0]
    records = [fu, cf_expand(7), scan, scan.solutions[0], row]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    assert cf_digits(cf_expand(7), 5) == [2, 1, 1, 1, 4]
    assert row.label() == f"{row.series}{row.n},{row.k}"
