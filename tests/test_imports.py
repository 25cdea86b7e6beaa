"""Every name a module imports is used by that module, every module-level
function or class and every method has a caller, and the package depends
on the standard library alone.

No linter is a dependency, so these are standard-library checks: parse
each module of src/curvext (the package __init__, which re-exports, is
exempt) and of tests/, and compare its imported names with the names it
references; look up each module-level ``_private`` function or class of
src/curvext among the identifiers of src/curvext and tests/, and each
public one among those of src/curvext (its re-exports in __init__ do not
count), tests/ and perfbench/, outside its own definition; look up each
non-dunder method of a class of src/curvext among the attribute
references of src/curvext, tests/ and perfbench/, outside its own
definition; and parse every module of src/curvext, __init__ included,
for imports from outside the standard library and curvext itself.

The method check matches by name alone, so it cannot see a dead method
that shares its name with a live method of another class: a caller of
``CurvePoint.conjugate`` once kept an uncalled
``RationalFunction.conjugate`` alive.  Such a method shows up only in a
line trace of the suite.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "curvext"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    src = ("from __future__ import annotations\nimport os\n"
           "from math import isqrt as r, gcd\ngcd(1, 2)\n")
    assert unused_imports(src) == [(2, "os"), (3, "r")]


@pytest.mark.parametrize(
    "path", MODULES,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def identifiers(node):
    """Counter of the identifiers node references: names, attributes,
    imported names and string constants (a monkeypatched name counts)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def unreferenced(modules, others=(), public=False):
    """(module, name) of each module-level _private function or class in
    modules ({name: source text}), or each public one with public=True,
    that no text of modules or others references outside its own
    definition."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total.update(identifiers(tree))
    return [(name, node.name) for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") != public
            and not node.name.startswith("__")
            and total[node.name] == identifiers(node)[node.name]]


def unreferenced_methods(modules, others=()):
    """(module, "Class.method") of each non-dunder method of a
    module-level class in modules ({name: source text}) that no text of
    modules or others references as an attribute, ``.method``, outside
    its own definition."""
    def attributes(node):
        return Counter(sub.attr for sub in ast.walk(node)
                       if isinstance(sub, ast.Attribute))
    trees = {name: ast.parse(text) for name, text in modules.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total.update(attributes(tree))
    return [(name, f"{cls.name}.{node.name}")
            for name, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and total[node.name] == attributes(node)[node.name]]


def test_dead_code_guard_flags_an_unreferenced_private():
    module = ("def _dead(x):\n    return _dead(x - 1) if x else 0\n"
              "def _called():\n    return 1\nclass _Patched:\n    pass\n"
              "class _Unused:\n    pass\ndef public():\n    return _called()\n")
    test = "monkeypatch.setattr(mod, '_Patched', None)\n"
    assert unreferenced({"m": module}, [test]) == \
        [("m", "_dead"), ("m", "_Unused")]


def test_dead_code_guard_flags_an_unreferenced_public_definition():
    module = ("def orphan(x):\n    return orphan(x - 1) if x else 0\n"
              "def helper():\n    return 1\ndef entry():\n    return helper()\n"
              "class Benched:\n    pass\nclass Unused:\n    pass\n"
              "def _private():\n    pass\n")
    test = "from m import entry\nentry()\n"
    bench = "cx.m.Benched()\n"
    assert unreferenced({"m": module}, [test, bench], public=True) == \
        [("m", "orphan"), ("m", "Unused")]


def test_every_private_definition_has_a_reference():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    tests = [p.read_text() for p in TESTS.glob("*.py")]
    assert unreferenced(modules, tests) == []


def test_every_public_definition_has_a_reference():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")
               if p.name != "__init__.py"}
    others = [p.read_text() for p in [*TESTS.glob("*.py"),
                                      *(ROOT / "perfbench").glob("*.py")]]
    assert unreferenced(modules, others, public=True) == []


def test_dead_code_guard_flags_an_unreferenced_method():
    module = ("class A:\n    def entry(self):\n        return self._helper()\n"
              "    def _helper(self):\n        return 1\n"
              "    def dead(self, n):\n        return self.dead(n - 1) if n else 0\n"
              "    def named(self):\n        pass\n"
              "    @property\n    def size(self):\n        return 0\n"
              "    def __len__(self):\n        return 0\n")
    test = "a = A()\na.entry()\nassert a.size == len(a)\nnamed = 1\n"
    assert unreferenced_methods({"m": module}, [test]) == \
        [("m", "A.dead"), ("m", "A.named")]


def test_every_method_has_a_reference():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    others = [p.read_text() for p in [*TESTS.glob("*.py"),
                                      *(ROOT / "perfbench").glob("*.py")]]
    assert unreferenced_methods(modules, others) == []


def foreign_imports(source: str):
    """Top-level names of absolute imports outside the standard library
    (``sys.stdlib_module_names``, Python >= 3.10) and curvext."""
    allowed = sys.stdlib_module_names | {"curvext"}
    tops = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.append(node.module.split(".")[0])
    return sorted(set(tops) - allowed)


def test_import_guard_flags_a_third_party_import():
    src = ("from __future__ import annotations\nimport os, numpy.linalg\n"
           "from sympy import Poly\nfrom .fields import Rationals\n"
           "from curvext.polys import Poly\n")
    assert foreign_imports(src) == ["numpy", "sympy"]


def test_package_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("dependencies")] == \
        ["dependencies = []"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []
