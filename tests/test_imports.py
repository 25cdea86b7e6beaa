"""Every name a module imports is used by that module, and the package
depends on the standard library alone.

No linter is a dependency, so these are standard-library checks: parse
each module of src/curvext (the package __init__, which re-exports, is
exempt) and of tests/, and compare its imported names with the names it
references; and parse every module of src/curvext, __init__ included,
for imports from outside the standard library and curvext itself.
"""

import ast
import sys
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
