"""Every name a module imports is used by that module.

No linter is a dependency, so this is the standard-library check: parse
each module of src/curvext (the package __init__, which re-exports, is
exempt) and of tests/, and compare its imported names with the names it
references.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "curvext"
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
