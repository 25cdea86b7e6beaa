"""Import the curvext source tree of this checkout, and nothing else."""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAYERS = ("fields", "polys", "linalg", "curves", "riemann_roch",
          "extensions", "secant", "bounds", "cli")


class MissingProgram(RuntimeError):
    pass


def load_program():
    """Import curvext afresh from ROOT/src and return its modules.

    Any curvext already imported is dropped first, so each call pays the
    full import; an installed copy elsewhere is never used.
    """
    if not os.path.isfile(os.path.join(SRC, "curvext", "__init__.py")):
        raise MissingProgram(f"no curvext source under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "curvext" or m.startswith("curvext.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("curvext")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "curvext"):
        raise MissingProgram(f"curvext imported from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"curvext.{name}") for name in LAYERS}
    mods["curvext"] = pkg
    return SimpleNamespace(modules=mods, **mods)
