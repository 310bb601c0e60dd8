"""Every name a module of src/ or tests/ imports is referenced in that module,
and every module-level array of qndsim is read-only.

An ast scan stands in for a linter: an imported name counts as used when it
appears as a name anywhere in the module or is listed in the module's
__all__.  A package's __init__ is exempt, since its imports are the names it
exports.  The module-level arrays are lookup tables every later CSV reads, so
a stray write to one would corrupt all of them.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qndsim

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\nimport a.b\nfrom m import x, y as z\n"
        "__all__ = ['x']\nprint(np.pi, a.b)\n"
    )
    assert unused_imports(source) == ["os", "z"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_module_arrays_are_read_only():
    arrays = {}
    for info in pkgutil.iter_modules(qndsim.__path__):
        module = importlib.import_module(f"qndsim.{info.name}")
        arrays |= {f"{info.name}.{k}": v for k, v in vars(module).items()
                   if isinstance(v, np.ndarray)}
    assert {"cli._HEADS", "measurement.DIGIT_GROUPS"} <= arrays.keys()
    assert [k for k, v in arrays.items() if v.flags.writeable] == []
