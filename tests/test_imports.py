"""Every name a module of src/ or tests/ imports is referenced in that module,
every definition in src/qndsim is reached, and every module-level array of
qndsim is a read-only table in csvtext.

An ast scan stands in for a linter: an imported name counts as used when it
appears as a name anywhere in the module or is listed in the module's
__all__.  A package's __init__ is exempt, since its imports are the names it
exports.  A second scan finds the functions, classes and methods that no code
in src/ names, no benchmark tracer target wraps and no bench/ module imports:
a library surface nothing reaches, which only the tests would keep alive.
bench/ is read as source, never imported or edited.  The module-level arrays
are the CSV writers' lookup tables, which every later CSV reads, so a stray
write to one would corrupt all of them; they live in one module.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qndsim
from test_bench_targets import tracer_targets

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


# Definitions kept although nothing in src/ or bench/ reaches them, each with its reason.
UNREACHED_ALLOWED = {
    "scenario_io.render_scenario":
        "the parser's round-trip oracle: the tests compare parse(render(s)) with s",
    "scenario_io.bundled_scenario_path":
        "the one locator of the scenario files shipped in qndsim/data",
}


def definitions(tree: ast.Module, module: str) -> dict[str, bool]:
    """Each top-level function or class as "module.name" and each method or
    property as "module.Class.name", mapped to whether it is a method."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[f"{module}.{node.name}"] = False
        if isinstance(node, ast.ClassDef):
            out |= {f"{module}.{node.name}.{f.name}": True for f in node.body
                    if isinstance(f, ast.FunctionDef)}
    return out


def unreached(src: dict[str, str], targets, bench_sources) -> list[str]:
    """The definitions in src (module name -> source) that nothing reaches: a
    function or class is reached when src names it (a Name or an Attribute),
    a tracer target (module, attribute) wraps it or a bench/ module imports it
    from qndsim; a method or property is reached when src names it as an
    Attribute or a "Class.method" target wraps it.  Dunder methods are called
    by Python itself, so they count as reached."""
    defined, names, attributes = {}, set(), set()
    for module, source in src.items():
        tree = ast.parse(source)
        defined |= definitions(tree, module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    reached = {f"{module}.{attr}" for _, module, attr in targets}
    for source in bench_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qndsim."):
                module = node.module.removeprefix("qndsim.")
                reached |= {f"{module}.{a.name}" for a in node.names}
    out = []
    for key, is_method in defined.items():
        name = key.rsplit(".", 1)[1]
        used = attributes if is_method else names | attributes
        if not (name in used or key in reached
                or is_method and name.startswith("__") and name.endswith("__")):
            out.append(key)
    return sorted(out)


def test_scan_sees_unreached_definitions():
    src = {
        "a": "class C:\n    def __init__(self): pass\n    def m(self): pass\n"
             "    def n(self): pass\n    def traced(self): pass\n"
             "def f(): return C().n\ndef g(): pass\ndef h(): pass\ndef m(): pass\n",
        "b": "from .a import f\nf()\n",
    }
    targets = [("a.traced", "a", "C.traced")]
    bench = ["from qndsim.a import h\nimport qndsim.cli\n"]
    # n is named as an attribute; a function called m does not reach C.m
    assert unreached(src, targets, bench) == ["a.C.m", "a.g", "a.m"]


def test_every_definition_is_reached():
    src = {p.stem: p.read_text(encoding="utf-8")
           for p in sorted((ROOT / "src" / "qndsim").glob("*.py")) if p.stem != "__init__"}
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    found = unreached(src, tracer_targets(), bench)
    assert sorted(set(found) - UNREACHED_ALLOWED.keys()) == []
    assert sorted(UNREACHED_ALLOWED.keys() - set(found)) == []  # no stale entry


def test_module_arrays_are_read_only():
    arrays = {}
    for info in pkgutil.iter_modules(qndsim.__path__):
        module = importlib.import_module(f"qndsim.{info.name}")
        arrays |= {f"{info.name}.{k}": v for k, v in vars(module).items()
                   if isinstance(v, np.ndarray)}
    assert {"csvtext._HEADS", "csvtext.DIGIT_GROUPS"} <= arrays.keys()
    assert [k for k in arrays if not k.startswith("csvtext.")] == []
    assert [k for k, v in arrays.items() if v.flags.writeable] == []
