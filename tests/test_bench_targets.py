"""Every function the benchmark's tracer wraps exists under the name it uses.

The tracer's TARGETS list is read from bench/tracer.py as a literal, without
importing or editing the benchmark, so a rename in qndsim that would crash a
traced benchmark run fails here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


TARGETS = tracer_targets()


@pytest.mark.parametrize("key, module, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(key, module, attr):
    owner = importlib.import_module(f"qndsim.{module}")
    if "." in attr:
        # the tracer wraps a method where its class defines it
        cls, attr = attr.split(".")
        owner = vars(getattr(owner, cls))
        assert callable(owner.get(attr)), f"{key}: {cls} does not define {attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"{key}: qndsim.{module} has no {attr}"
