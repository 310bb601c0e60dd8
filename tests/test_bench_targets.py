"""Every function the benchmark's tracer wraps exists under the name it uses,
and a traced run of the CLI leaves no call path outside the wrappers and
makes a pinned number of check_operators calls.

The tracer's TARGETS list is read from bench/tracer.py as a literal, without
importing or editing the benchmark, so a rename in qndsim that would crash a
traced benchmark run fails here first.  The traced smoke run loads
bench/tracer.py by path, read-only, in a fresh interpreter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


# Runs in a fresh interpreter: a test module that imported a qndsim function
# holds the original, which the scan below would rightly report.
TRACED_SMOKE = """
import gc, importlib.util, json, sys

spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import qndsim.cli
import qndsim.linalg

scenario, out = sys.argv[2], sys.argv[3]
runs = [
    ["sweep", "--dims", "2,2", "--seeds", "0:2", "--trials", "20", "--out", out, "--quiet"],
    ["evolve", scenario, "--stepped", "--t-end", "0.05", "--dt", "0.01", "--out", out, "--quiet"],
    ["measure", scenario, "--trials", "50", "--out", out, "--quiet"],
]
t = tracer.Tracer()
t.install()
codes = {fn.__code__: 0 for fn in t.originals.values()}
checks = qndsim.linalg.check_operators.__code__
codes[checks] = 0

def profile(frame, event, arg):
    if event == "call" and frame.f_code in codes:
        codes[frame.f_code] += 1

sys.setprofile(profile)
rcs = [qndsim.cli.main(argv) for argv in runs]
sys.setprofile(None)
gc.collect()
print(json.dumps({
    "rcs": rcs,
    "unpatched": t.unpatched(),
    "calls": t.calls,
    "audit": {key: codes[fn.__code__] for key, fn in t.originals.items()},
    "check_operators": codes[checks],
}))
"""


def test_traced_cli_runs_leave_no_call_unwrapped(tmp_path):
    """The benchmark's tracer sees every call a small sweep, stepped evolve and
    measure make: no original is reachable outside its wrappers, and a profiler
    counts as many calls of each original as the wrappers do."""
    src = Path(__file__).resolve().parent.parent / "src"
    scenario = src / "qndsim" / "data" / "qubit-violating.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SMOKE, str(TRACER), str(scenario), str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rcs"] == [0, 0, 0]
    assert report["unpatched"] == []
    assert report["calls"] == report["audit"]
    assert report["calls"]["scenarios.interpolation_sweep"] == 1
    # no run forms w(0) as a matrix: the sweep's four points (one batch),
    # stepped evolve and measure all start from the kets of prepare_kets
    assert report["calls"]["model.prepare_initial"] == 0
    # so no state is checked as it enters: the kets are unit vectors, each
    # evolved ket is checked for its norm alone, and the stepped run checks
    # its computed states once, as one stack
    assert report["calls"]["linalg.DensityOperator"] == 0
    # the stepped run takes its five RK4 steps in H's eigenbasis, not term by term
    assert report["calls"]["dynamics.rhs_component_form"] == 0
    assert report["calls"]["dynamics.evolve_stepped"] == 1
    # each operator or state is checked once, where it enters the pipeline or
    # is computed, spectral does not check a wrapper again, and the sweep
    # decomposes its drawn h_M stack once; the ket pipeline checks no matrix
    # (12 fewer than the density-matrix one: sweep and measure each dropped
    # w(0), w(tau) and the four evolved repeat states); the stepped run checks
    # H once, as the model's hamiltonian, before it decomposes it, and then its
    # computed states; no run checks a prepared matrix w(0)
    assert report["check_operators"] == 17
