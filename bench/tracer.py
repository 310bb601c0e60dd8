"""Per-layer tracing by wrapping qndsim's public functions from outside.

A wrapper records a span around each call: it counts the call and adds the
span's self time (its duration minus the time its child spans cover).  A
name imported with ``from .linalg import spectral`` is a separate binding in
the importing module, so every module attribute that holds the original is
replaced, and ``unpatched`` reports any binding the scan missed.
"""

from __future__ import annotations

import gc
import importlib
import sys
from time import perf_counter
from types import FrameType

import numpy as np

# (metric prefix, module, attribute); "Class.method" wraps a method.  The
# operator classes are traced through __post_init__, their validation.
TARGETS = [
    ("linalg.spectral", "linalg", "spectral"),
    ("linalg.propagator", "linalg", "propagator"),
    ("linalg.tensor", "linalg", "tensor"),
    ("linalg.commutator", "linalg", "commutator"),
    ("linalg.DensityOperator", "linalg", "DensityOperator.__post_init__"),
    ("linalg.HermitianOperator", "linalg", "HermitianOperator.__post_init__"),
    ("model.random_model", "model", "random_model"),
    ("model.total_hamiltonian", "model", "total_hamiltonian"),
    ("model.check_conditions", "model", "check_conditions"),
    ("model.prepare_initial", "model", "prepare_initial"),
    ("dynamics.evolve_exact", "dynamics", "evolve_exact"),
    ("dynamics.evolve_stepped", "dynamics", "evolve_stepped"),
    ("dynamics.rhs_component_form", "dynamics", "rhs_component_form"),
    ("dynamics.state_constancy_check", "dynamics", "state_constancy_check"),
    ("measurement.outcome_distribution", "measurement", "outcome_distribution"),
    ("measurement.sample_outcome", "measurement", "sample_outcome"),
    ("measurement.trial_rng", "measurement", "trial_rng"),
    ("measurement.collapse_after_outcome", "measurement", "collapse_after_outcome"),
    ("measurement.measurement_trials", "measurement", "measurement_trials"),
    ("measurement.repeatability_protocol", "measurement", "repeatability_protocol"),
    ("measurement.dispersion_experiment", "measurement", "dispersion_experiment"),
    ("measurement.aggregate_sigma", "measurement", "aggregate_sigma"),
    ("measurement.MeasurementRecord.write_csv", "measurement", "MeasurementRecord.write_csv"),
    ("scenarios.run_scenario", "scenarios", "run_scenario"),
    ("scenarios.interpolation_sweep", "scenarios", "interpolation_sweep"),
    ("scenarios.write_sweep_csv", "scenarios", "write_sweep_csv"),
    ("scenario_io.load_scenario_file", "scenario_io", "load_scenario_file"),
    ("cli.cmd_sweep", "cli", "cmd_sweep"),
    ("cli.cmd_evolve", "cli", "cmd_evolve"),
    ("cli.cmd_measure", "cli", "cmd_measure"),
]

SPECTRAL = "linalg.spectral"
PER_POINT = "scenarios.run_scenario"


def metrics() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in a fixed order."""
    out = {}
    for key, _, _ in TARGETS:
        out[f"{key}.calls"] = "count"
        out[f"{key}.self_s"] = "s"
        if key == SPECTRAL:
            out[f"{key}.distinct_frac"] = "ratio"
        if key == PER_POINT:
            out[f"{key}.p50_ms"] = "ms"
            out[f"{key}.p90_ms"] = "ms"
    return out | {"untraced_s": "s", "trace_overhead": "ratio"}


class Tracer:
    """Installs span wrappers; collects one invocation's counts and times."""

    def __init__(self):
        self._sites = []  # (owner, attribute, original, wrapper)
        self.originals = {}  # metric prefix -> unwrapped function
        self._stack = []  # child time accumulated by each open span
        self.reset()

    def reset(self) -> None:
        self.calls = {key: 0 for key, _, _ in TARGETS}
        self.self_s = {key: 0.0 for key, _, _ in TARGETS}
        self.top_s = 0.0
        self.spectral_inputs = set()
        self.point_s = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qndsim" or name.startswith("qndsim.")]
        for key, mod, attr in TARGETS:
            owner = importlib.import_module(f"qndsim.{mod}")
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                orig = self.originals[key] = owner.__dict__[attr]
                self._bind(owner, attr, orig, self._wrap(key, orig))
                continue
            orig = self.originals[key] = getattr(owner, attr)
            wrapper = self._wrap(key, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._bind(m, name, orig, wrapper)

    def _bind(self, owner, name, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._sites.append((owner, name, orig, wrapper))

    def uninstall(self) -> None:
        for owner, name, orig, _ in reversed(self._sites):
            setattr(owner, name, orig)
        self._sites.clear()
        self.originals.clear()

    def unpatched(self) -> list[str]:
        """Objects other than this tracer's own that still refer to an original.

        Each is a call path the wrappers would not see, so the traced run
        would undercount.
        """
        mine = {id(self.originals)} | {id(site) for site in self._sites}
        for *_, wrapper in self._sites:
            mine.update(id(cell) for cell in wrapper.__closure__)
        found = set()
        for _, _, orig, _ in self._sites:
            for ref in gc.get_referrers(orig):
                if id(ref) in mine or isinstance(ref, FrameType):
                    continue
                where = ref.get("__name__", "?") if isinstance(ref, dict) else type(ref).__name__
                found.add(f"{orig.__qualname__} in {where}")
        return sorted(found)

    def _wrap(self, key, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if key == SPECTRAL:
                m = np.asarray(getattr(args[0], "matrix", args[0]))
                self.spectral_inputs.add((m.shape, m.tobytes()))
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
                if key == PER_POINT:
                    self.point_s.append(dt)

        return wrapper
