"""The benchmark's workloads: CLI argument lists and generated inputs.

Every workload is one ``qndsim.cli.main(argv)`` invocation, repeated for the
length of a run.  The benchmark seed picks the inputs; the same seed gives
the same argv and the same input files, so every invocation of a run must
write the same output bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SWEEP_DIMS = "4,4"
SWEEP_SEEDS = 4  # seeds per invocation; the default eta grid has 5 points
EVOLVE_T_END = 5.0
EVOLVE_DT = 1e-3
EVOLVE_STEPS = round(EVOLVE_T_END / EVOLVE_DT)
MEASURE_SCENARIO = "src/qndsim/data/qubit-violating.json"
MEASURE_TRIALS = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one unit of items_per_s counts

    def outputs(self, work: Path) -> list[Path]:
        if self.name == "sweep":
            return [work / "sweep.csv"]
        if self.name == "measure":
            return [work / "records.csv", work / "repeats.csv"]
        return [work / "trajectory.csv"]

    def argv(self, work: Path, seed: int) -> list[str]:
        out = [str(p) for p in self.outputs(work)]
        if self.name == "sweep":
            return ["sweep", "--dims", SWEEP_DIMS,
                    "--seeds", f"{seed}:{seed + SWEEP_SEEDS}",
                    "--out", out[0], "--quiet"]
        if self.name == "measure":
            return ["measure", MEASURE_SCENARIO, "--seed", str(seed),
                    "--trials", str(MEASURE_TRIALS),
                    "--out", out[0], "--repeat-out", out[1], "--quiet"]
        argv = ["evolve", str(scenario_path(work)),
                "--t-end", repr(EVOLVE_T_END), "--dt", repr(EVOLVE_DT),
                "--out", out[0], "--quiet"]
        if self.name == "evolve-stepped":
            argv.insert(2, "--stepped")
        return argv


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("sweep", "sweep points"),
        Workload("evolve-exact", "trajectory time points"),
        Workload("evolve-stepped", "trajectory time points"),
        Workload("measure", "trials"),
    ]
}


def scenario_path(work: Path) -> Path:
    return work / "scenario.json"


def write_inputs(work: Path, seed: int) -> None:
    """Write the evolve workloads' scenario: a seeded dims-(3,2) violating model."""
    doc = {
        "schema": 1,
        "name": f"bench-violating-{seed}",
        "model": {"dims": [3, 2], "family": "violating", "seed": seed},
        "preparation": {"system_index": 0, "apparatus_index": 0},
        "schedule": {"tau": 1.0, "delta_tau": 0.5, "n_repeats": 5, "n_trials": 200},
        "seed": seed,
    }
    scenario_path(work).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
