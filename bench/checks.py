"""Output checks for each workload's files.

Each check returns (items, problems): the work the output shows was done
(sweep points, trajectory time points, trials) and a list of what is wrong
with it.  Reference values come from routes independent of the code under
test where one exists: the trajectory's final state is recomputed here from
the model matrices with ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import EVOLVE_STEPS, EVOLVE_T_END, MEASURE_SCENARIO, MEASURE_TRIALS, SWEEP_SEEDS, scenario_path

DEFECT_TOL = 1e-10  # eta = 0 models satisfy both conditions to this
SIGMA_RTOL = 1e-12  # analytic sigma sums p over outcomes and picks up rounding
TRACE_TOL = 1e-10
# Final state against the eigh reference, Frobenius norm.  The exact path
# lands within ~1e-15; RK4 at dt = 1e-3 within 2.5e-9 over seeds 0..1999.
EXACT_TOL = 1e-12
STEPPED_TOL = 1e-7
BINOMIAL_SIGMAS = 5.0  # empirical frequency vs Born weight, in binomial sigmas
ORACLE_DIMS = (3, 2)
ORACLE_SEEDS = 3


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_sweep(work: Path, outputs: list[Path], seed: int):
    from qndsim.scenarios import DEFAULT_ETA_GRID, SWEEP_HEADER, oracle_check

    problems = []
    rows = _read_csv(outputs[0])
    if not rows or rows[0] != SWEEP_HEADER:
        return 0, [f"sweep header is {rows[:1]}, expected {SWEEP_HEADER}"]
    rows = rows[1:]
    expected = [(eta, s) for eta in DEFAULT_ETA_GRID for s in range(seed, seed + SWEEP_SEEDS)]
    got = [(float(r[0]), int(r[1])) for r in rows]
    if got != expected:
        problems.append(f"sweep has {len(rows)} (eta, seed) rows, expected {len(expected)} in grid order")
    for r in rows:
        if float(r[0]) != 0.0:
            continue
        eq4, eq5, changes, variance = float(r[2]), float(r[3]), int(r[5]), float(r[6])
        sa, se = float(r[7]), float(r[8])
        if eq4 > DEFECT_TOL or eq5 > DEFECT_TOL:
            problems.append(f"eta=0 seed {r[1]}: defects {eq4:.3g}, {eq5:.3g} above {DEFECT_TOL}")
        if changes != 0 or variance != 0.0:
            problems.append(f"eta=0 seed {r[1]}: repeat_changes={changes}, reading_variance={variance}")
        if abs(sa - se) > SIGMA_RTOL * max(1.0, abs(sa)):
            problems.append(f"eta=0 seed {r[1]}: sigma analytic {sa!r} != empirical {se!r}")
    for s in range(seed, seed + ORACLE_SEEDS):
        report = oracle_check(ORACLE_DIMS, s)
        if not report:
            problems.append(f"oracle_check{ORACLE_DIMS} seed {s}: {report}")
    return len(rows), problems


def _reference_final(work: Path) -> np.ndarray:
    """w(T) for the evolve scenario by one eigh of the total Hamiltonian."""
    from qndsim.scenario_io import load_scenario_file

    s = load_scenario_file(scenario_path(work))
    m = s.model
    hs, hm, hc = m.h_system.matrix, m.h_apparatus.matrix, m.h_coupling.matrix
    h = np.kron(hs, np.eye(m.d_apparatus)) + np.kron(np.eye(m.d_system), hm) + hc
    sys_vec = np.linalg.eigh(hs)[1][:, s.preparation.system_index]
    app_vec = np.linalg.eigh(s.pointer.operator.matrix)[1][:, s.preparation.apparatus_index]
    psi = np.kron(sys_vec, app_vec)
    w0 = np.outer(psi, psi.conj())
    e, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * e * EVOLVE_T_END)) @ v.conj().T
    return u @ w0 @ u.conj().T


def check_trajectory(work: Path, outputs: list[Path], stepped: bool):
    problems = []
    with open(outputs[0], encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    dim = math.isqrt((len(header) - 1) // 2)
    if header[0] != "time" or 1 + 2 * dim * dim != len(header):
        return 0, [f"trajectory header {header[:3]}... does not describe a square state"]
    if data.shape[0] != EVOLVE_STEPS + 1:
        problems.append(f"trajectory has {data.shape[0]} rows, expected {EVOLVE_STEPS + 1}")
    t = data[:, 0]
    if t[0] != 0.0 or abs(t[-1] - EVOLVE_T_END) > 1e-12 or np.any(np.diff(t) <= 0):
        problems.append("trajectory times do not increase from 0 to t_end")
    states = data[:, 1::2] + 1j * data[:, 2::2]
    states = states.reshape(-1, dim, dim)
    trace_dev = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    if trace_dev.max() > TRACE_TOL:
        k = int(trace_dev.argmax())
        problems.append(f"trace deviates by {trace_dev[k]:.3g} at t={float(t[k])!r}")
    gap = float(np.linalg.norm(states[-1] - _reference_final(work)))
    tol = STEPPED_TOL if stepped else EXACT_TOL
    if not gap <= tol:
        problems.append(f"final state is {gap:.3g} from the exact reference (tolerance {tol})")
    return data.shape[0], problems


def _born_weights() -> np.ndarray:
    from qndsim.dynamics import evolve_exact
    from qndsim.measurement import outcome_distribution
    from qndsim.model import prepare_initial
    from qndsim.scenario_io import load_scenario_file

    s = load_scenario_file(MEASURE_SCENARIO)
    w0 = prepare_initial(s.model, s.preparation, pointer_basis=s.pointer.basis)
    w_tau = evolve_exact(s.model, w0, s.schedule.tau)
    return outcome_distribution(w_tau, s.pointer, (s.model.d_system, s.model.d_apparatus))


def check_measure(work: Path, outputs: list[Path]):
    from qndsim.scenario_io import load_scenario_file

    problems = []
    records, repeats = _read_csv(outputs[0]), _read_csv(outputs[1])
    header = ["trial", "time", "i", "lambda", "reading"]
    if not records or records[0] != header:
        return 0, [f"records header is {records[:1]}, expected {header}"]
    records = records[1:]
    if [int(r[0]) for r in records] != list(range(MEASURE_TRIALS)):
        problems.append(f"records hold {len(records)} trials, expected 0..{MEASURE_TRIALS - 1}")
    p = _born_weights()
    counts = np.bincount([int(r[3]) for r in records], minlength=len(p))
    n = max(len(records), 1)
    for lam, (c, pl) in enumerate(zip(counts, p)):
        sigma = math.sqrt(pl * (1.0 - pl) / n)
        if abs(c / n - pl) > BINOMIAL_SIGMAS * sigma:
            problems.append(f"outcome {lam}: frequency {c / n:.5f} vs Born {pl:.5f} "
                            f"exceeds {BINOMIAL_SIGMAS} binomial sigma ({sigma:.2g})")
    n_repeats = load_scenario_file(MEASURE_SCENARIO).schedule.n_repeats
    if len(repeats) != n_repeats + 1 or repeats[0] != header:
        problems.append(f"repeat record has {len(repeats) - 1} rows, expected {n_repeats}")
    return len(records), problems


def check(name: str, work: Path, outputs: list[Path], seed: int):
    if name == "sweep":
        return check_sweep(work, outputs, seed)
    if name == "measure":
        return check_measure(work, outputs)
    return check_trajectory(work, outputs, stepped=name == "evolve-stepped")
