"""Curated experiment definitions, sweeps, and brute-force oracle checks.

A Scenario bundles a model, a preparation, a pointer observable, a schedule,
and a calibration.  run_measurements is the one measurement pipeline, shared
by the CLI measure command and run_scenario: repeat protocol, w(tau) and its
Born distribution once, trial record, reading variance, weighted means.
run_scenario adds the condition check and state constancy and emits one
result row.  oracle_check re-derives the core numerics through slow,
independent routes (truncated-series exponential, explicit index loops) and
compares them against the main implementations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import DensityOperator, HermitianOperator, tensor
from .model import (
    BipartiteModel,
    Preparation,
    check_conditions,
    prepare_initial,
    random_model,
    total_hamiltonian,
)
from .dynamics import evolve_exact, rhs_component_form, state_constancy_check
from .measurement import (
    Calibration,
    MeasurementRecord,
    PointerObservable,
    aggregate_sigma,
    draw_trials,
    outcome_distribution,
    reading_variance,
    repeatability_protocol,
)

SWEEP_HEADER = [
    "eta",
    "seed",
    "eq4_defect",
    "eq5_defect",
    "constancy_dev",
    "repeat_changes",
    "reading_variance",
    "sigma_analytic",
    "sigma_empirical",
]

DEFAULT_ETA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


@dataclass(frozen=True)
class Schedule:
    """Measurement times and counts, validated once at construction."""

    tau: float = 1.0
    delta_tau: float = 0.5
    n_repeats: int = 5
    n_trials: int = 200

    def __post_init__(self):
        if not (0 < self.tau < math.inf and 0 < self.delta_tau < math.inf):
            raise ValueError("schedule needs finite tau > 0 and delta_tau > 0")
        if self.n_repeats < 2:
            raise ValueError("schedule needs n_repeats >= 2")
        if self.n_trials < 1:
            raise ValueError("schedule needs n_trials >= 1")


@dataclass(frozen=True)
class Scenario:
    name: str
    model: BipartiteModel
    preparation: Preparation
    pointer: PointerObservable
    schedule: Schedule
    calibration: Calibration
    seed: int = 0
    eta: Optional[float] = None

    @classmethod
    def build(
        cls,
        name: str,
        model: BipartiteModel,
        preparation: Preparation,
        schedule: Schedule = Schedule(),
        pointer: Optional[PointerObservable] = None,
        calibration: Optional[Calibration] = None,
        seed: int = 0,
        eta: Optional[float] = None,
    ) -> "Scenario":
        if pointer is None:
            pointer = PointerObservable.from_operator(model.h_apparatus)
        if calibration is None:
            calibration = Calibration.from_pointer(pointer)
        return cls(name, model, preparation, pointer, schedule, calibration, seed, eta)


@dataclass(frozen=True)
class SweepRow:
    eta: Optional[float]
    seed: int
    eq4_defect: float
    eq5_defect: float
    constancy_dev: float
    repeat_changes: int
    reading_variance: float
    sigma_analytic: float
    sigma_empirical: float

    def as_csv_fields(self) -> list[str]:
        eta = "" if self.eta is None else f"{self.eta:.17g}"
        return [
            eta,
            str(self.seed),
            f"{self.eq4_defect:.17g}",
            f"{self.eq5_defect:.17g}",
            f"{self.constancy_dev:.17g}",
            str(self.repeat_changes),
            f"{self.reading_variance:.17g}",
            f"{self.sigma_analytic:.17g}",
            f"{self.sigma_empirical:.17g}",
        ]


@dataclass(frozen=True)
class MeasurementRun:
    """Everything one scenario's measurements yield."""

    repeats: MeasurementRecord
    trials: MeasurementRecord
    reading_variance: float
    sigma_analytic: float
    sigma_empirical: float


def run_measurements(s: Scenario) -> MeasurementRun:
    """Repeat protocol, then n_trials readings of one w(tau) and its Born p.

    p feeds both the trial record and the analytic weighted mean.
    """
    sched = s.schedule
    i = s.preparation.system_index
    repeats = repeatability_protocol(
        s.model, s.preparation, s.pointer, s.calibration,
        sched.tau, sched.delta_tau, sched.n_repeats, s.seed,
    )
    w0 = prepare_initial(s.model, s.preparation, pointer_basis=s.pointer.basis)
    w_tau = evolve_exact(s.model, w0, sched.tau)
    p = outcome_distribution(w_tau, s.pointer, (s.model.d_system, s.model.d_apparatus))
    trials = draw_trials(p, s.calibration, i, sched.tau, sched.n_trials, s.seed)
    return MeasurementRun(
        repeats=repeats,
        trials=trials,
        reading_variance=reading_variance(trials),
        sigma_analytic=aggregate_sigma(s.calibration, i, distribution=p).sigma,
        sigma_empirical=aggregate_sigma(s.calibration, i, record=trials).sigma,
    )


def run_scenario(s: Scenario) -> SweepRow:
    """Full pipeline for one scenario, assembled into a single result row."""
    try:
        report = check_conditions(s.model)
        t_grid = np.linspace(0.0, max(s.schedule.tau, 1.0), 11)[1:]
        constancy = state_constancy_check(
            s.model, s.preparation, t_grid, pointer_basis=s.pointer.basis
        )
        run = run_measurements(s)
    except Exception as exc:
        raise RuntimeError(f"scenario {s.name!r} failed: {exc}") from exc
    return SweepRow(
        eta=s.eta,
        seed=s.seed,
        eq4_defect=report.eq4_defect,
        eq5_defect=report.eq5_defect,
        constancy_dev=constancy,
        repeat_changes=run.repeats.outcome_changes(),
        reading_variance=run.reading_variance,
        sigma_analytic=run.sigma_analytic,
        sigma_empirical=run.sigma_empirical,
    )


def interpolation_sweep(
    dims: tuple[int, int],
    eta_grid,
    seeds,
    schedule: Schedule = Schedule(),
) -> list[SweepRow]:
    """Run the pipeline over an (eta, seed) grid of interpolated models.

    The output reports the tendency relation between condition defect and
    reading variance; no strict monotonicity is asserted.
    """
    rows = []
    for eta in eta_grid:
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta {eta} outside [0, 1]")
        for seed in seeds:
            m = random_model(dims, "interpolated", seed, eta=eta)
            s = Scenario.build(
                name=f"interp-eta{eta:g}-seed{seed}",
                model=m,
                preparation=Preparation.eigenbasis(0, 0),
                schedule=schedule,
                seed=seed,
                eta=eta,
            )
            rows.append(run_scenario(s))
    return rows


def write_sweep_csv(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for row in rows:
        writer.writerow(row.as_csv_fields())


# ---------------------------------------------------------------------------
# Independent oracles


def _expm_series(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a truncated series."""
    norm = float(np.linalg.norm(a, np.inf))
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    b = a / (2**squarings)
    n = a.shape[0]
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _joint_index(i: int, lam: int, d_s: int, d_m: int, swapped: bool) -> int:
    # swapped=True injects the wrong (apparatus-major) convention; used only
    # as a negative control in tests.
    return lam * d_s + i if swapped else i * d_m + lam


def _rhs_index_loops(
    m: BipartiteModel, w: np.ndarray, swapped: bool = False
) -> np.ndarray:
    """Component-wise evolution equation via quadruple-indexed loops."""
    d_s, d_m = m.d_system, m.d_apparatus
    hs = m.h_system.matrix
    hm = m.h_apparatus.matrix
    hc = m.h_coupling.matrix
    out = np.zeros_like(w)

    def jx(i, lam):
        return _joint_index(i, lam, d_s, d_m, swapped)

    for i in range(d_s):
        for k in range(d_s):
            for lam in range(d_m):
                for nu in range(d_m):
                    acc = 0.0 + 0.0j
                    # system term: sum_j H_S^{ij} w^{jk} - w^{ij} H_S^{jk}
                    for j in range(d_s):
                        acc += hs[i, j] * w[jx(j, lam), jx(k, nu)]
                        acc -= w[jx(i, lam), jx(j, nu)] * hs[j, k]
                    # coupling term: sum_{j,mu} H_C w - w H_C
                    for j in range(d_s):
                        for mu in range(d_m):
                            acc += hc[jx(i, lam), jx(j, mu)] * w[jx(j, mu), jx(k, nu)]
                            acc -= w[jx(i, lam), jx(j, mu)] * hc[jx(j, mu), jx(k, nu)]
                    # apparatus term: sum_mu H_M^{lam mu} w - w H_M^{mu nu}
                    for mu in range(d_m):
                        acc += hm[lam, mu] * w[jx(i, mu), jx(k, nu)]
                        acc -= w[jx(i, lam), jx(k, mu)] * hm[mu, nu]
                    out[jx(i, lam), jx(k, nu)] = -1j * acc
    return out


def _born_index_loops(
    w: np.ndarray,
    pointer: PointerObservable,
    d_s: int,
    d_m: int,
    swapped: bool = False,
) -> np.ndarray:
    """Outcome weights via explicit index-loop traces."""
    p = np.zeros(d_m)
    basis = pointer.basis.eigenvectors
    for lam in range(d_m):
        v = basis[:, lam]
        acc = 0.0 + 0.0j
        for i in range(d_s):
            for mu in range(d_m):
                for nu in range(d_m):
                    r = _joint_index(i, mu, d_s, d_m, swapped)
                    c = _joint_index(i, nu, d_s, d_m, swapped)
                    acc += w[r, c] * v[nu] * v[mu].conj()
        p[lam] = acc.real
    return p


@dataclass(frozen=True)
class OracleReport:
    passed: bool
    lines: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        status = "ok" if self.passed else "MISMATCH"
        return "\n".join([f"oracle check: {status}"] + self.lines)


def oracle_check(
    dims: tuple[int, int],
    seed: int,
    tol: float = 1e-7,
    swap_index_convention: bool = False,
) -> OracleReport:
    """Cross-check the main numerics against slow independent recomputations.

    Recomputes the exact propagation via a truncated-series exponential, the
    outcome distribution via explicit index loops, and the evolution
    right-hand side via quadruple-indexed loops.  Returns a falsy report with
    a diff when any route disagrees beyond tol.  swap_index_convention
    deliberately mis-wires the oracle-side joint index (negative control).
    """
    d_s, d_m = dims
    if d_s > 3 or d_m > 3:
        raise ValueError("oracle_check is limited to dims <= (3, 3)")
    m = random_model(dims, "violating", seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11CE]))
    g = rng.normal(size=(m.dim, m.dim)) + 1j * rng.normal(size=(m.dim, m.dim))
    raw = g @ g.conj().T
    w0 = DensityOperator(raw / np.trace(raw).real)
    pointer = PointerObservable.from_operator(m.h_apparatus)
    t = 0.7

    lines = []
    passed = True

    h = total_hamiltonian(m).matrix
    u_series = _expm_series(-1j * h * t)
    w_series = u_series @ w0.matrix @ u_series.conj().T
    w_main = evolve_exact(m, w0, t).matrix
    d_evolve = float(np.linalg.norm(w_series - w_main))
    if d_evolve > tol:
        passed = False
        lines.append(f"evolve_exact vs series exponential: |diff| = {d_evolve:.3e}")

    rhs_main = rhs_component_form(m, w0.matrix)
    rhs_loops = _rhs_index_loops(m, w0.matrix, swapped=swap_index_convention)
    d_rhs = float(np.linalg.norm(rhs_main - rhs_loops))
    if d_rhs > tol:
        passed = False
        lines.append(f"rhs_component_form vs index loops: |diff| = {d_rhs:.3e}")

    p_main = outcome_distribution(w0, pointer, dims)
    p_loops = _born_index_loops(
        w0.matrix, pointer, d_s, d_m, swapped=swap_index_convention
    )
    p_loops = np.maximum(p_loops, 0.0)
    p_loops = p_loops / p_loops.sum()
    d_born = float(np.max(np.abs(p_main - p_loops)))
    if d_born > tol:
        passed = False
        lines.append(f"outcome_distribution vs index loops: |diff| = {d_born:.3e}")

    return OracleReport(passed=passed, lines=lines)
