"""Pointer-basis readout: Born-rule sampling, repeated measurement, statistics.

Outcome probabilities come from projecting the joint state onto the pointer
eigenprojectors on the apparatus factor; the post-measurement update is the
Lüders projection on that factor only.  Per-trial randomness derives from
``SeedSequence([seed, trial])`` so trials are reproducible and independent.
draw_trials and reading_variance are the steps scenarios.run_measurements
composes; measurement_trials and dispersion_experiment run them from a model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    EPS_POS,
    DensityOperator,
    DimensionMismatchError,
    HermitianOperator,
    SpectralDecomposition,
    read_only,
    spectral,
    tensor,
)
from .model import BipartiteModel, Preparation, prepare_initial
from .dynamics import evolve_exact


class ImpossibleOutcomeError(RuntimeError):
    """Conditioning on an outcome with zero probability."""

    def __init__(self, pointer_index: int, trial: Optional[int] = None):
        where = "" if trial is None else f" in trial {trial}"
        super().__init__(
            f"pointer outcome {pointer_index} has zero probability{where}"
        )
        self.pointer_index = pointer_index
        self.trial = trial


@dataclass(frozen=True)
class PointerObservable:
    """Apparatus-space observable whose eigenvalues are the raw readings."""

    operator: HermitianOperator
    basis: SpectralDecomposition
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", read_only(self.values, float))

    @classmethod
    def from_operator(cls, h: HermitianOperator) -> "PointerObservable":
        dec = spectral(h)
        return cls(operator=h, basis=dec, values=dec.eigenvalues)

    @property
    def dim(self) -> int:
        return self.operator.dim

    def projector(self, lam: int) -> np.ndarray:
        v = self.basis.eigenvectors[:, lam]
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class Calibration:
    """Maps (prepared system index i, pointer index lam) to a real reading.

    Default reading is the pointer eigenvalue, independent of i; a full
    (i, lam) table may be supplied instead.
    """

    pointer_values: np.ndarray
    table: Optional[np.ndarray] = None  # shape (dS, dM)

    def __post_init__(self):
        vals = read_only(self.pointer_values, float)
        if not np.isfinite(vals).all():
            raise ValueError("calibration pointer values must be finite")
        object.__setattr__(self, "pointer_values", vals)
        if self.table is not None:
            tab = read_only(self.table, float)
            if tab.ndim != 2 or tab.shape[1] != len(vals) or not np.isfinite(tab).all():
                raise ValueError("calibration table must be a finite (dS, dM) array")
            object.__setattr__(self, "table", tab)

    @classmethod
    def from_pointer(cls, pointer: PointerObservable) -> "Calibration":
        return cls(pointer_values=pointer.values)

    def value(self, system_index: Optional[int], pointer_index: int) -> float:
        if self.table is not None and system_index is not None:
            return float(self.table[system_index, pointer_index])
        return float(self.pointer_values[pointer_index])


@dataclass(frozen=True)
class RecordEntry:
    trial: int
    time: float
    system_index: Optional[int]
    pointer_index: int
    reading: float


@dataclass
class MeasurementRecord:
    entries: list[RecordEntry] = field(default_factory=list)

    def append(self, entry: RecordEntry) -> None:
        self.entries.append(entry)

    def readings(self) -> np.ndarray:
        return np.array([e.reading for e in self.entries], dtype=float)

    def pointer_indices(self) -> np.ndarray:
        return np.array([e.pointer_index for e in self.entries], dtype=int)

    def outcome_changes(self) -> int:
        """Count of consecutive entries whose pointer index changed."""
        idx = self.pointer_indices()
        if len(idx) < 2:
            return 0
        return int(np.sum(idx[1:] != idx[:-1]))

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "time", "i", "lambda", "reading"])
        for e in self.entries:
            i = "" if e.system_index is None else e.system_index
            writer.writerow(
                [e.trial, f"{e.time:.17g}", i, e.pointer_index, f"{e.reading:.17g}"]
            )


@dataclass(frozen=True)
class PointerStatistics:
    probabilities: np.ndarray
    sigma: float
    system_index: Optional[int]
    mode: str  # "analytic" | "empirical"

    def __post_init__(self):
        object.__setattr__(self, "probabilities", read_only(self.probabilities, float))


def outcome_distribution(
    w: DensityOperator, pointer: PointerObservable, dims: tuple[int, int]
) -> np.ndarray:
    """Born weights p_lam = tr(w (I x Pi_lam)) over pointer outcomes.

    Values in [-EPS_POS, 0) are floating noise and clipped to 0, then the
    distribution is renormalized; larger negatives are an error.
    """
    d_s, d_m = dims
    if w.dim != d_s * d_m:
        raise DimensionMismatchError(
            f"state dim {w.dim} does not factor as {d_s}*{d_m}"
        )
    if pointer.dim != d_m:
        raise DimensionMismatchError("pointer dimension does not match apparatus")
    eye_s = np.eye(d_s, dtype=complex)
    p = np.empty(d_m)
    for lam in range(d_m):
        p[lam] = float(np.trace(w.matrix @ tensor(eye_s, pointer.projector(lam))).real)
    if p.min() < -EPS_POS:
        raise ValueError(f"outcome probability {p.min():.3e} below -{EPS_POS:g}")
    p = np.maximum(p, 0.0)
    return p / p.sum()


def sample_outcome(p: Sequence[float], rng: np.random.Generator) -> int:
    """Single-draw CDF inversion; boundary ties resolve to the lower index.

    A draw past the rounded total falls to the last outcome of positive weight.
    """
    u = rng.random()
    cum = 0.0
    for lam, plam in enumerate(p):
        cum += plam
        if u < cum:
            return lam
    return max(lam for lam, plam in enumerate(p) if plam > 0)


def collapse_after_outcome(
    w: DensityOperator,
    pointer: PointerObservable,
    lam: int,
    dims: tuple[int, int],
) -> DensityOperator:
    """Lüders update on the apparatus factor: (I x Pi) w (I x Pi) / p_lam."""
    d_s, d_m = dims
    proj = tensor(np.eye(d_s, dtype=complex), pointer.projector(lam))
    projected = proj @ w.matrix @ proj
    p_lam = float(np.trace(projected).real)
    if p_lam <= 0.0:
        raise ImpossibleOutcomeError(lam)
    return DensityOperator(projected / p_lam)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial generator from (seed, trial index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def repeatability_protocol(
    m: BipartiteModel,
    prep: Preparation,
    pointer: PointerObservable,
    cal: Calibration,
    tau: float,
    delta_tau: float,
    n_repeats: int,
    seed: int,
    trial: int = 0,
) -> MeasurementRecord:
    """Measure, then re-evolve and re-measure n_repeats times in one run.

    Prepare w(0), evolve to tau, sample and collapse; then repeatedly evolve
    by delta_tau and measure again, recording every outcome.
    """
    if n_repeats < 2:
        raise ValueError("need n_repeats >= 2")
    if tau <= 0 or delta_tau <= 0:
        raise ValueError("tau and delta_tau must be positive")
    dims = (m.d_system, m.d_apparatus)
    rng = trial_rng(seed, trial)
    sys_index = prep.system_index
    record = MeasurementRecord()
    w = prepare_initial(m, prep, pointer_basis=pointer.basis)
    t = 0.0
    for k in range(n_repeats):
        step = tau if k == 0 else delta_tau
        w = evolve_exact(m, w, step)
        t += step
        p = outcome_distribution(w, pointer, dims)
        lam = sample_outcome(p, rng)
        try:
            w = collapse_after_outcome(w, pointer, lam, dims)
        except ImpossibleOutcomeError as exc:
            raise ImpossibleOutcomeError(lam, trial) from exc
        record.append(
            RecordEntry(trial, t, sys_index, lam, cal.value(sys_index, lam))
        )
    return record


def measurement_trials(
    m: BipartiteModel,
    prep: Preparation,
    pointer: PointerObservable,
    cal: Calibration,
    tau: float,
    n_trials: int,
    seed: int,
) -> MeasurementRecord:
    """Independent prepare -> evolve(tau) -> measure runs, one entry per trial."""
    w0 = prepare_initial(m, prep, pointer_basis=pointer.basis)
    w_tau = evolve_exact(m, w0, tau) if tau > 0 else w0
    p = outcome_distribution(w_tau, pointer, (m.d_system, m.d_apparatus))
    return draw_trials(p, cal, prep.system_index, tau, n_trials, seed)


def draw_trials(
    p: Sequence[float],
    cal: Calibration,
    system_index: Optional[int],
    tau: float,
    n_trials: int,
    seed: int,
) -> MeasurementRecord:
    """One record entry per trial; trial k samples p with trial_rng(seed, k)."""
    if n_trials < 1:
        raise ValueError("need n_trials >= 1")
    record = MeasurementRecord()
    for trial in range(n_trials):
        lam = sample_outcome(p, trial_rng(seed, trial))
        record.append(
            RecordEntry(trial, tau, system_index, lam, cal.value(system_index, lam))
        )
    return record


def dispersion_experiment(
    m: BipartiteModel,
    prep: Preparation,
    pointer: PointerObservable,
    cal: Calibration,
    tau: float,
    n_trials: int,
    seed: int,
) -> float:
    """Population variance of readings over independent trials.

    Zero for non-demolition models with eigenbasis preparations (every trial
    hits the same pointer state); strictly positive for generic violating
    models.
    """
    return reading_variance(
        measurement_trials(m, prep, pointer, cal, tau, n_trials, seed)
    )


def reading_variance(record: MeasurementRecord) -> float:
    """Population variance of the readings; 0 for a single entry (degenerate)."""
    readings = record.readings()
    if len(readings) < 2:
        return 0.0
    if np.all(readings == readings[0]):
        # exact zero: identical readings must not pick up summation residue
        return 0.0
    return float(np.var(readings))


def aggregate_sigma(
    cal: Calibration,
    system_index: Optional[int],
    distribution: Optional[Sequence[float]] = None,
    record: Optional[MeasurementRecord] = None,
) -> PointerStatistics:
    """Weighted pointer mean sigma_i = sum_lam p_lam * c(i, lam).

    Analytic mode takes the Born distribution directly; empirical mode takes
    observed frequencies from a measurement record.
    """
    if (distribution is None) == (record is None):
        raise ValueError("pass exactly one of distribution or record")
    if distribution is not None:
        p = np.asarray(distribution, dtype=float)
        mode = "analytic"
    else:
        if not record.entries:
            raise ValueError("empty record set")
        idx = record.pointer_indices()
        d_m = len(cal.pointer_values)
        p = np.bincount(idx, minlength=d_m).astype(float) / len(idx)
        mode = "empirical"
    sigma = float(
        sum(p[lam] * cal.value(system_index, lam) for lam in range(len(p)))
    )
    return PointerStatistics(
        probabilities=p, sigma=sigma, system_index=system_index, mode=mode
    )
