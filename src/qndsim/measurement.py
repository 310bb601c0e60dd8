"""Pointer-basis readout: Born-rule sampling, repeated measurement, statistics.

An outcome is a distinct pointer value: one group of eigenvalues within
DEGENERACY_TOL, and its eigenspace.  Both steps act on the apparatus axes of
w viewed as (dS, dM, dS, dM), with no joint-space projector: Born weights are
the eigenspace weights of rho_M = tr_S w, and the update is the Lüders
projection (I x P_g) w (I x P_g) onto the measured eigenspace.  Randomness is
one counter-based stream per seed, trial_rng(seed): trial k, and the repeat
protocol's k-th measurement, take draw k, so the first k trials of an n-trial
run equal a k-trial run.  A MeasurementRecord holds the results as columns.
draw_trials and reading_variance are the steps scenarios.run_measurements
composes; measurement_trials and dispersion_experiment run them from a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    EPS_POS,
    DensityOperator,
    DimensionMismatchError,
    HermitianOperator,
    SpectralDecomposition,
    degenerate_groups,
    joint_axes,
    read_only,
    spectral,
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
    """Apparatus-space observable whose distinct eigenvalues are the raw readings:
    outcome g is the g-th degenerate group (linalg.degenerate_groups), with
    eigenvectors in basis columns starts[g] to starts[g + 1] and reading
    values[g], the group's lowest eigenvalue."""

    operator: HermitianOperator
    basis: SpectralDecomposition
    starts: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        starts = degenerate_groups(self.basis.eigenvalues)
        object.__setattr__(self, "starts", read_only(starts, int))
        object.__setattr__(self, "values", read_only(self.basis.eigenvalues[starts], float))

    @classmethod
    def from_operator(cls, h: HermitianOperator) -> "PointerObservable":
        return cls(h, spectral(h))

    @property
    def dim(self) -> int:
        return self.operator.dim

    @cached_property
    def projectors(self) -> np.ndarray:
        """Read-only (groups, dM, dM): P_g = V_g V_g^dag for each eigenspace block V_g."""
        blocks = np.split(self.basis.eigenvectors, self.starts[1:], axis=1)
        return read_only([b @ b.conj().T for b in blocks])


@dataclass(frozen=True)
class Calibration:
    """Maps (prepared system index i, pointer group lam) to a real reading.

    Default reading is the pointer value, independent of i; a full (i, lam)
    table, one column per distinct pointer value, may be supplied instead.
    """

    pointer_values: np.ndarray
    table: Optional[np.ndarray] = None  # shape (dS, number of pointer values)

    def __post_init__(self):
        vals = read_only(self.pointer_values, float)
        if not np.isfinite(vals).all():
            raise ValueError("calibration pointer values must be finite")
        object.__setattr__(self, "pointer_values", vals)
        if self.table is not None:
            tab = read_only(self.table, float)
            if tab.ndim != 2 or tab.shape[1] != len(vals) or not np.isfinite(tab).all():
                raise ValueError(f"calibration table must be a finite (dS, {len(vals)}) array")
            object.__setattr__(self, "table", tab)

    @classmethod
    def from_pointer(cls, pointer: PointerObservable) -> "Calibration":
        return cls(pointer_values=pointer.values)

    def readings(self, system_index: Optional[int], pointer_index) -> np.ndarray:
        """c(i, lam) for a pointer group or an array of them."""
        if self.table is not None and system_index is not None:
            return self.table[system_index, pointer_index]
        return self.pointer_values[pointer_index]


NO_INDEX = -1  # the i column of a row without a prepared system index


@dataclass(frozen=True)
class MeasurementRecord:
    """Read-only columns, one row per trial or repeat; lam, the CSV's lambda,
    is the pointer group index."""

    trial: np.ndarray
    time: np.ndarray
    i: np.ndarray
    lam: np.ndarray
    reading: np.ndarray

    def __post_init__(self):
        columns = {"trial": int, "time": float, "i": int, "lam": int, "reading": float}
        for name, dtype in columns.items():
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))
        if self.trial.ndim != 1 or len({getattr(self, n).shape for n in columns}) != 1:
            raise ValueError("record columns must be 1-D and of one length")

    @classmethod
    def from_outcomes(cls, cal: Calibration, system_index: Optional[int], trial, time, lam):
        """Rows of pointer groups lam at one system index, read through cal;
        trial and time broadcast against lam."""
        lam = np.asarray(lam, dtype=int)
        i = NO_INDEX if system_index is None else system_index
        trial, time, i = (np.broadcast_to(c, lam.shape) for c in (trial, time, i))
        return cls(trial, time, i, lam, cal.readings(system_index, lam))

    def outcome_changes(self) -> int:
        """Count of consecutive rows whose pointer group changed."""
        return int(np.count_nonzero(self.lam[1:] != self.lam[:-1]))

    def write_csv(self, fh) -> None:
        fh.write("trial,time,i,lambda,reading\n")
        i = ["" if k == NO_INDEX else k for k in self.i.tolist()]
        rows = zip(self.trial.tolist(), self.time.tolist(), i,
                   self.lam.tolist(), self.reading.tolist())
        # "%.17g" prints what f"{x:.17g}" does, one row per format call.
        fh.writelines("%d,%.17g,%s,%d,%.17g\n" % row for row in rows)


@dataclass(frozen=True)
class PointerStatistics:
    probabilities: np.ndarray
    sigma: float
    system_index: Optional[int]
    mode: str  # "analytic" | "empirical"

    def __post_init__(self):
        object.__setattr__(self, "probabilities", read_only(self.probabilities, float))


def _apparatus_axes(w: DensityOperator, pointer: PointerObservable, dims) -> np.ndarray:
    if pointer.dim != dims[1]:
        raise DimensionMismatchError("pointer dimension does not match apparatus")
    return joint_axes(w, *dims)


def outcome_distribution(
    w: DensityOperator, pointer: PointerObservable, dims: tuple[int, int]
) -> np.ndarray:
    """Born weights p_g = tr(w (I x P_g)): the sum of Re(v_k^dag rho_M v_k) over
    the eigenvectors v_k of group g, with rho_M = tr_S w.

    Values in [-EPS_POS, 0) are floating noise and clipped to 0, then the
    distribution is renormalized; larger negatives are an error.
    """
    rho_m = np.einsum("iaib->ab", _apparatus_axes(w, pointer, dims))
    v = pointer.basis.eigenvectors
    p = np.add.reduceat((v.conj() * (rho_m @ v)).sum(axis=0).real, pointer.starts)
    if p.min() < -EPS_POS:
        raise ValueError(f"outcome probability {p.min():.3e} below -{EPS_POS:g}")
    p = np.maximum(p, 0.0)
    return p / p.sum()


def invert_cdf(p: Sequence[float], u):
    """For each uniform draw u, the first lam whose running sum of p exceeds u;
    a draw at or past the rounded total falls to the last lam with p > 0."""
    p = np.asarray(p, dtype=float)
    lam = np.searchsorted(np.cumsum(p), u, side="right")
    return np.minimum(lam, np.flatnonzero(p > 0)[-1])


def sample_outcome(p: Sequence[float], rng: np.random.Generator) -> int:
    """One Born draw: invert_cdf at a single rng.random()."""
    return int(invert_cdf(p, rng.random()))


def collapse_after_outcome(
    w: DensityOperator,
    pointer: PointerObservable,
    lam: int,
    dims: tuple[int, int],
) -> DensityOperator:
    """Lüders update onto the eigenspace of group lam: (I x P) w (I x P) / p_lam,
    P applied on the row and then the column apparatus axis."""
    d_s, d_m = dims
    proj = pointer.projectors[lam]
    left = proj @ _apparatus_axes(w, pointer, dims).reshape(d_s, d_m, -1)
    projected = (left.reshape(-1, d_s, d_m) @ proj).reshape(w.dim, w.dim)
    p_lam = float(np.trace(projected).real)
    if p_lam <= 0.0:
        raise ImpossibleOutcomeError(lam)
    return DensityOperator(projected / p_lam)


def trial_rng(seed: int) -> np.random.Generator:
    """Philox keyed through SeedSequence(seed), so any seed >= 0 works (even
    >= 2**128); draw k is trial k's, however many draws are taken."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def repeatability_protocol(
    m: BipartiteModel,
    w_tau: DensityOperator,
    pointer: PointerObservable,
    cal: Calibration,
    system_index: Optional[int],
    tau: float,
    delta_tau: float,
    n_repeats: int,
    seed: int,
) -> MeasurementRecord:
    """Measure, then re-evolve and re-measure n_repeats times in one run.

    Sample and collapse the state w_tau reached at time tau; then repeatedly
    evolve by delta_tau and measure again, recording every outcome as trial 0.
    The k-th measurement takes draw k of trial_rng(seed).
    """
    if n_repeats < 2:
        raise ValueError("need n_repeats >= 2")
    if tau <= 0 or delta_tau <= 0:
        raise ValueError("tau and delta_tau must be positive")
    dims = (m.d_system, m.d_apparatus)
    rng = trial_rng(seed)
    w, t = w_tau, tau
    times, lams = [], []
    for k in range(n_repeats):
        if k:
            w = evolve_exact(m, w, delta_tau)
            t += delta_tau
        p = outcome_distribution(w, pointer, dims)
        lam = sample_outcome(p, rng)
        try:
            w = collapse_after_outcome(w, pointer, lam, dims)
        except ImpossibleOutcomeError as exc:
            raise ImpossibleOutcomeError(lam, 0) from exc
        times.append(t)
        lams.append(lam)
    return MeasurementRecord.from_outcomes(cal, system_index, 0, times, lams)


def measurement_trials(
    m: BipartiteModel,
    prep: Preparation,
    pointer: PointerObservable,
    cal: Calibration,
    tau: float,
    n_trials: int,
    seed: int,
) -> MeasurementRecord:
    """Independent prepare -> evolve(tau) -> measure runs, one row per trial."""
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
    """One row per trial at time tau; trial k inverts p at draw k of trial_rng(seed)."""
    if n_trials < 1:
        raise ValueError("need n_trials >= 1")
    lam = invert_cdf(p, trial_rng(seed).random(n_trials))
    return MeasurementRecord.from_outcomes(cal, system_index, np.arange(n_trials), tau, lam)


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
    """Population variance of the readings; 0 for a single row (degenerate)."""
    readings = record.reading
    # exact zero: identical readings must not pick up summation residue
    if len(readings) < 2 or np.all(readings == readings[0]):
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
        if not len(record.lam):
            raise ValueError("empty record set")
        p = np.bincount(record.lam, minlength=len(cal.pointer_values)) / len(record.lam)
        mode = "empirical"
    # builtin sum, not a dot product: adds in lam order, so sigma keeps its rounding
    sigma = float(sum(p * cal.readings(system_index, np.arange(len(p)))))
    return PointerStatistics(
        probabilities=p, sigma=sigma, system_index=system_index, mode=mode
    )
