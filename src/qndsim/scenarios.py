"""Curated experiment definitions and sweeps.

A Scenario bundles a model, a preparation, a pointer observable, a schedule,
and a scenario file's calibration table, if it gives one: one point, as a
scenario file loads it, or a batch of points that share dims, preparation,
pointer eigenvalue groups and schedule, stacked so that each stage runs once
over all of them.  measure_batch is the one measurement pipeline, which CLI
measure and run_batch both run, and interpolation_sweep the one maker of
multi-point scenarios.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .linalg import degenerate_groups
from .model import (BipartiteModel, Preparation, check_conditions, drawn_model, model_draws,
                    prepare_kets)
from .dynamics import energy_coherence, kets_at
from .measurement import (PointerObservable, aggregate_sigma, invert_cdf, ket_distribution,
                          outcome_changes, outcome_frequencies, reading_variance, repeat_times,
                          repeated_outcomes, trial_rng)

DEFAULT_ETA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
# Bytes one sweep batch may hold (4 MiB), which bounds the points it runs at once.
BATCH_BYTES = 1 << 22
MAX_BYTES = int(np.iinfo(np.intp).max)  # the most bytes numpy can size one array to
DRAW_BYTES, ROW_BYTES, ENTRY_BYTES = 8, 24, 16  # a draw or outcome, a record row, a matrix entry
MAX_COUNT = MAX_BYTES // (DRAW_BYTES + ROW_BYTES)  # of repeats or trials: a draw and a row each
MAX_DIM = math.isqrt(MAX_BYTES // ENTRY_BYTES)  # of a d x d matrix: 759250124


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
        for name in ("n_repeats", "n_trials"):
            if getattr(self, name) > MAX_COUNT:
                raise ValueError(f"schedule needs {name} <= {MAX_COUNT}")


@dataclass(frozen=True)
class Scenario:
    """Model and pointer carry the batch axes, and the per-point names, seeds
    and etas are tuples in the batch's C order.  table is a scenario file's
    read-only (dS, groups) calibration table, or None.  readings and ensemble
    are computed once, on first use."""

    names: tuple[str, ...]
    model: BipartiteModel
    preparation: Preparation
    pointer: PointerObservable
    schedule: Schedule
    table: Optional[np.ndarray]
    seeds: tuple[int, ...]
    etas: tuple[Optional[float], ...]

    @cached_property
    def readings(self) -> np.ndarray:
        """The reading of each pointer group, (*batch, groups), and the one
        place a reading is decided: the table's row at the prepared system
        index, or the pointer values when there is no table or no index."""
        i = self.preparation.system_index
        return self.pointer.values if self.table is None or i is None else self.table[i]

    @cached_property
    def ensemble(self) -> tuple[np.ndarray, np.ndarray]:
        """w(0) of every point, prepared in its pointer basis, as prepare_kets's
        ensemble: weights q and the coordinates C = V^dag phi of its kets in
        H's eigenbasis."""
        q, phi = prepare_kets(self.model, self.preparation, pointer_basis=self.pointer.basis)
        return q, phi @ self.model.spectrum.eigenvectors.conj()


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
        """Integers as they are, floats at full precision, an absent eta empty."""
        return ["" if v is None else str(v) if isinstance(v, int) else f"{v:.17g}"
                for v in (getattr(self, name) for name in SWEEP_HEADER)]


SWEEP_HEADER = [f.name for f in fields(SweepRow)]


class MeasurementRun(NamedTuple):
    """Everything a batch's measurements yield, with the batch's axes first:
    the pointer groups of each point's trials (*batch, n_trials) and repeats
    (*batch, n_repeats), the repeat times (n_repeats,), and one statistic per
    point (*batch).  A MeasurementRecord made from them copies what it keeps.
    A NamedTuple: cheaper to define at import than a dataclass."""

    trial_lams: np.ndarray
    repeat_lams: np.ndarray
    repeat_times: np.ndarray
    repeat_changes: np.ndarray
    reading_variance: np.ndarray
    sigma_analytic: np.ndarray
    sigma_empirical: np.ndarray


def measure_batch(s: Scenario) -> MeasurementRun:
    """The kets at tau and their Born p per point, each stage run once over the
    batch.  Each distinct seed draws trial_rng(seed).random(max(n_repeats,
    n_trials)) once, shared by its points: draw k is both repeat k's and trial
    k's.  The repeats start from the kets at tau; p feeds the repeats' first
    reading, the n_trials readings of every point, inverted in one call, and
    the analytic weighted mean.  The draws go before the statistics, each
    taken once over the last axis of the batch's outcomes; a statistic that
    is not finite (readings that overflow it) fails the batch."""
    sched, m = s.schedule, s.model
    times = repeat_times(sched.tau, sched.delta_tau, sched.n_repeats)
    q, c = s.ensemble
    phi_tau = kets_at(m, c, sched.tau)
    p = ket_distribution(q, phi_tau, s.pointer, (m.d_system, m.d_apparatus))
    n_draws = max(sched.n_repeats, sched.n_trials)
    streams = {seed: trial_rng(seed).random(n_draws) for seed in dict.fromkeys(s.seeds)}
    u = np.stack([streams[seed] for seed in s.seeds]).reshape(*m.batch, n_draws)
    del streams
    repeat_lams = repeated_outcomes(m, q, phi_tau, p, s.pointer, sched.delta_tau,
                                    u[..., :sched.n_repeats])
    trial_lams = invert_cdf(p, u[..., :sched.n_trials])
    del u, phi_tau
    stats = {
        "reading_variance": reading_variance(
            np.take_along_axis(s.readings, trial_lams, axis=-1)),
        "sigma_analytic": aggregate_sigma(p, s.readings),
        "sigma_empirical": aggregate_sigma(
            outcome_frequencies(trial_lams, p.shape[-1]), s.readings),
    }
    for name, value in stats.items():
        if not np.isfinite(value).all():
            raise RuntimeError(f"{name} is not finite: the readings overflow it")
    return MeasurementRun(trial_lams, repeat_lams, times, outcome_changes(repeat_lams), **stats)


def run_batch(s: Scenario) -> list[SweepRow]:
    """The full pipeline, each stage once over the batch: the condition check,
    the constancy L of the ensemble measure_batch measures, and measure_batch;
    then one result row per point.  A failure is a RuntimeError that names the
    scenario, or for a batch of several points the range of them."""
    try:
        report = check_conditions(s.model)
        q, c = s.ensemble  # the state in H's eigenbasis, sum_k q_k c_k c_k^dag
        constancy = energy_coherence(s.model, (q[..., None] * c).swapaxes(-1, -2) @ c.conj())
        run = measure_batch(s)
    except MemoryError:
        raise  # an input too large to allocate, not a failing point
    except Exception as exc:
        if len(s.names) == 1:
            raise RuntimeError(f"scenario {s.names[0]!r} failed: {exc}") from exc
        raise RuntimeError(
            f"scenarios {s.names[0]!r} to {s.names[-1]!r} failed as one batch: {exc}"
        ) from exc
    columns = (np.reshape(a, -1).tolist() for a in (
        report.eq4_defect, report.eq5_defect, constancy, run.repeat_changes,
        run.reading_variance, run.sigma_analytic, run.sigma_empirical))
    return [SweepRow(*row) for row in zip(s.etas, s.seeds, *columns, strict=True)]


def run_scenario(s: Scenario) -> SweepRow:
    """Full pipeline for one scenario, assembled into a single result row."""
    return run_batch(s)[0]


def _point_bytes(dims: tuple[int, int], schedule: Schedule) -> int:
    """Bytes a sweep point adds to its batch's peak, so that a batch of
    BATCH_BYTES // _point_bytes points stays within BATCH_BYTES: 9 joint
    matrices (the model's coupling, H and its eigenvectors, its seed's two
    drawn couplings, and at the peak H's check, a commutator with its lift or
    eigh's work; kets are vectors; a one-point (12, 12) and (16, 16) sweep
    peaks at 8.1 and 8.0 under tracemalloc), its pointer's projectors (at most
    dM of dM x dM), 8 B for each of its draws, trial outcomes, trial readings
    and repeat outcomes (np.var's temporary takes the draws' place), and 512 B
    for its name and row.  Full batches of 1002 (2, 2), 105 (4, 4) and 6 (8, 8)
    points with one eta per seed peak at 3.84, 3.70 and 3.21 MB (2.98, 2.92
    and 2.13 MB on the default eta grid); a (2, 2) point costs 24 B per trial."""
    d_s, d_m = dims
    entries = 9 * (d_s * d_m) ** 2 + d_m ** 3
    rows = max(schedule.n_repeats, schedule.n_trials) + 2 * schedule.n_trials + schedule.n_repeats
    return ENTRY_BYTES * entries + DRAW_BYTES * rows + 512


def _sweep_batch(dims, points, draws, schedule) -> Scenario:
    """The interpolated models of points, (eta, seed, k) with k the seed's row
    in draws, whose h_M spectra are the pointers."""
    model = drawn_model(dims, draws, [k for _, _, k in points], [eta for eta, _, _ in points])
    return Scenario(
        names=tuple(f"interp-eta{eta:g}-seed{seed}" for eta, seed, _ in points),
        model=model,
        preparation=Preparation.eigenbasis(0, 0),
        pointer=PointerObservable(model.h_apparatus, model.apparatus_basis),
        schedule=schedule,
        table=None,
        seeds=tuple(seed for _, seed, _ in points),
        etas=tuple(eta for eta, _, _ in points),
    )


def interpolation_sweep(
    dims: tuple[int, int], eta_grid, seeds, schedule: Schedule
) -> list[SweepRow]:
    """Run the pipeline over an (eta, seed) grid of interpolated models.

    Each seed's matrices are drawn once and blended for every eta.  A batch
    holds at most BATCH_BYTES // _point_bytes points, whose pointers share
    eigenvalue groups; seeds are drawn a batch's worth at a time, and a long
    eta grid is split across batches.  When a batch of several points fails,
    its points rerun one at a time and the first that fails alone is named;
    every stage computes a point with the bits of the one-point call, so it
    fails alike.  The rows come back in grid order, eta-major.  The output
    reports the tendency relation between condition defect and reading
    variance; no strict monotonicity is asserted.
    """
    etas, seeds = list(eta_grid), list(seeds)
    if not etas or not seeds:
        return []
    per_batch = max(1, BATCH_BYTES // _point_bytes(dims, schedule))
    per_draw = max(1, per_batch // len(etas))
    rows = [None] * (len(etas) * len(seeds))
    for lo in range(0, len(seeds), per_draw):
        chunk = seeds[lo:lo + per_draw]
        draws = model_draws(dims, chunk)
        groups = {}
        for k, values in enumerate(draws.apparatus_basis.eigenvalues):
            groups.setdefault(tuple(degenerate_groups(values)), []).append(k)
        for members in groups.values():
            points = [(eta, chunk[k], k) for eta in etas for k in members]
            slots = [e * len(seeds) + lo + k for e in range(len(etas)) for k in members]
            for b in range(0, len(points), per_batch):
                batch = points[b:b + per_batch]
                try:
                    batch_rows = run_batch(_sweep_batch(dims, batch, draws, schedule))
                except RuntimeError:
                    if len(batch) > 1:  # a batch of one is named already
                        for point in batch:  # raises naming the first that fails alone
                            run_batch(_sweep_batch(dims, [point], draws, schedule))
                    raise
                for slot, row in zip(slots[b:b + per_batch], batch_rows, strict=True):
                    rows[slot] = row
    return rows


def write_sweep_csv(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for row in rows:
        writer.writerow(row.as_csv_fields())


def __getattr__(name):  # oracle_check on first access, so no command imports qndsim.exact
    if name != "oracle_check":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .exact import oracle_check
    return oracle_check
