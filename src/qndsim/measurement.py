"""Pointer-basis readout: Born-rule sampling, repeated measurement, statistics.

The pipeline measures an ensemble of weights q (..., r) and unit kets
phi (..., r, d), model.prepare_kets's w = sum_k q_k |phi_k><phi_k|, never a
d x d state, and acts on the apparatus axis alone, with no joint-space
projector.  outcome_distribution and collapse_after_outcome are the Born
weights and the Lüders update of a d x d state matrix, the references that the
tests and the benchmark's checks call.  Ensembles, pointers and Born distributions
may carry leading batch axes: each stage then steps every point of a batch
at once, and the statistics reduce the last axis of a batch's outcomes and
readings.  invert_cdf, repeated_outcomes and the statistics are the steps
scenarios.measure_batch composes; measurement_trials, repeatability_protocol
and dispersion_experiment run them for one model, given its readings vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .linalg import (EPS_POS, DimensionMismatchError, HermitianOperator, InvariantViolationError,
                     SpectralDecomposition, as_operators, degenerate_groups, joint_axes,
                     read_only, spectral)
from .csvtext import write_record
from .model import BipartiteModel, Preparation, prepare_kets
from .dynamics import IntegrationError, kets_at


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
    values[g], the group's lowest eigenvalue.  A batch of pointers (operator
    and basis with leading axes) shares one group structure."""

    operator: HermitianOperator
    basis: SpectralDecomposition
    starts: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.basis.eigenvectors.shape != self.operator.matrix.shape:
            raise DimensionMismatchError("pointer basis and operator shapes differ")
        starts = degenerate_groups(self.basis.eigenvalues)
        object.__setattr__(self, "starts", read_only(starts, int))
        object.__setattr__(self, "values", read_only(self.basis.eigenvalues[..., starts], float))

    @classmethod
    def from_operator(cls, h: HermitianOperator) -> "PointerObservable":
        return cls(h, spectral(h))

    @property
    def dim(self) -> int:
        return self.operator.dim

    @cached_property
    def projectors(self) -> np.ndarray:
        """Read-only (..., groups, dM, dM): P_g = V_g V_g^dag for each eigenspace block V_g."""
        blocks = np.split(self.basis.eigenvectors, self.starts[1:], axis=-1)
        return read_only(np.stack([b @ b.conj().swapaxes(-1, -2) for b in blocks], axis=-3))


@dataclass(frozen=True)
class MeasurementRecord:
    """Rows of one run, each a trial or a repeat, at one system index (None
    without one); lam, the CSV's lambda, is each row's pointer group index,
    and readings (Scenario.readings) holds one reading per group, so a row
    reads readings[lam].  trial and time are each one value (0-d) or one per
    row: a trial record holds one time and a repeat record one trial, so a row
    stores 16 B.  lam and readings are 1-D, every lam in [0, len(readings)).
    Every column is stored as a read-only copy."""

    system_index: Optional[int]
    trial: np.ndarray
    time: np.ndarray
    lam: np.ndarray
    readings: np.ndarray

    def __post_init__(self):
        for name, dtype in (("trial", int), ("time", float), ("lam", int), ("readings", float)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))
        rows = self.lam.shape
        if (len(rows) != 1 or self.readings.ndim != 1
                or {self.trial.shape, self.time.shape} - {rows, ()}):
            raise ValueError("lam and readings must be 1-D, "
                             "trial and time one value or one per row")
        if rows[0] and not 0 <= self.lam.min() <= self.lam.max() < len(self.readings):
            raise ValueError("lam must index readings: 0 <= lam < len(readings)")

    @property
    def reading(self) -> np.ndarray:
        """Each row's reading, readings[lam]."""
        return self.readings[self.lam]

    def write_csv(self, fh) -> None:
        """The rows as CSV to the text file fh (csvtext.write_record)."""
        write_record(fh, self.system_index, self.trial, self.time, self.lam, self.readings)


def _apparatus_axes(w, pointer: PointerObservable, dims) -> np.ndarray:
    if pointer.dim != dims[1]:
        raise DimensionMismatchError("pointer dimension does not match apparatus")
    return joint_axes(w, *dims)


def _born(weights, pointer: PointerObservable) -> np.ndarray:
    """Born weights per group from weights (..., dM) per pointer eigenvector:
    summed per group, values in [-EPS_POS, 0) (floating noise) clipped to 0
    and the distribution renormalized; a larger negative, the lowest in a
    batch, is raised as an InvariantViolationError."""
    p = np.add.reduceat(weights, pointer.starts, axis=-1)
    if p.min() < -EPS_POS:
        raise InvariantViolationError(f"outcome probability {p.min():.3e} below -{EPS_POS:g}")
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def outcome_distribution(w, pointer: PointerObservable, dims: tuple[int, int]) -> np.ndarray:
    """Born weights p_g = tr(w (I x P_g)) of a state matrix: the sum of
    Re(v_k^dag rho_M v_k) over the eigenvectors v_k of group g, with rho_M =
    tr_S w (_born); (..., groups) for a batch of states and pointers."""
    rho_m = np.einsum("...iaib->...ab", _apparatus_axes(w, pointer, dims))
    v = pointer.basis.eigenvectors
    return _born((v.conj() * (rho_m @ v)).sum(axis=-2).real, pointer)


def ket_distribution(q, phi, pointer: PointerObservable, dims: tuple[int, int]) -> np.ndarray:
    """Born weights p_g = sum_k q_k ||(I x P_g) phi_k||^2 of weights q (..., r)
    and kets phi (..., r, d): each ket's squared coefficients in the pointer
    basis, summed over the system index and the kets, then per group (_born)."""
    kets = np.reshape(phi, (*np.shape(phi)[:-1], *dims))  # (..., r, dS, dM)
    b = kets @ pointer.basis.eigenvectors.conj()[..., None, :, :]
    return _born((q[..., None] * (b.real ** 2 + b.imag ** 2).sum(axis=-2)).sum(axis=-2), pointer)


def invert_cdf(p: Sequence[float], u):
    """For each uniform draw u, the first lam whose running sum of p exceeds u;
    a draw at or past the rounded total falls to the last lam with p > 0.

    p may be a (..., groups) batch of distributions; u's leading axes then
    match p's, and any further axes of u are draws from the same p.  The
    running sums do not decrease, so the index is the count of sums <= u,
    which is np.searchsorted(..., side="right"), counted one group at a time.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u)
    extra = (1,) * (u.ndim - p.ndim + 1)
    cdf = np.cumsum(p, axis=-1).reshape(*p.shape[:-1], *extra, p.shape[-1])
    lam = np.zeros(np.broadcast_shapes(u.shape, cdf.shape[:-1]), dtype=np.intp)
    for g in range(p.shape[-1]):
        lam += cdf[..., g] <= u
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)
    return np.minimum(lam, np.reshape(last, (*p.shape[:-1], *extra)), out=lam)


def sample_outcome(p: Sequence[float], rng: np.random.Generator) -> int:
    """One Born draw: invert_cdf at a single rng.random()."""
    return int(invert_cdf(p, rng.random()))


def collapse_after_outcome(w, pointer: PointerObservable, lam,
                           dims: tuple[int, int]) -> np.ndarray:
    """Lüders update of the state w onto the eigenspace of group lam:
    (I x P) w (I x P) / p_lam, P applied on the row and then the column
    apparatus axis, one matmul each; for a batch, lam holds one group per
    point.  A state by construction, so returned as an unchecked array."""
    d_s, d_m = dims
    axes = _apparatus_axes(w, pointer, dims)
    batch, d = axes.shape[:-4], d_s * d_m
    lam = np.broadcast_to(lam, batch)
    proj = np.take_along_axis(pointer.projectors, lam[..., None, None, None], axis=-3)
    left = proj @ axes.reshape(*batch, d_s, d_m, -1)
    projected = (left.reshape(*batch, -1, d_m) @ proj[..., 0, :, :]).reshape(*batch, d, d)
    p_lam = np.trace(projected, axis1=-2, axis2=-1).real
    impossible = p_lam <= 0.0
    if impossible.any():
        raise ImpossibleOutcomeError(int(lam[impossible][0]))
    return projected / p_lam[..., None, None]


def trial_rng(seed: int) -> np.random.Generator:
    """Philox (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
    SC'11) keyed through SeedSequence(seed), so any seed >= 0 works (even
    >= 2**128); draw k is trial k's however many draws are taken, so the
    first k trials of an n-trial run equal a k-trial run."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _collapse_kets(q, phi, pointer: PointerObservable, lam, dims):
    """Lüders update of (q, phi) onto group lam's eigenspace, one lam per point:
    each ket (I x P) phi_k renormalised, at weight q_k ||(I x P) phi_k||^2 /
    p_lam; a ket with no part in the eigenspace keeps its old ket at weight 0."""
    kets = np.reshape(phi, (*np.shape(phi)[:-1], *dims))  # (..., r, dS, dM)
    lam = np.broadcast_to(lam, np.shape(q)[:-1])
    proj = np.take_along_axis(pointer.projectors, lam[..., None, None, None], axis=-3)
    kept = kets @ proj.swapaxes(-1, -2)
    n2 = (kept.real ** 2 + kept.imag ** 2).sum(axis=(-2, -1))
    p_lam = (q * n2).sum(axis=-1)
    if (p_lam <= 0.0).any():
        raise ImpossibleOutcomeError(int(lam[p_lam <= 0.0][0]), 0)
    n = np.sqrt(n2)[..., None, None]
    kets = np.where(n > 0.0, kept / np.where(n > 0.0, n, 1.0), kets)
    return q * n2 / p_lam[..., None], kets.reshape(np.shape(phi))


def repeated_outcomes(m: BipartiteModel, q, phi_tau, p_tau, pointer: PointerObservable,
                      delta_tau: float, u) -> np.ndarray:
    """Pointer groups of u.shape[-1] repeated measurements, every point of a
    batch in lockstep: measurement k inverts the Born distribution at draw
    u[..., k] and collapses the ensemble, whose kets then evolve by delta_tau
    as kets_at(m, V^dag phi, delta_tau), each checked; U is never formed.  The
    first measures (q, phi_tau), whose distribution p_tau is given; the
    ensemble after the last measurement is never needed, so it is not formed."""
    dims = (m.d_system, m.d_apparatus)
    v_adj = m.spectrum.eigenvectors.conj()
    phi, p, lams = phi_tau, p_tau, []
    for k in range(u.shape[-1]):
        if k:
            phi = kets_at(m, phi @ v_adj, delta_tau)
            p = ket_distribution(q, phi, pointer, dims)
        lams.append(invert_cdf(p, u[..., k]))
        if k + 1 < u.shape[-1]:
            q, phi = _collapse_kets(q, phi, pointer, lams[-1], dims)
    return np.stack(lams, axis=-1)


def repeat_times(tau: float, delta_tau: float, n_repeats: int) -> np.ndarray:
    """tau, tau + delta_tau, ...: each time the previous one plus delta_tau; a
    last time that overflows raises IntegrationError."""
    with np.errstate(over="ignore"):
        times = np.cumsum(np.r_[tau, np.full(n_repeats - 1, delta_tau)])
    if not np.isfinite(times[-1]):
        raise IntegrationError(float(times[-1]), "the repeat times overflow")
    return times


def repeatability_protocol(m: BipartiteModel, w_tau, pointer: PointerObservable,
                           readings, system_index: Optional[int], tau: float,
                           delta_tau: float, n_repeats: int, seed: int) -> MeasurementRecord:
    """Measure, then re-evolve and re-measure n_repeats times in one run.

    Sample and collapse the state w_tau reached at time tau; then repeatedly
    evolve by delta_tau and measure again, recording every outcome as trial 0.
    The k-th measurement takes draw k of trial_rng(seed).
    """
    if n_repeats < 2:
        raise ValueError("need n_repeats >= 2")
    if tau <= 0 or delta_tau <= 0:
        raise ValueError("tau and delta_tau must be positive")
    p = outcome_distribution(w_tau, pointer, (m.d_system, m.d_apparatus))
    e, v = np.linalg.eigh(as_operators(w_tau))  # w_tau as the ensemble of its eigenvectors
    lams = repeated_outcomes(m, np.maximum(e, 0.0), v.swapaxes(-1, -2), p, pointer, delta_tau,
                             trial_rng(seed).random(n_repeats))
    times = repeat_times(tau, delta_tau, n_repeats)
    return MeasurementRecord(system_index, 0, times, lams, readings)


def measurement_trials(m: BipartiteModel, prep: Preparation, pointer: PointerObservable,
                       readings, tau: float, n_trials: int, seed: int) -> MeasurementRecord:
    """Independent prepare -> evolve(tau) -> measure runs, one row per trial:
    trial k inverts the Born distribution at draw k of trial_rng(seed)."""
    if n_trials < 1:
        raise ValueError("need n_trials >= 1")
    q, phi = prepare_kets(m, prep, pointer_basis=pointer.basis)
    phi_tau = kets_at(m, phi @ m.spectrum.eigenvectors.conj(), tau)
    p = ket_distribution(q, phi_tau, pointer, (m.d_system, m.d_apparatus))
    lam = invert_cdf(p, trial_rng(seed).random(n_trials))
    return MeasurementRecord(prep.system_index, np.arange(n_trials), tau, lam, readings)


def dispersion_experiment(m: BipartiteModel, prep: Preparation, pointer: PointerObservable,
                          readings, tau: float, n_trials: int, seed: int) -> float:
    """Population variance of readings over independent trials: zero for
    non-demolition models with eigenbasis preparations (every trial hits the
    same pointer state), strictly positive for generic violating models."""
    record = measurement_trials(m, prep, pointer, readings, tau, n_trials, seed)
    return float(reading_variance(record.reading))


def outcome_changes(lam) -> np.ndarray:
    """Count over the last axis of consecutive pointer groups that differ."""
    lam = np.asarray(lam)
    return np.count_nonzero(lam[..., 1:] != lam[..., :-1], axis=-1)


def outcome_frequencies(lam, groups: int) -> np.ndarray:
    """Observed frequency of each of groups pointer groups over the last axis,
    (..., groups): one bincount of lam, each row offset by its own groups."""
    lam = np.asarray(lam)
    offsets = groups * np.arange(math.prod(lam.shape[:-1])).reshape(*lam.shape[:-1], 1)
    counts = np.bincount((lam + offsets).ravel(), minlength=offsets.size * groups)
    return counts.reshape(*lam.shape[:-1], groups) / lam.shape[-1]


def reading_variance(readings) -> np.ndarray:
    """Population variance over the last axis, exactly 0 where a row's readings
    are all equal (a single reading included), so identical readings pick up
    no summation residue.  Elsewhere it is np.var's, inf or nan without a
    warning where the readings overflow it."""
    readings = np.asarray(readings, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # rows the 0 rule drops too
        var = np.var(readings, axis=-1)
    return np.where((readings == readings[..., :1]).all(axis=-1), 0.0, var)


def aggregate_sigma(weights, values) -> np.ndarray:
    """Weighted pointer mean sigma = sum_g weights_g * values_g over the last
    axis: with Born weights p the analytic sigma, with observed frequencies
    the empirical one.  The terms are added in group order, as the builtin
    sum adds them, so sigma keeps its rounding; inf or nan without a warning
    where the sum overflows."""
    terms = np.asarray(weights, dtype=float) * values
    sigma = np.zeros(terms.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for g in range(terms.shape[-1]):
            sigma += terms[..., g]
    return sigma
