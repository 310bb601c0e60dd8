"""Unitary time evolution of the joint system-apparatus state.

Two propagation paths for a state matrix: an exact spectral propagator and a
classical 4th-order stepped integrator, which takes each RK4 step as its
degree-4 step polynomial in the component-summed H and never reads the
model's eigendecomposition.  For d <= 8 that step is one real d^2 x d^2
increment map D on the state's real coordinates, and the steps go
stack_block(d^2) at a time, one matmul per block; larger states step one
matrix at a time.  The paths are cross-checked against each other in the
test suite, and the stepped one against the four-stage RK4 loop through the
term-by-term rhs_component_form.  Both return one (T, d, d) Trajectory,
checked once as a stack: as finite and Hermitian on the exact path, since
U w U^dag of a state is a state (an E t that overflows fails there), and in
full for RK4, which can leave the state space.  The measurement pipeline
evolves kets instead (kets_at) and reads state constancy as the grid-free L
(state_constancy_check); H is diagonalised once per model, and both, like
evolve_exact, also take a batch of models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS_TRACE, DensityOperator, InvariantViolationError, _group_starts
from .linalg import as_matrix, as_operators, check_operators, frobenius, stack_block
from .model import BipartiteModel

STEPPED_POS_TOL = 1e-7


class IntegrationError(RuntimeError):
    """A trajectory left the physical state space."""

    def __init__(self, time: float, message: str):
        super().__init__(f"integration failed at t={time:g}: {message}")
        self.time = time


@dataclass(frozen=True)
class Trajectory:
    """States w(t_k): one read-only (T, d, d) array over times (T,), owned
    (frozen in place, not copied) and checked once as finite and Hermitian,
    and given pos_tol as density operators with eigenvalues down to -pos_tol;
    the first failure raises IntegrationError at its time."""

    times: np.ndarray
    states: np.ndarray
    pos_tol: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        w = np.asarray(self.states, dtype=complex)
        if w.ndim != 3 or len(t) != len(w):
            raise ValueError("need one (d, d) state per time")
        if len(t) == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must strictly increase from 0")
        try:
            check_operators(w, "state", self.pos_tol)
        except InvariantViolationError as exc:
            raise IntegrationError(float(t[exc.index]), str(exc)) from exc
        for name, a in (("times", t), ("states", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def rhs_component_form(m: BipartiteModel, w) -> np.ndarray:
    """dw/dt evaluated term by term: the commutators c = T w - w T of the
    system term, the coupling and the apparatus term, summed in that order.

    Equals -i [H_total, w]; the equality is an executable invariant of the
    test suite rather than an assumption here.
    """
    wm = as_matrix(w)
    if wm.shape[0] != m.dim:
        raise ValueError(f"state dim {wm.shape[0]} does not match model dim {m.dim}")
    c = [t @ wm - wm @ t for t in (m.system_term, m.h_coupling.matrix, m.apparatus_term)]
    return -1j * (c[0] + c[1] + c[2])


def evolve_exact(m: BipartiteModel, w0, t: float) -> np.ndarray:
    """Propagate a state (a DensityOperator or its array) via U w U^dag with
    U = exp(-i H_total t), for one model or each model and state of a batch;
    the result is checked as finite and Hermitian only."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    u = m.spectrum.unitary(t)
    w = u @ as_operators(w0) @ u.conj().swapaxes(-1, -2)
    check_operators(w, "state")
    return w


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """The uniform grid k * t_end / n, k = 0..n, n = round(t_end / dt), on
    which both evolve paths lay a trajectory; t_end = 0 is the one time 0."""
    if not (0 <= t_end < math.inf and 0 < dt < math.inf and t_end / dt < math.inf):
        raise ValueError("need finite t-end >= 0, dt > 0 and t-end / dt")
    n = int(round(t_end / dt))
    if t_end > 0 and n < 1:
        raise ValueError("t-end must span at least one step of dt")
    if n * t_end == math.inf:  # the grid's times are k * t-end / n
        raise ValueError("t-end times its step count overflows")
    return np.arange(n + 1) * t_end / max(n, 1)


def exact_trajectory(m: BipartiteModel, w0: DensityOperator, times) -> Trajectory:
    """w0 at times[0] = 0, then U w0 U^dag, stack_block(d) times per stacked
    product; each state is bitwise equal to evolve_exact at its time, and
    checked as evolve_exact checks it."""
    times = np.asarray(times, dtype=float)
    states = np.empty((len(times), m.dim, m.dim), dtype=complex)
    states[:1] = w0.matrix
    step = stack_block(m.dim)
    for lo in range(1, len(times), step):
        u = m.spectrum.unitary(times[lo:lo + step])
        states[lo:lo + step] = u @ w0.matrix @ u.conj().swapaxes(1, 2)
    return Trajectory(times, states)


def evolve_stepped(m: BipartiteModel, w0: DensityOperator, t_end: float, dt: float) -> Trajectory:
    """Classical RK4 on time_grid(t_end, dt), which must hold more than one time.

    For dw/dt = -i [H, w], H = (system_term + h_coupling) + apparatus_term, one
    RK4 step is the degree-4 polynomial sum_{j+k<=4} A_j w A_k^dag, A_j = (-i dt H)^j / j!.
    It is taken as the increment w + (K + K^dag), K = sum_j A_j w C_j, which
    pairs each (j, k) with its mirror (k, j).  The increment is real-linear on
    Hermitian w, so in the real coordinates x = (diag w, Re w_upper,
    Im w_upper) of R^{d^2} a step is x + D x.  While stack_block(d^2) >= 2
    (d <= 8) the steps go B = stack_block(d^2) at a time: x_{s+j} = x_s + D_j
    x_s for j = 1..B, one matmul per block, with D_1 = D and D_{j+1} = D_j +
    (D + D D_j) kept in increment form, and every state after w0 is rebuilt
    from x, so it is exactly Hermitian.  For larger d the steps run one at a
    time on matrices, and every state is exactly Hermitian when w0 is.  The
    states are validated once as a Trajectory with eigenvalues down to -1e-7;
    a violation or a blown-up (non-finite) step aborts at the first bad time."""
    times = time_grid(t_end, dt)
    if len(times) < 2:
        raise ValueError("t-end must span at least one step of dt")
    n_steps = len(times) - 1
    dt, d = t_end / n_steps, m.dim
    h = m.system_term + m.h_coupling.matrix + m.apparatus_term
    a = [np.eye(d, dtype=complex)]
    for j in range(1, 5):
        a.append(a[-1] @ h * (-1j * dt / j))
    # K = A_0 w C_0 + A_1 w C_1 + A_2 w C_2, where
    # C_j = (A_j/2 [j in {1, 2}] + sum_{j<k<=4-j} A_k)^dag, so C_3 = C_4 = 0
    left = np.concatenate(a[:3], axis=1)  # the block row [A_0 A_1 A_2]
    c = np.stack([a[1] + a[2] + a[3] + a[4], a[1] / 2 + a[2] + a[3], a[2] / 2])
    c = c.conj().swapaxes(1, 2)
    block = stack_block(d * d)
    if block == 1:
        states = np.empty((n_steps + 1, d, d), dtype=complex)
        states[0] = w = w0.matrix
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                inc = left @ (w @ c).reshape(-1, d)  # K
                states[k + 1] = w = w + (inc + inc.conj().T)
        return Trajectory(times, states, pos_tol=STEPPED_POS_TOL)
    # x[:n_re] = Re w[rows, cols] (diagonal first), x[n_re:] = Im w[r, s]
    r, s = np.triu_indices(d, 1)
    rows, cols = np.r_[np.arange(d), r], np.r_[np.arange(d), s]
    n_re, n = len(rows), d * d
    basis = np.zeros((n, d, d), dtype=complex)  # w = sum_j x_j basis[j]
    basis[np.arange(n_re), rows, cols] = basis[np.arange(n_re), cols, rows] = 1
    basis[np.arange(n_re, n), r, s], basis[np.arange(n_re, n), s, r] = 1j, -1j
    w = w0.matrix
    x = np.empty((n_steps + 1, n))
    x[0, :n_re] = (w.real[rows, cols] + w.real[cols, rows]) / 2  # of (w + w^dag) / 2
    x[0, n_re:] = (w.imag[r, s] - w.imag[s, r]) / 2
    increments = np.empty((block, n, n))  # D_1 .. D_B
    with np.errstate(over="ignore", invalid="ignore"):
        inc = left @ (basis[:, None] @ c).reshape(n, -1, d)
        inc += inc.conj().swapaxes(1, 2)  # K + K^dag of each basis matrix
        increments[0] = np.concatenate([inc.real[:, rows, cols], inc.imag[:, r, s]], 1).T
        d_1 = increments[0]
        for j in range(1, block):
            increments[j] = increments[j - 1] + (d_1 + d_1 @ increments[j - 1])
        increments = increments.reshape(-1, n)
        for k in range(0, n_steps, block):
            ahead = x[k + 1:k + 1 + block]
            np.matmul(increments[:ahead.size], x[k], out=ahead.reshape(-1))
            ahead += x[k]
    states = np.zeros((n_steps + 1, d, d), dtype=complex)
    states.real[:, rows, cols] = states.real[:, cols, rows] = x[:, :n_re]
    states.imag[:, r, s] = x[:, n_re:]
    states.imag[:, s, r] = np.negative(x[:, n_re:], out=x[:, n_re:])  # x's last use
    states[0] = w
    return Trajectory(times, states, pos_tol=STEPPED_POS_TOL)


def kets_at(m: BipartiteModel, c, t: float) -> np.ndarray:
    """Kets V (exp(-i E t) o c) at time t from their coordinates c (..., r, d)
    in H's eigenbasis, with no U(t); each is checked finite with unit norm,
    |phi|^2 within EPS_TRACE of 1 (an E t that overflows fails there)."""
    s = m.spectrum
    with np.errstate(over="ignore", invalid="ignore"):
        phi = (c * s.phases(t)[..., None, :]) @ s.eigenvectors.swapaxes(-1, -2)
        norm2 = (phi.real ** 2 + phi.imag ** 2).sum(axis=-1)
        bad = ~(abs(norm2 - 1.0) <= EPS_TRACE)
    if bad.any():
        raise InvariantViolationError(f"state ket is not finite with unit norm: "
                                      f"|phi|^2 = {norm2[bad][0]}")
    return phi


def energy_coherence(m: BipartiteModel, w) -> float:
    """sqrt(2) ||w - sum_g P_g w P_g||_F of a state w in H's eigenbasis, P_g on
    H's g-th degenerate eigenvalue group (per row of a batch): the norm of the
    entries that join two groups, summed directly.  A float for one model, an
    array for a batch."""
    g = np.cumsum(_group_starts(m.spectrum.eigenvalues), axis=-1)
    dev = math.sqrt(2.0) * frobenius(np.where(g[..., :, None] == g[..., None, :], 0.0, w))
    return float(dev) if dev.ndim == 0 else dev


def state_constancy_check(m: BipartiteModel, w0) -> float:
    """L = energy_coherence of w~ = V^dag w0 V, w0 a DensityOperator or its
    array: how far w0 is from stationary, grid-free and scale-free.  It is 0
    exactly when w0 commutes with H, it is the long-time RMS of
    ||w(t) - w0||_F, and ||w(t) - w0||_F <= sqrt(2) L at every time."""
    v = m.spectrum.eigenvectors
    return energy_coherence(m, v.conj().swapaxes(-1, -2) @ as_operators(w0) @ v)
