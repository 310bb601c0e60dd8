"""Unitary time evolution of the joint system-apparatus state.

Two paths, exact_trajectory and evolve_stepped, lay one model's trajectory as a
(T, d, d) array of states on time_grid's times, both from a prepared ensemble:
weights q and the coordinates c of unit kets in H's eigenbasis.  Each checks its
own states and returns them as a plain array.  Everything here works in H's
eigenbasis, so H is diagonalised once per model however many times are asked
for.  The tests cross-check both paths against evolve_exact (U w U^dag), and
RK4, there and in oracle_check, against the four-stage loop through
rhs_component_form.  kets_at, evolve_exact and the state constancy take a batch.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import EPS_TRACE, InvariantViolationError, _group_starts
from .linalg import as_matrix, as_operators, check_operators, frobenius, stack_block, tensor
from .model import BipartiteModel

STEPPED_POS_TOL = 1e-7


class IntegrationError(RuntimeError):
    """A trajectory left the physical state space."""

    def __init__(self, time: float, message: str):
        super().__init__(f"integration failed at t={time:g}: {message}")
        self.time = time


def rhs_component_form(m: BipartiteModel, w) -> np.ndarray:
    """dw/dt evaluated term by term: the commutators c = T w - w T of the
    lifted system term h_S x I, the coupling and I x h_M, in that order.

    Equals -i [H_total, w]; the equality is an executable invariant of the
    test suite rather than an assumption here.
    """
    wm = as_matrix(w)
    if wm.shape[0] != m.dim:
        raise ValueError(f"state dim {wm.shape[0]} does not match model dim {m.dim}")
    terms = (tensor(m.h_system, np.eye(m.d_apparatus)), m.h_coupling.matrix,
             tensor(np.eye(m.d_system), m.h_apparatus))
    c = [t @ wm - wm @ t for t in terms]
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
    if n >= np.iinfo(np.intp).max // 8:  # n + 1 float64 times no array can size
        raise ValueError("t-end / dt counts more steps than an array can hold")
    if n * t_end == math.inf:  # the grid's times are k * t-end / n
        raise ValueError("t-end times its step count overflows")
    return np.arange(n + 1) * t_end / max(n, 1)


def exact_trajectory(m: BipartiteModel, q, c, times) -> np.ndarray:
    """States (T, d, d) sum_k q_k phi_k phi_k^dag, phi = kets_at(m, c, times), of
    one model's ensemble as Scenario.ensemble gives it: weights q (r,), coordinates
    c (r, d) in H's eigenbasis.  A failing ket raises IntegrationError at its time."""
    times = np.asarray(times, dtype=float)
    try:
        phi = kets_at(m, c, times)
    except InvariantViolationError as exc:  # exc.index counts r kets per time
        raise IntegrationError(float(times[exc.index // len(q)]), str(exc)) from exc
    return (q[:, None] * phi).swapaxes(1, 2) @ phi.conj()


def evolve_stepped(m: BipartiteModel, q, c, times) -> np.ndarray:
    """Classical RK4's states (T, d, d) on a uniform grid of times, from the ensemble
    exact_trajectory takes, w~0 = sum_k q_k c_k c_k^dag in H's eigenbasis; one time
    gives [w(0)].  For dw/dt = -i [H, w], one RK4 step is R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24 of the generator, which that basis makes diagonal, z_ab = -i dt
    (E_a - E_b), dt = times[1]: state k is V (R^k o w~0) V^dag.  R^0..R^(B-1), B =
    stack_block(d), are formed once and the states go B at a time, w~ stepped on
    from each block's last; each, w(0) too, is stored as (w + w^dag) / 2, so it is
    exactly Hermitian.  RK4 can leave the state space, so the states are checked
    once, in full, as states with eigenvalues down to -STEPPED_POS_TOL; a
    violation or a blown-up (non-finite) step raises IntegrationError at the
    first bad time."""
    n, d, v, e = len(times), m.dim, m.spectrum.eigenvectors, m.spectrum.eigenvalues
    states = np.empty((n, d, d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a dt E that overflows fails the check
        z = (-1j * (times[1] if n > 1 else 0.0)) * (e[:, None] - e[None, :])
        r = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
        b = min(stack_block(d), n)
        powers = np.cumprod(np.where(np.arange(b)[:, None, None] > 0, r, 1), 0)  # R^0..R^(b-1)
        w = (q[:, None] * c).T @ c.conj()
        for k in range(0, n, b):
            x = powers[:n - k] * w  # w~ at each step of the block
            w = x[-1] * r
            # y = (V x V^dag)^T = (x V^dag)^T V^T: one matmul of each flattened stack
            x = (x.reshape(-1, d) @ v.conj().T).reshape(-1, d, d).swapaxes(1, 2)
            y = (x.reshape(-1, d) @ v.T).reshape(-1, d, d)
            states[k:k + len(y)] = (y.swapaxes(1, 2) + y.conj()) / 2
    try:
        check_operators(states, "state", STEPPED_POS_TOL)
    except InvariantViolationError as exc:
        raise IntegrationError(float(times[exc.index]), str(exc)) from exc
    return states


def kets_at(m: BipartiteModel, c, t) -> np.ndarray:
    """Kets V (exp(-i E t) o c) at time t from their coordinates c (..., r, d)
    in H's eigenbasis, with no U(t), or (T, r, d) at T times for one model;
    each is checked finite with unit norm, |phi|^2 within EPS_TRACE of 1 (an
    E t that overflows fails there), the error's index the first bad ket."""
    s = m.spectrum
    with np.errstate(over="ignore", invalid="ignore"):
        phi = (c * s.phases(t)[..., None, :]) @ s.eigenvectors.swapaxes(-1, -2)
        norm2 = (phi.real ** 2 + phi.imag ** 2).sum(axis=-1)
        bad = ~(abs(norm2 - 1.0) <= EPS_TRACE)
    if bad.any():
        n = int(bad.argmax())
        raise InvariantViolationError(f"state ket is not finite with unit norm: "
                                      f"|phi|^2 = {norm2.flat[n]}", n)
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
    array: how far w0 is from stationary, grid-free and scale-free, since it
    reads H only through its eigenvectors and groups.  It is 0 exactly when w0
    commutes with H, it is the long-time RMS of ||w(t) - w0||_F, and
    ||w(t) - w0||_F <= sqrt(2) L at every time.  It resolves a stationary w0
    only as well as eigh resolves H's eigenvectors, ~eps ||H|| / gap across
    H's closest levels: a qnd 4 x 4 model with a gap of 3.6e-4 reads 3e-12."""
    v = m.spectrum.eigenvectors
    return energy_coherence(m, v.conj().swapaxes(-1, -2) @ as_operators(w0) @ v)
