"""Unitary time evolution of the joint system-apparatus state.

Two propagation paths: an exact spectral propagator (the default for all
experiments) and a classical 4th-order stepped integrator, which takes each
RK4 step as its degree-4 step polynomial in the component-summed H and never
reads the model's eigendecomposition.  The two are cross-checked against each
other in the test suite, and the stepped one against the four-stage RK4 loop
through the term-by-term rhs_component_form.  Both read the model's compiled
operators, so H is diagonalised once per model, not once per time, and both
return one (T, d, d) Trajectory, validated once as a stack.
evolve_exact and state_constancy_check also take a batch of models, and the
constancy check takes the prepared w(0), so its caller prepares it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS_POS, DensityOperator, InvariantViolationError
from .linalg import as_matrix, check_operators, frobenius, stack_block
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
    (frozen in place, not copied) and checked once as density operators with
    eigenvalues down to -pos_tol; the first failure raises IntegrationError
    at its time."""

    times: np.ndarray
    states: np.ndarray
    pos_tol: float = field(default=EPS_POS, compare=False, repr=False)

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

    @property
    def final(self) -> DensityOperator:
        return DensityOperator(self.states[-1], pos_tol=self.pos_tol)


def rhs_component_form(m: BipartiteModel, w) -> np.ndarray:
    """dw/dt evaluated term by term: system, coupling, apparatus commutators,
    c = T w - w T over the model's (3, d, d) stack T of terms, summed in order.

    Equals -i [H_total, w]; the equality is an executable invariant of the
    test suite rather than an assumption here.
    """
    wm = as_matrix(w)
    if wm.shape[0] != m.dim:
        raise ValueError(f"state dim {wm.shape[0]} does not match model dim {m.dim}")
    c = m.terms @ wm - wm @ m.terms
    return -1j * (c[0] + c[1] + c[2])


def evolve_exact(m: BipartiteModel, w0: DensityOperator, t: float) -> DensityOperator:
    """Propagate via U w U^dag with U = exp(-i H_total t), for one model or each
    model and state of a batch."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    u = m.spectrum.unitary(t)
    return DensityOperator(u @ w0.matrix @ u.conj().swapaxes(-1, -2))


def exact_trajectory(m: BipartiteModel, w0: DensityOperator, times) -> Trajectory:
    """w0 at times[0] = 0, then U w0 U^dag, stack_block(d) times per stacked
    product; each state is bitwise equal to evolve_exact at its time."""
    times = np.asarray(times, dtype=float)
    states = np.empty((len(times), m.dim, m.dim), dtype=complex)
    states[:1] = w0.matrix
    step = stack_block(m.dim)
    for lo in range(1, len(times), step):
        u = m.spectrum.unitary(times[lo:lo + step])
        states[lo:lo + step] = u @ w0.matrix @ u.conj().swapaxes(1, 2)
    return Trajectory(times, states)


def evolve_stepped(m: BipartiteModel, w0: DensityOperator, t_end: float, dt: float) -> Trajectory:
    """Classical RK4 on the uniform grid k * t_end / n, n = round(t_end / dt).

    For dw/dt = -i [H, w], H = terms[0] + terms[1] + terms[2], one RK4 step is
    the degree-4 polynomial sum_{j+k<=4} A_j w A_k^dag, A_j = (-i dt H)^j / j!.
    It is taken as the increment w + (K + K^dag), K = sum_j A_j w C_j, which
    pairs each (j, k) with its mirror (k, j), so every state is exactly
    Hermitian when w0 is.  The states are validated once as a Trajectory with
    eigenvalues down to -1e-7; a violation or a blown-up (non-finite) step
    aborts at the first bad time."""
    if not dt > 0 or round(t_end / dt) < 1:
        raise ValueError("need dt > 0 and t_end spanning at least one step")
    n_steps = int(round(t_end / dt))
    dt, d = t_end / n_steps, m.dim
    h = m.terms[0] + m.terms[1] + m.terms[2]
    a = [np.eye(d, dtype=complex)]
    for j in range(1, 5):
        a.append(a[-1] @ h * (-1j * dt / j))
    # K = A_0 w C_0 + A_1 w C_1 + A_2 w C_2, where
    # C_j = (A_j/2 [j in {1, 2}] + sum_{j<k<=4-j} A_k)^dag, so C_3 = C_4 = 0
    left = np.concatenate(a[:3], axis=1)  # the block row [A_0 A_1 A_2]
    c = np.stack([a[1] + a[2] + a[3] + a[4], a[1] / 2 + a[2] + a[3], a[2] / 2])
    c = c.conj().swapaxes(1, 2)
    states = np.empty((n_steps + 1, d, d), dtype=complex)
    states[0] = w = w0.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            inc = left @ (w @ c).reshape(-1, d)  # K
            states[k + 1] = w = w + (inc + inc.conj().T)
    return Trajectory(np.arange(n_steps + 1) * t_end / n_steps, states, pos_tol=STEPPED_POS_TOL)


def state_constancy_check(m: BipartiteModel, w0: DensityOperator, t_grid) -> float:
    """Max Frobenius deviation of w(t) = evolve_exact(m, w0, t) from the prepared
    w0 over the grid: a float for one model, an array for a batch.

    The density-operator representation makes global-phase cancellation
    automatic, so a genuinely stationary preparation scores ~0.
    """
    dev = np.zeros(m.batch)  # w(0) is w0 itself
    for t in np.setdiff1d(t_grid, [0.0]):
        dev = np.maximum(dev, frobenius(evolve_exact(m, w0, t).matrix - w0.matrix))
    return float(dev) if dev.ndim == 0 else dev
