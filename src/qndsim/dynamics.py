"""Unitary time evolution of the joint system-apparatus state.

Two propagation paths: an exact spectral propagator (the default for all
experiments) and a classical 4th-order stepped integrator that exercises the
term-by-term component form of the evolution equation.  The two are
cross-checked against each other in the test suite.  Both read the model's
compiled operators, so H is diagonalised once per model, not once per time,
and both return one (T, d, d) Trajectory, validated once as a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS_POS, STACK_BLOCK, DensityOperator, InvariantViolationError
from .linalg import as_matrix, check_operators, commutator
from .model import BipartiteModel, Preparation, prepare_initial

DEFAULT_DT = 1e-3
STEPPED_POS_TOL = 1e-7


class IntegrationError(RuntimeError):
    """A trajectory left the physical state space."""

    def __init__(self, time: float, message: str):
        super().__init__(f"integration failed at t={time:g}: {message}")
        self.time = time


@dataclass(frozen=True)
class Trajectory:
    """States w(t_k): one read-only (T, d, d) array over times (T,), owned (frozen
    in place, not copied) and checked once as density operators with eigenvalues
    down to -pos_tol; the first failure raises IntegrationError at its time."""

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
    """dw/dt evaluated term by term: system, coupling, apparatus commutators.

    Equals -i [H_total, w]; the equality is an executable invariant of the
    test suite rather than an assumption here.
    """
    wm = as_matrix(w)
    if wm.shape[0] != m.dim:
        raise ValueError(f"state dim {wm.shape[0]} does not match model dim {m.dim}")
    term_system = commutator(m.system_term, wm)
    term_coupling = commutator(as_matrix(m.h_coupling), wm)
    term_apparatus = commutator(m.apparatus_term, wm)
    return -1j * (term_system + term_coupling + term_apparatus)


def evolve_exact(m: BipartiteModel, w0: DensityOperator, t: float) -> DensityOperator:
    """Propagate via U w U^dag with U = exp(-i H_total t)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    u = m.spectrum.unitary(t)
    return DensityOperator(u @ w0.matrix @ u.conj().T)


def exact_trajectory(m: BipartiteModel, w0: DensityOperator, times) -> Trajectory:
    """w0 at times[0] = 0, then U w0 U^dag, STACK_BLOCK times per stacked
    product; each state is bitwise equal to evolve_exact at its time."""
    times = np.asarray(times, dtype=float)
    states = np.empty((len(times), m.dim, m.dim), dtype=complex)
    states[:1] = w0.matrix
    for lo in range(1, len(times), STACK_BLOCK):
        u = m.spectrum.unitary(times[lo:lo + STACK_BLOCK])
        states[lo:lo + STACK_BLOCK] = u @ w0.matrix @ u.conj().swapaxes(1, 2)
    return Trajectory(times, states)


def evolve_stepped(
    m: BipartiteModel, w0: DensityOperator, t_end: float, dt: float = DEFAULT_DT
) -> Trajectory:
    """RK4 integration of the component-form equation on a uniform grid; the
    states are validated once as a Trajectory with eigenvalues down to -1e-7, and
    a violation or a blown-up (non-finite) step aborts at the first bad time."""
    if not dt > 0 or round(t_end / dt) < 1:
        raise ValueError("need dt > 0 and t_end spanning at least one step")
    n_steps = int(round(t_end / dt))
    dt = t_end / n_steps
    states = np.empty((n_steps + 1, m.dim, m.dim), dtype=complex)
    states[0] = w = w0.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = rhs_component_form(m, w)
            k2 = rhs_component_form(m, w + 0.5 * dt * k1)
            k3 = rhs_component_form(m, w + 0.5 * dt * k2)
            k4 = rhs_component_form(m, w + dt * k3)
            states[k + 1] = w = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return Trajectory(np.arange(n_steps + 1) * dt, states, pos_tol=STEPPED_POS_TOL)


def state_constancy_check(
    m: BipartiteModel,
    prep: Preparation,
    t_grid,
    pointer_basis=None,
) -> float:
    """Max Frobenius deviation of w(t) from w(0) over the grid (exact path).

    The density-operator representation makes global-phase cancellation
    automatic, so a genuinely stationary preparation scores ~0.
    """
    w0 = prepare_initial(m, prep, pointer_basis=pointer_basis)
    traj = exact_trajectory(m, w0, np.union1d([0.0], t_grid))
    return max(float(np.linalg.norm(w - w0.matrix)) for w in traj.states)
