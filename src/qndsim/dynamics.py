"""Unitary time evolution of the joint system-apparatus state.

Two propagation paths: an exact spectral propagator (the default for all
experiments) and a classical 4th-order stepped integrator that exercises the
term-by-term component form of the evolution equation.  The two are
cross-checked against each other in the test suite.  Both read the model's
compiled operators, so H is diagonalised once per model, not once per time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityOperator, InvariantViolationError, as_matrix, commutator
from .model import BipartiteModel, Preparation, prepare_initial

DEFAULT_DT = 1e-3
STEPPED_POS_TOL = 1e-7


class IntegrationError(RuntimeError):
    """A stepped trajectory left the physical state space."""

    def __init__(self, time: float, message: str):
        super().__init__(f"integration failed at t={time:g}: {message}")
        self.time = time


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: list[DensityOperator]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) != len(self.states):
            raise ValueError("times and states lengths differ")
        if len(t) == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must strictly increase from 0")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def final(self) -> DensityOperator:
        return self.states[-1]


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


def evolve_stepped(
    m: BipartiteModel, w0: DensityOperator, t_end: float, dt: float = DEFAULT_DT
) -> Trajectory:
    """RK4 integration of the component-form equation on a uniform grid.

    Every stored state is re-validated against the density-operator
    invariants with the positivity tolerance relaxed to 1e-7; a violation
    aborts with the offending time.
    """
    if not dt > 0 or round(t_end / dt) < 1:
        raise ValueError("need dt > 0 and t_end spanning at least one step")
    n_steps = int(round(t_end / dt))
    dt = t_end / n_steps
    times = [0.0]
    states = [w0]
    w = w0.matrix.copy()
    for k in range(n_steps):
        k1 = rhs_component_form(m, w)
        k2 = rhs_component_form(m, w + 0.5 * dt * k1)
        k3 = rhs_component_form(m, w + 0.5 * dt * k2)
        k4 = rhs_component_form(m, w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (k + 1) * dt
        try:
            state = DensityOperator(w, pos_tol=STEPPED_POS_TOL)
        except InvariantViolationError as exc:
            raise IntegrationError(t, str(exc)) from exc
        times.append(t)
        states.append(state)
    return Trajectory(np.array(times), states)


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
    worst = 0.0
    for t in t_grid:
        u = m.spectrum.unitary(t)
        wt = u @ w0.matrix @ u.conj().T
        worst = max(worst, float(np.linalg.norm(wt - w0.matrix)))
    return worst
