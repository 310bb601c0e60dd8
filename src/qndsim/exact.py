"""Brute-force oracles, which no command imports: oracle_check recomputes the
pipeline's numerics by slow, independent routes.  A truncated-series
exponential checks evolve_exact, and kets_at on w0's eigen-ensemble;
projectors onto np.linalg.eig's eigenvectors, orthonormalised per eigenvalue
group, check the constancy L and the bound ||w(t) - w0||_F <= sqrt(2) L; 20
four-stage RK4 steps through rhs_component_form check evolve_stepped; index
loops check the evolution right-hand side, and Born traces per pointer
eigenvector, summed per group, check outcome_distribution and
ket_distribution.  The benchmark's sweep check runs it, so it covers the ket
kernels that sweep and measure run."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import DEGENERACY_TOL, DensityOperator
from .model import BipartiteModel, random_model, total_hamiltonian
from .dynamics import (evolve_exact, evolve_stepped, kets_at, rhs_component_form,
                       state_constancy_check)
from .measurement import PointerObservable, ket_distribution, outcome_distribution

ORACLE_TOL = 1e-7  # the largest disagreement oracle_check allows between two routes


def _expm_series(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a 30-term truncated series."""
    norm = float(np.linalg.norm(a, np.inf))
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    b = a / (2**squarings)
    acc = term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 31):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _joint_index(i: int, lam: int, d_s: int, d_m: int, swapped: bool) -> int:
    # swapped=True injects the wrong (apparatus-major) convention; used only
    # as a negative control in tests.
    return lam * d_s + i if swapped else i * d_m + lam


def _rhs_index_loops(m: BipartiteModel, w: np.ndarray, swapped: bool = False) -> np.ndarray:
    """Component-wise evolution equation via quadruple-indexed loops."""
    d_s, d_m = m.d_system, m.d_apparatus
    hs, hm, hc = m.h_system.matrix, m.h_apparatus.matrix, m.h_coupling.matrix
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


def _born_index_loops(w: np.ndarray, pointer: PointerObservable, d_s: int, d_m: int,
                      swapped: bool = False) -> np.ndarray:
    """Weight of each pointer eigenvector (not group) via explicit index-loop traces."""
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


class OracleReport(NamedTuple):
    passed: bool
    lines: list[str]

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        status = "ok" if self.passed else "MISMATCH"
        return "\n".join([f"oracle check: {status}"] + self.lines)


def oracle_check(dims: tuple[int, int], seed: int,
                 swap_index_convention: bool = False) -> OracleReport:
    """Cross-check a violating model's numerics by the routes listed above,
    from a random w0 (mixed with I/d for RK4) to t = 0.7: a falsy report lists
    each route pair that disagrees beyond ORACLE_TOL.  swap_index_convention
    mis-wires the oracle-side joint index (negative control)."""
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
    diffs = {}  # route pair: largest disagreement

    h = total_hamiltonian(m).matrix
    u_series = _expm_series(-1j * h * t)
    w_series = u_series @ w0.matrix @ u_series.conj().T
    w_main = evolve_exact(m, w0, t)
    diffs["evolve_exact vs series exponential"] = np.linalg.norm(w_series - w_main)
    q, kets = np.linalg.eigh(w0.matrix)  # w0 = sum_k q_k phi_k phi_k^dag, phi_k = kets[:, k]
    phi_t = kets_at(m, kets.T @ m.spectrum.eigenvectors.conj(), t)
    w_kets = (q[:, None] * phi_t).T @ phi_t.conj()
    diffs["kets_at vs series exponential"] = np.linalg.norm(w_series - w_kets)

    e, v = np.linalg.eig(h)
    order = np.argsort(e.real)  # groups split where the gap exceeds the relative DEGENERACY_TOL
    e, v = e.real[order], v[:, order]
    cuts = np.flatnonzero(np.diff(e) > DEGENERACY_TOL * abs(e).max()) + 1
    projectors = [q @ q.conj().T for q in (np.linalg.qr(b)[0] for b in np.split(v, cuts, 1))]
    dev = math.sqrt(2.0) * np.linalg.norm(w0.matrix - sum(p @ w0.matrix @ p for p in projectors))
    main_dev = state_constancy_check(m, w0)
    diffs["state_constancy_check vs eig projectors"] = abs(dev - main_dev)
    diffs["series exponential past sqrt(2) state_constancy_check"] = max(
        0.0, np.linalg.norm(w_series - w0.matrix) - math.sqrt(2.0) * main_dev)

    # four-stage RK4 through rhs_component_form, no eigh, from w0 mixed with I/d:
    # its eigenvalues, >= 1/(2d), keep RK4's phase error inside the state space
    n, w, rk4 = 20, (w0.matrix + np.eye(m.dim) / m.dim) / 2, []
    q_mixed, kets_mixed = np.linalg.eigh(w)  # its eigen-ensemble, for evolve_stepped
    stepped = evolve_stepped(m, q_mixed, kets_mixed.T @ m.spectrum.eigenvectors.conj(),
                             np.arange(n + 1) * t / n)[1:]
    for _ in range(n):
        k1 = rhs_component_form(m, w)
        k2 = rhs_component_form(m, w + t / n / 2 * k1)
        k3 = rhs_component_form(m, w + t / n / 2 * k2)
        k4 = rhs_component_form(m, w + t / n * k3)
        rk4.append(w := w + t / n / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    diffs["evolve_stepped vs four-stage RK4"] = np.abs(stepped - rk4).max()

    rhs_main = rhs_component_form(m, w0.matrix)
    rhs_loops = _rhs_index_loops(m, w0.matrix, swapped=swap_index_convention)
    diffs["rhs_component_form vs index loops"] = np.linalg.norm(rhs_main - rhs_loops)

    p_main = outcome_distribution(w0, pointer, dims)
    p_loops = _born_index_loops(w0.matrix, pointer, d_s, d_m, swapped=swap_index_convention)
    p_loops = np.maximum(np.add.reduceat(p_loops, pointer.starts), 0.0)
    p_loops = p_loops / p_loops.sum()
    diffs["outcome_distribution vs index loops"] = np.max(np.abs(p_main - p_loops))
    p_kets = ket_distribution(q, kets.T, pointer, dims)
    diffs["ket_distribution vs index loops"] = np.max(np.abs(p_kets - p_loops))

    lines = [f"{pair}: |diff| = {d:.3e}" for pair, d in diffs.items() if not d <= ORACLE_TOL]
    return OracleReport(passed=not lines, lines=lines)
