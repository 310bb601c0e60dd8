"""Bipartite measurement models: H = H_system + H_apparatus + H_coupling.

A model couples a measured system (dim dS) to a measuring apparatus
(dim dM).  The two non-demolition conditions are
[H_system x I, H_coupling] = 0 and [H_coupling, I x H_apparatus] = 0;
check_conditions quantifies how far a model is from satisfying them.
A model compiles its joint-space operators once, on first use, and every
caller reads them: lifted terms, total H, its spectrum, the h_S eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import (
    DensityOperator,
    HermitianOperator,
    SpectralDecomposition,
    as_matrix,
    commutator_defect,
    read_only,
    spectral,
    tensor,
)

CONDITION_THRESHOLD = 1e-10


@dataclass(frozen=True)
class BipartiteModel:
    d_system: int
    d_apparatus: int
    h_system: HermitianOperator
    h_apparatus: HermitianOperator
    h_coupling: HermitianOperator

    def __post_init__(self):
        if self.d_system < 1 or self.d_apparatus < 1:
            raise ValueError("dimensions must be positive")
        if self.h_system.dim != self.d_system:
            raise ValueError("h_system dimension mismatch")
        if self.h_apparatus.dim != self.d_apparatus:
            raise ValueError("h_apparatus dimension mismatch")
        if self.h_coupling.dim != self.d_system * self.d_apparatus:
            raise ValueError("h_coupling dimension mismatch")

    @property
    def dim(self) -> int:
        return self.d_system * self.d_apparatus

    # Compiled operators: built on first use, then shared (arrays read-only).

    @cached_property
    def system_term(self) -> np.ndarray:
        return read_only(tensor(self.h_system, np.eye(self.d_apparatus)))

    @cached_property
    def apparatus_term(self) -> np.ndarray:
        return read_only(tensor(np.eye(self.d_system), self.h_apparatus))

    @cached_property
    def hamiltonian(self) -> HermitianOperator:
        return HermitianOperator(
            self.system_term + self.apparatus_term + as_matrix(self.h_coupling)
        )

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        return spectral(self.hamiltonian)

    @cached_property
    def system_basis(self) -> SpectralDecomposition:
        return spectral(self.h_system)


@dataclass(frozen=True)
class ConditionReport:
    eq4_defect: float
    eq5_defect: float
    eq4_holds: bool
    eq5_holds: bool
    threshold: float

    @property
    def both_hold(self) -> bool:
        return self.eq4_holds and self.eq5_holds


@dataclass(frozen=True)
class Preparation:
    """Initial product state rho_S(0) x mu_M(0).

    Either an index pair (system eigenbasis label, pointer basis label), or a
    general pair of density operators.
    """

    system_index: Optional[int] = None
    apparatus_index: Optional[int] = None
    rho_system: Optional[DensityOperator] = None
    mu_apparatus: Optional[DensityOperator] = None

    def __post_init__(self):
        indexed = self.system_index is not None and self.apparatus_index is not None
        general = self.rho_system is not None and self.mu_apparatus is not None
        if indexed == general:
            raise ValueError(
                "preparation needs either both indices or both density operators"
            )

    @property
    def is_indexed(self) -> bool:
        return self.system_index is not None

    @classmethod
    def eigenbasis(cls, system_index: int, apparatus_index: int) -> "Preparation":
        return cls(system_index=system_index, apparatus_index=apparatus_index)

    @classmethod
    def general(cls, rho_system: DensityOperator, mu_apparatus: DensityOperator) -> "Preparation":
        return cls(rho_system=rho_system, mu_apparatus=mu_apparatus)


def total_hamiltonian(m: BipartiteModel) -> HermitianOperator:
    """tensor(h_system, I) + tensor(I, h_apparatus) + h_coupling."""
    return m.hamiltonian


def check_conditions(m: BipartiteModel, threshold: float = CONDITION_THRESHOLD) -> ConditionReport:
    """Measure the two commutation conditions against a relative threshold.

    The apparatus-side condition is stated as [H_C, H_M x I_S] in operator
    language; under the global system-major index convention the apparatus
    term is realized as tensor(I_S, h_apparatus).
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    eq4 = commutator_defect(m.system_term, m.h_coupling)
    eq5 = commutator_defect(m.h_coupling, m.apparatus_term)
    return ConditionReport(
        eq4_defect=eq4,
        eq5_defect=eq5,
        eq4_holds=eq4 <= threshold,
        eq5_holds=eq5 <= threshold,
        threshold=threshold,
    )


def prepare_initial(
    m: BipartiteModel,
    prep: Preparation,
    pointer_basis: Optional[SpectralDecomposition] = None,
) -> DensityOperator:
    """Build the initial joint state for a preparation.

    Index preparations project onto the system-Hamiltonian eigenvector and
    the pointer-basis vector; pointer_basis defaults to the eigenbasis of
    h_apparatus.
    """
    if prep.is_indexed:
        i, lam = prep.system_index, prep.apparatus_index
        if not 0 <= i < m.d_system:
            raise IndexError(f"system index {i} out of range [0, {m.d_system})")
        if not 0 <= lam < m.d_apparatus:
            raise IndexError(
                f"apparatus index {lam} out of range [0, {m.d_apparatus})"
            )
        if pointer_basis is None:
            pointer_basis = spectral(m.h_apparatus)
        sys_vec = m.system_basis.eigenvectors[:, i]
        app_vec = pointer_basis.eigenvectors[:, lam]
        rho = np.outer(sys_vec, sys_vec.conj())
        mu = np.outer(app_vec, app_vec.conj())
    else:
        if prep.rho_system.dim != m.d_system or prep.mu_apparatus.dim != m.d_apparatus:
            raise ValueError("preparation dimensions do not match the model")
        rho = prep.rho_system.matrix
        mu = prep.mu_apparatus.matrix
    return DensityOperator(tensor(rho, mu))


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_model(
    dims: tuple[int, int],
    family: str,
    seed: int,
    eta: Optional[float] = None,
) -> BipartiteModel:
    """Draw a seeded random model from one of three coupling families.

    ``qnd``: every coupling term is diagonal in the system and apparatus
    Hamiltonian eigenbases, so both commutation conditions hold by
    construction.  ``violating``: dense random Hermitian coupling.
    ``interpolated``: (1 - eta) * qnd + eta * violating, sharing the same
    seeded draws, so eta=0 reproduces the qnd model exactly.
    """
    d_s, d_m = dims
    if d_s < 2 or d_m < 2:
        raise ValueError("random_model needs dims >= 2 on each side")
    if family == "interpolated":
        if eta is None or not 0.0 <= eta <= 1.0:
            raise ValueError("interpolated family needs eta in [0, 1]")
    elif family not in ("qnd", "violating"):
        raise ValueError(f"unknown model family {family!r}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h_s = _random_hermitian(rng, d_s)
    h_m = _random_hermitian(rng, d_m)
    v_s = spectral(h_s).eigenvectors
    v_m = spectral(h_m).eigenvectors

    # Diagonal-in-eigenbasis coupling: sum_k A_k x B_k.
    hc_qnd = np.zeros((d_s * d_m, d_s * d_m), dtype=complex)
    for _ in range(min(d_s, d_m)):
        a = rng.uniform(-1.0, 1.0, size=d_s)
        b = rng.uniform(-1.0, 1.0, size=d_m)
        term_a = (v_s * a) @ v_s.conj().T
        term_b = (v_m * b) @ v_m.conj().T
        hc_qnd += np.kron(term_a, term_b)
    hc_qnd = (hc_qnd + hc_qnd.conj().T) / 2
    hc_violating = _random_hermitian(rng, d_s * d_m)

    if family == "qnd":
        hc = hc_qnd
    elif family == "violating":
        hc = hc_violating
    else:
        hc = (1.0 - eta) * hc_qnd + eta * hc_violating

    return BipartiteModel(
        d_system=d_s,
        d_apparatus=d_m,
        h_system=HermitianOperator(h_s),
        h_apparatus=HermitianOperator(h_m),
        h_coupling=HermitianOperator(hc),
    )
