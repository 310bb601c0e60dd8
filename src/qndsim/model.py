"""Bipartite measurement models: H = H_system + H_apparatus + H_coupling.

A model couples a measured system (dim dS) to a measuring apparatus
(dim dM).  The two non-demolition conditions are
[H_system x I, H_coupling] = 0 and [H_coupling, I x H_apparatus] = 0;
check_conditions quantifies how far a model is from satisfying them.
A model holds its three factors and compiles, once, what callers read: total
H, its spectrum, and the h_S and h_M eigenbases, which a drawn model takes
from its draws.  No lift h_S x I or I x h_M is kept: each use forms its own.
A model may also be a batch: operators with one shared leading batch shape,
compiled, checked and prepared as stacks by the same code.  A preparation becomes
an ensemble of weighted unit kets (prepare_kets), which every command runs on, or
the reference state matrix (prepare_initial), which no command forms.  drawn_model
alone builds a model from model_draws: every random family is an eta of one blend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (DensityOperator, HermitianOperator, SpectralDecomposition,
                     commutator_defect, spectral, tensor)

CONDITION_THRESHOLD = 1e-10


def shown(value) -> str:
    """An input value as an error message shows it: its type and at most 60
    characters of its repr, so that an input of any size makes a short line."""
    text = repr(value)
    return f"{type(value).__name__} {text if len(text) <= 60 else text[:57] + '...'}"


@dataclass(frozen=True)
class BipartiteModel:
    """One model, or a batch of models whose three operators share a leading
    batch shape (model.batch); every compiled operator then carries it too."""

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
        if not (self.h_system.matrix.shape[:-2] == self.h_apparatus.matrix.shape[:-2]
                == self.batch):
            raise ValueError("h_system, h_apparatus and h_coupling batch shapes differ")

    @property
    def dim(self) -> int:
        return self.d_system * self.d_apparatus

    @property
    def batch(self) -> tuple[int, ...]:
        """The leading batch shape; () for one model."""
        return self.h_coupling.matrix.shape[:-2]

    # Compiled operators: built on first use, then shared (arrays read-only).

    @cached_property
    def hamiltonian(self) -> HermitianOperator:
        """(h_S x I + I x h_M) + h_C, its two lifts transient."""
        h = tensor(self.h_system, np.eye(self.d_apparatus))
        h += tensor(np.eye(self.d_system), self.h_apparatus)
        h += self.h_coupling.matrix
        return HermitianOperator(h)

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        return spectral(self.hamiltonian)

    @cached_property
    def system_basis(self) -> SpectralDecomposition:
        return spectral(self.h_system)

    @cached_property
    def apparatus_basis(self) -> SpectralDecomposition:
        return spectral(self.h_apparatus)


@dataclass(frozen=True)
class ConditionReport:
    """Defects and verdicts: floats and bools for one model, arrays for a batch."""

    eq4_defect: float
    eq5_defect: float
    eq4_holds: bool
    eq5_holds: bool

    @property
    def both_hold(self) -> bool:
        return self.eq4_holds & self.eq5_holds


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


def check_conditions(m: BipartiteModel) -> ConditionReport:
    """Measure the two commutation conditions, [h_S x I, H_C] and
    [H_C, I x h_M], against CONDITION_THRESHOLD, a relative threshold."""
    eq4 = commutator_defect(tensor(m.h_system, np.eye(m.d_apparatus)), m.h_coupling)
    eq5 = commutator_defect(m.h_coupling, tensor(np.eye(m.d_system), m.h_apparatus))
    return ConditionReport(
        eq4_defect=eq4,
        eq5_defect=eq5,
        eq4_holds=eq4 <= CONDITION_THRESHOLD,
        eq5_holds=eq5 <= CONDITION_THRESHOLD,
    )


def _prepared_vectors(m: BipartiteModel, prep: Preparation, pointer_basis):
    """Check that prep fits m; for an index preparation, its system-Hamiltonian
    eigenvector and pointer-basis vector (pointer_basis defaults to
    m.apparatus_basis), and None for a general one."""
    if not prep.is_indexed:
        if prep.rho_system.dim != m.d_system or prep.mu_apparatus.dim != m.d_apparatus:
            raise ValueError("preparation dimensions do not match the model")
        return None
    i, lam = prep.system_index, prep.apparatus_index
    if not 0 <= i < m.d_system:
        raise IndexError(f"system index {i} out of range [0, {m.d_system})")
    if not 0 <= lam < m.d_apparatus:
        raise IndexError(f"apparatus index {lam} out of range [0, {m.d_apparatus})")
    pointer = m.apparatus_basis if pointer_basis is None else pointer_basis
    return m.system_basis.eigenvectors[..., :, i], pointer.eigenvectors[..., :, lam]


def prepare_initial(m: BipartiteModel, prep: Preparation,
                    pointer_basis: Optional[SpectralDecomposition] = None) -> DensityOperator:
    """The initial joint state rho x mu of a preparation, as a matrix: an index
    preparation's rho and mu project onto its two vectors (_prepared_vectors).
    A batch of models gets one state per model, checked as a stack."""
    vectors = _prepared_vectors(m, prep, pointer_basis)
    if vectors is None:
        rho, mu = prep.rho_system.matrix, prep.mu_apparatus.matrix
    else:  # the products np.outer(v, v.conj()) forms, for each vector of a stack
        rho, mu = (v[..., :, None] * v.conj()[..., None, :] for v in vectors)
    return DensityOperator(np.broadcast_to(tensor(rho, mu), (*m.batch, m.dim, m.dim)))


def prepare_kets(m: BipartiteModel, prep: Preparation, pointer_basis: SpectralDecomposition):
    """The initial joint state as an ensemble w(0) = sum_k q_k |phi_k><phi_k|:
    weights q (*batch, r) and unit kets phi (*batch, r, d), plain arrays.  An
    index preparation is its one product ket, r = 1; a general one takes each
    product of an eigenvector of rho and one of mu whose eigenvalues are both
    positive, weighted by their product.  Unit kets need no further check."""
    vectors = _prepared_vectors(m, prep, pointer_basis)
    if vectors is None:
        factors = [(w[w > 0], v.T[w > 0]) for w, v in (
            np.linalg.eigh(x.matrix) for x in (prep.rho_system, prep.mu_apparatus))]
    else:
        factors = [(np.ones(1), v[..., None, :]) for v in vectors]
    (q_s, phi_s), (q_m, phi_m) = factors
    q = (q_s[:, None] * q_m).ravel()
    phi = np.broadcast_to(phi_s[..., :, None, :, None] * phi_m[..., None, :, None, :],
                          (*m.batch, len(q_s), len(q_m), m.d_system, m.d_apparatus))
    return np.broadcast_to(q, (*m.batch, len(q))), phi.reshape(*m.batch, len(q), m.dim)


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


class ModelDraws(NamedTuple):
    """A random model's seeded matrices, stacked over seeds: (seeds, d, d) each,
    and their h_S and h_M spectra, which build the qnd coupling and every drawn model holds."""

    h_system: np.ndarray
    h_apparatus: np.ndarray
    hc_qnd: np.ndarray
    hc_violating: np.ndarray
    system_basis: SpectralDecomposition
    apparatus_basis: SpectralDecomposition


def model_draws(dims: tuple[int, int], seeds: Sequence[int]) -> ModelDraws:
    """Every draw of random_model for each seed, with stacked eigenbases and
    couplings; each seed's generator is drawn in the one-seed order, so row k
    equals the draws for seeds[k] alone."""
    d_s, d_m = dims
    if d_s < 2 or d_m < 2:
        raise ValueError("random_model needs dims >= 2 on each side")
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
    h_s = np.array([_random_hermitian(rng, d_s) for rng in rngs])
    h_m = np.array([_random_hermitian(rng, d_m) for rng in rngs])
    basis_s, basis_m = spectral(h_s), spectral(h_m)
    v_s, v_m = basis_s.eigenvectors, basis_m.eigenvectors
    n_terms = min(d_s, d_m)
    ab = [[(rng.uniform(-1.0, 1.0, size=d_s), rng.uniform(-1.0, 1.0, size=d_m))
           for _ in range(n_terms)] for rng in rngs]
    hc_violating = np.array([_random_hermitian(rng, d_s * d_m) for rng in rngs])

    # Diagonal-in-eigenbasis coupling: sum_k A_k x B_k.
    hc_qnd = np.zeros((len(rngs), d_s * d_m, d_s * d_m), dtype=complex)
    for k in range(n_terms):
        a = np.array([pairs[k][0] for pairs in ab])[:, None, :]
        b = np.array([pairs[k][1] for pairs in ab])[:, None, :]
        term_a = (v_s * a) @ v_s.conj().swapaxes(-1, -2)
        term_b = (v_m * b) @ v_m.conj().swapaxes(-1, -2)
        hc_qnd += tensor(term_a, term_b)
    hc_qnd = (hc_qnd + hc_qnd.conj().swapaxes(-1, -2)) / 2
    return ModelDraws(h_s, h_m, hc_qnd, hc_violating, basis_s, basis_m)


def drawn_model(dims: tuple[int, int], draws: ModelDraws, k, eta) -> BipartiteModel:
    """The model of row k of draws, or the batch of rows k (a list), coupled by
    (1 - eta) * hc_qnd + eta * hc_violating; eta is one value in [0, 1] or one
    per row.  eta = 0 is the qnd coupling and eta = 1 the violating one, bit for
    bit, since 1 * x = x and 0 * y = +-0.  Row k of the draws' two spectra is
    the model's system_basis and apparatus_basis: it decomposes neither again."""
    eta = np.asarray(eta)
    if not np.all((eta >= 0.0) & (eta <= 1.0)):  # NaN fails
        raise ValueError("interpolated family needs eta in [0, 1]")
    eta = eta[..., None, None]
    hc = (1.0 - eta) * draws.hc_qnd[k] + eta * draws.hc_violating[k]
    m = BipartiteModel(*dims, HermitianOperator(draws.h_system[k]),
                       HermitianOperator(draws.h_apparatus[k]), HermitianOperator(hc))
    for name in ("system_basis", "apparatus_basis"):  # the caches cached_property reads
        basis = getattr(draws, name)
        m.__dict__[name] = SpectralDecomposition(basis.eigenvalues[k], basis.eigenvectors[k])
    return m


def random_model(dims: tuple[int, int], family: str, seed: int,
                 eta: Optional[float] = None) -> BipartiteModel:
    """Draw a seeded random model from one of three coupling families.

    ``qnd``: every coupling term is diagonal in the system and apparatus
    Hamiltonian eigenbases, so both commutation conditions hold by
    construction.  ``violating``: dense random Hermitian coupling.
    ``interpolated``: (1 - eta) * qnd + eta * violating, sharing the same
    seeded draws; qnd is its eta = 0 endpoint and violating its eta = 1 one.
    """
    if family == "interpolated":
        if eta is None:  # drawn_model checks the range
            raise ValueError("interpolated family needs eta in [0, 1]")
    elif family in ("qnd", "violating"):
        eta = 0.0 if family == "qnd" else 1.0
    else:
        raise ValueError(f"unknown model family {shown(family)}")
    return drawn_model(dims, model_draws(dims, [seed]), 0, eta)
