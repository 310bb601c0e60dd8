"""Dense complex linear algebra for small bipartite quantum systems.

All operators are plain ``numpy`` complex arrays; the wrapper classes exist
only to validate physical invariants at construction time.  Units: hbar = 1,
so time and energy are dimensionless reciprocal pairs.  The joint index
convention for a system (dim dS) coupled to an apparatus (dim dM) is
system-major: (i, lam) -> i * dM + lam, fixed globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerances, relative to input scale where a scale exists.
EPS_HERM = 1e-10
EPS_TRACE = 1e-10
EPS_POS = 1e-9
EPS_RECON = 1e-8
EPS_COMM = 1e-10

# Eigenvalues closer than this are treated as one degenerate group.
DEGENERACY_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class InvariantViolationError(ValueError):
    """A constructed value violates its physical invariants."""


def as_matrix(a) -> np.ndarray:
    """Coerce an operator wrapper or array-like to a complex 2-D array."""
    if isinstance(a, (HermitianOperator, DensityOperator)):
        return a.matrix
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _check_hermitian(m: np.ndarray, what: str) -> None:
    """Raise unless M is square and ||M - M^dag||_F <= EPS_HERM * max(1, ||M||_F)."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {m.shape}")
    scale = max(1.0, float(np.linalg.norm(m)))
    defect = float(np.linalg.norm(m - m.conj().T))
    if defect > EPS_HERM * scale:
        raise InvariantViolationError(
            f"{what} is not Hermitian: ||M - M^dag||_F = {defect:.3e}"
        )


@dataclass(frozen=True)
class HermitianOperator:
    """A finite-dimensional Hermitian operator (observable or Hamiltonian term)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_hermitian(m, "matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "HermitianOperator":
        return cls(np.zeros((dim, dim), dtype=complex))


@dataclass(frozen=True)
class DensityOperator:
    """Positive-semidefinite unit-trace operator (quantum state).

    Eigenvalues in [-pos_tol, 0) are accepted as-is, not clipped; anything
    below -pos_tol fails construction so that integrator bugs surface.
    """

    matrix: np.ndarray
    pos_tol: float = field(default=EPS_POS, compare=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_hermitian(m, "state")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > EPS_TRACE:
            raise InvariantViolationError(f"state trace {tr} is not 1")
        lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
        if lo < -self.pos_tol:
            raise InvariantViolationError(
                f"state has eigenvalue {lo:.3e} below -{self.pos_tol:g}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vec) -> "DensityOperator":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending, real) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=complex)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def unitary(self, t: float) -> np.ndarray:
        """U = exp(-i H t) = V exp(-i E t) V^dag for the decomposed H."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.conj().T


# ---------------------------------------------------------------------------
# Operations


def tensor(a, b) -> np.ndarray:
    """Kronecker product, system factor first (system-major joint index)."""
    return np.kron(as_matrix(a), as_matrix(b))


def commutator(a, b) -> np.ndarray:
    """AB - BA; anti-Hermitian when both inputs are Hermitian."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(
            f"commutator of shapes {ma.shape} and {mb.shape}"
        )
    return ma @ mb - mb @ ma


def commutator_defect(a, b) -> float:
    """Normalized commutator size: ||[A,B]||_F / max(1, ||A||_F ||B||_F).

    Zero (within floating arithmetic) iff the operators commute.
    """
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(
            f"commutator_defect of shapes {ma.shape} and {mb.shape}"
        )
    num = float(np.linalg.norm(ma @ mb - mb @ ma))
    den = max(1.0, float(np.linalg.norm(ma)) * float(np.linalg.norm(mb)))
    return num / den


def _deterministic_basis(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Make eigenvector columns reproducible across runs.

    Within each degenerate group (eigenvalues closer than DEGENERACY_TOL) the
    basis is rebuilt by Gram-Schmidt of the projected standard basis vectors
    in index order; every column's phase is fixed so its largest-magnitude
    component is real positive.
    """
    n = len(w)
    v = v.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[stop] - w[stop - 1] <= DEGENERACY_TOL:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            proj = block @ block.conj().T
            chosen = []
            for cand in proj.T:
                for u in chosen:
                    cand = cand - u * (u.conj() @ cand)
                nrm = np.linalg.norm(cand)
                if nrm > 1e-6:
                    chosen.append(cand / nrm)
                if len(chosen) == stop - start:
                    break
            v[:, start:stop] = np.column_stack(chosen)
        start = stop
    for j in range(n):
        k = int(np.argmax(np.abs(v[:, j])))
        phase = v[k, j] / abs(v[k, j])
        v[:, j] = v[:, j] / phase
    return v


def spectral(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, ascending eigenvalues.

    Degenerate subspaces get a deterministic orthonormal basis so that
    pointer bases are reproducible across runs.
    """
    m = as_matrix(h)
    _check_hermitian(m, "spectral input")
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(w, _deterministic_basis(w, v))


def propagator(h, t: float) -> np.ndarray:
    """Unitary U = exp(-i H t) via the eigendecomposition of H."""
    return spectral(h).unitary(t)


def _joint(w, d_system: int, d_apparatus: int) -> np.ndarray:
    m = as_matrix(w)
    if m.shape[0] != d_system * d_apparatus:
        raise DimensionMismatchError(
            f"state dim {m.shape[0]} does not factor as {d_system}*{d_apparatus}"
        )
    return m.reshape(d_system, d_apparatus, d_system, d_apparatus)


def partial_trace_apparatus(w, d_system: int, d_apparatus: int) -> DensityOperator:
    """Trace out the apparatus factor, returning the system marginal."""
    return DensityOperator(np.einsum("iaja->ij", _joint(w, d_system, d_apparatus)))


def partial_trace_system(w, d_system: int, d_apparatus: int) -> DensityOperator:
    """Trace out the system factor, returning the apparatus marginal."""
    return DensityOperator(np.einsum("iaib->ab", _joint(w, d_system, d_apparatus)))


def expectation(o, rho) -> float:
    """tr(O rho) for a Hermitian observable and a state; real within tolerance."""
    mo, mr = as_matrix(o), as_matrix(rho)
    if mo.shape != mr.shape:
        raise DimensionMismatchError(
            f"expectation of shapes {mo.shape} and {mr.shape}"
        )
    val = complex(np.trace(mo @ mr))
    return float(val.real)
