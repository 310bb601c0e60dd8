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

# Matrices validated or propagated at once, so stack temporaries stay small.
STACK_BLOCK = 256


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class InvariantViolationError(ValueError):
    """A constructed value violates its physical invariants (at stack ``index``)."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def as_matrix(a) -> np.ndarray:
    """Coerce an operator wrapper or array-like to a complex 2-D array."""
    if isinstance(a, (HermitianOperator, DensityOperator)):
        return a.matrix
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def read_only(a, dtype=complex) -> np.ndarray:
    """A read-only copy of a, so that freezing never touches the caller's array."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def check_operators(m: np.ndarray, what: str, pos_tol: float | None = None) -> None:
    """Raise unless each M in the (..., d, d) stack m has a finite ||M||_F (so no
    NaN, inf or overflowing entry), ||M - M^dag||_F <= EPS_HERM * max(1, ||M||_F)
    and, given pos_tol, is a state (unit trace, no eigenvalue below -pos_tol);
    ``index`` is the first failure, in C order.  A block whose (M + M^dag)/2 +
    pos_tol*I all have a Cholesky factor is positive; otherwise eigvalsh decides."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"{what} must be square, got shape {m.shape}")
    flat = m.reshape(-1, *m.shape[-2:])
    for start in range(0, len(flat), STACK_BLOCK):
        b = flat[start:start + STACK_BLOCK]
        n, msg = len(b), None  # each rule sees the prefix the earlier ones passed
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.linalg.norm(b, axis=(1, 2))
            bad = ~np.isfinite(scale)
            if bad.any():
                n = int(bad.argmax())
                msg = f"{what} is not finite: ||M||_F = {scale[n]}"
            b = b[:n]
            defect = np.linalg.norm(b - b.conj().swapaxes(1, 2), axis=(1, 2))
            bad = defect > EPS_HERM * np.maximum(1.0, scale[:n])
            if bad.any():
                n = int(bad.argmax())
                msg = f"{what} is not Hermitian: ||M - M^dag||_F = {defect[n]:.3e}"
            if pos_tol is not None:
                tr = np.trace(b[:n], axis1=1, axis2=2)
                bad = abs(tr - 1.0) > EPS_TRACE
                if bad.any():
                    n = int(bad.argmax())
                    msg = f"{what} trace {complex(tr[n])} is not 1"
                b = (b[:n] + b[:n].conj().swapaxes(1, 2)) / 2
                try:  # accept at once when every M + pos_tol*I factorises
                    np.linalg.cholesky(b + pos_tol * np.eye(b.shape[-1]))
                except np.linalg.LinAlgError:
                    lo = np.linalg.eigvalsh(b).min(axis=1)
                    bad = lo < -pos_tol
                    if bad.any():
                        n = int(bad.argmax())
                        msg = f"{what} has eigenvalue {lo[n]:.3e} below -{pos_tol:g}"
        if msg is not None:
            raise InvariantViolationError(msg, start + n)


@dataclass(frozen=True)
class HermitianOperator:
    """A finite-dimensional Hermitian operator (observable or Hamiltonian term)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = read_only(as_matrix(self.matrix))
        check_operators(m, "matrix")
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
        m = read_only(as_matrix(self.matrix))
        check_operators(m, "state", self.pos_tol)
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
        object.__setattr__(self, "eigenvalues", read_only(self.eigenvalues, float))
        object.__setattr__(self, "eigenvectors", read_only(self.eigenvectors))

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def unitary(self, t) -> np.ndarray:
        """U = exp(-i H t) = V exp(-i E t) V^dag; T times give a (T, d, d) stack."""
        v = self.eigenvectors
        t = np.asarray(t, dtype=float)[..., None, None]
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


def degenerate_groups(w: np.ndarray) -> np.ndarray:
    """Group start indices of ascending w; neighbours within DEGENERACY_TOL share a group."""
    return np.flatnonzero(np.diff(w, prepend=-np.inf) > DEGENERACY_TOL)


def _deterministic_basis(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Make eigenvector columns reproducible across runs.

    Within each degenerate group (see degenerate_groups) the basis is rebuilt
    by Gram-Schmidt of the projected standard basis vectors in index order;
    every column's phase is fixed so its largest-magnitude component is real
    positive.
    """
    v = v.copy()
    starts = degenerate_groups(w)
    for start, stop in zip(starts, [*starts[1:], len(w)]):
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
    for j in range(len(w)):
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
    check_operators(m, "spectral input")
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(w, _deterministic_basis(w, v))


def propagator(h, t: float) -> np.ndarray:
    """Unitary U = exp(-i H t) via the eigendecomposition of H."""
    return spectral(h).unitary(t)


def joint_axes(w, d_system: int, d_apparatus: int) -> np.ndarray:
    """The joint state as a (dS, dM, dS, dM) view, one axis per factor index."""
    m = as_matrix(w)
    if m.shape[0] != d_system * d_apparatus:
        raise DimensionMismatchError(f"state dim {m.shape[0]} does not factor as "
                                     f"{d_system}*{d_apparatus}")
    return m.reshape(d_system, d_apparatus, d_system, d_apparatus)


def partial_trace_apparatus(w, d_system: int, d_apparatus: int) -> DensityOperator:
    """Trace out the apparatus factor, returning the system marginal."""
    return DensityOperator(np.einsum("iaja->ij", joint_axes(w, d_system, d_apparatus)))


def partial_trace_system(w, d_system: int, d_apparatus: int) -> DensityOperator:
    """Trace out the system factor, returning the apparatus marginal."""
    return DensityOperator(np.einsum("iaib->ab", joint_axes(w, d_system, d_apparatus)))


def expectation(o, rho) -> float:
    """tr(O rho) for a Hermitian observable and a state; real within tolerance."""
    mo, mr = as_matrix(o), as_matrix(rho)
    if mo.shape != mr.shape:
        raise DimensionMismatchError(
            f"expectation of shapes {mo.shape} and {mr.shape}"
        )
    val = complex(np.trace(mo @ mr))
    return float(val.real)
