"""Dense complex linear algebra for small bipartite quantum systems.

All operators are plain ``numpy`` complex arrays; the wrapper classes exist
only to validate physical invariants where a value enters the pipeline (a
loaded operator or state, a prepared w(0)), a state's positivity down to
-EPS_POS.  A state computed from a checked one stays a plain array.  The
module holds only what the pipeline reaches: a partial trace or an
expectation value is an einsum over joint_axes where one is wanted.  Operators,
states and spectra may carry leading batch axes, (..., d, d): every
operation then acts on each matrix of the stack, with bits equal to the
one-matrix call, so a batch of models runs each step once.  Units: hbar = 1,
so time and energy are dimensionless reciprocal pairs; every tolerance is
relative to its operator's scale, so H -> c H with t -> t / c changes no
verdict or outcome.  The joint index convention for a system (dim dS) coupled
to an apparatus (dim dM) is system-major: (i, lam) -> i * dM + lam, fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances, relative to input scale where a scale exists.
EPS_HERM = 1e-10
EPS_TRACE = 1e-10
EPS_POS = 1e-9

# Eigenvalues closer than this, times the largest |eigenvalue|, are one degenerate group.
DEGENERACY_TOL = 1e-9

# Matrices validated or propagated at once, so stack temporaries stay small:
# at most STACK_BLOCK matrices and, for large matrices, STACK_ELEMENTS entries.
STACK_BLOCK = 256
STACK_ELEMENTS = 1 << 13


def stack_block(d: int) -> int:
    """How many d x d matrices one stacked block holds."""
    return max(1, min(STACK_BLOCK, STACK_ELEMENTS // d ** 2))


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class InvariantViolationError(ValueError):
    """A constructed value violates its physical invariants (at stack ``index``)."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def as_operators(a) -> np.ndarray:
    """Coerce an operator wrapper or array-like to a complex (..., d, d) array."""
    if isinstance(a, (HermitianOperator, DensityOperator)):
        return a.matrix
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise DimensionMismatchError(f"expected a (..., d, d) stack, got ndim={m.ndim}")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce an operator wrapper or array-like to a complex 2-D array."""
    m = as_operators(a)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def read_only(a, dtype=complex) -> np.ndarray:
    """A read-only copy of a, so that freezing never touches the caller's array."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def scaled(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each M of a (..., d, d) stack times 2^-e, and e, the exponent of its largest
    |entry| (0 for a zero or non-finite M, and >= -1022, so 2^-e is finite): exact,
    and its norms' squares neither underflow nor overflow, ||M||_F = 2^e ||M 2^-e||_F."""
    e = np.maximum(np.frexp(abs(m).max(axis=(-2, -1)))[1], -1022)
    return m * np.ldexp(1.0, -e)[..., None, None], e


def check_operators(m: np.ndarray, what: str, pos_tol: float | None = None) -> None:
    """Raise unless each M in the (..., d, d) stack m has a finite ||M||_F (no NaN
    or inf entry) and ||M - M^dag||_F <= EPS_HERM * ||M||_F and, given pos_tol,
    is a state (unit trace, no eigenvalue below -pos_tol); ``index`` is the first
    failure, in C order.  An operator's norms are taken of it scaled, so at any
    scale; a state's are not, and one with entries above ~1e154 overflows
    ||M||_F, refused as such.  A block whose (M + M^dag)/2 + pos_tol*I all have
    a Cholesky factor is positive; otherwise eigvalsh decides."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"{what} must be square, got shape {m.shape}")
    flat = m.reshape(-1, *m.shape[-2:])
    block = stack_block(m.shape[-1])
    for start in range(0, len(flat), block):
        b = flat[start:start + block]
        n, msg = len(b), None  # each rule sees the prefix the earlier ones passed
        with np.errstate(over="ignore", invalid="ignore"):
            b, e = scaled(b) if pos_tol is None else (b, np.zeros(n, int))
            scale = frobenius(b)
            bad = ~np.isfinite(scale)
            if bad.any():
                n = int(bad.argmax())
                msg = (f"{what} is not finite: ||M||_F = {np.linalg.norm(flat[start + n])}"
                       if not np.isfinite(flat[start + n]).all() else
                       f"{what} has entries too large for ||M||_F, which overflows")
            b = b[:n]
            d = b.swapaxes(1, 2).copy()  # M^T, then M^dag - M in place: one more stack
            defect = frobenius(np.subtract(np.conjugate(d, out=d), b, out=d))
            bad = defect > EPS_HERM * scale[:n]
            if bad.any():
                n = int(bad.argmax())
                msg = f"{what} is not Hermitian: ||M - M^dag||_F = {np.ldexp(defect[n], e[n]):.3e}"
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
    """A finite-dimensional Hermitian operator (observable or Hamiltonian term),
    or a (..., d, d) stack of them, validated as one stack."""

    matrix: np.ndarray

    def __post_init__(self):
        m = read_only(as_operators(self.matrix))
        check_operators(m, "matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class DensityOperator:
    """Positive-semidefinite unit-trace operator (quantum state), made where
    a state enters the pipeline: a loaded rho or mu, a prepared w(0).
    Eigenvalues in [-EPS_POS, 0) are accepted as-is, not clipped; anything
    below -EPS_POS fails construction.  A (..., d, d) stack of states is
    validated as one stack."""

    matrix: np.ndarray

    def __post_init__(self):
        m = read_only(as_operators(self.matrix))
        check_operators(m, "state", EPS_POS)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (..., d) (ascending, real) and orthonormal eigenvector columns
    (..., d, d), one decomposition per leading batch index."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", read_only(self.eigenvalues, float))
        object.__setattr__(self, "eigenvectors", read_only(self.eigenvectors))
        if self.eigenvectors.shape != (*self.eigenvalues.shape, self.dim):
            raise DimensionMismatchError("need one eigenvector column per eigenvalue")

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def phases(self, t) -> np.ndarray:
        """exp(-i E t), shaped batch + t.shape + (d,): a time gives one row per
        decomposition.  An E t that overflows gives a non-finite phase,
        silently: the states it propagates fail their finiteness check."""
        t = np.asarray(t, dtype=float)
        e = self.eigenvalues.reshape(*self.eigenvalues.shape[:-1], *(1,) * t.ndim, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(-1j * e * t[..., None])

    def unitary(self, t) -> np.ndarray:
        """U = exp(-i H t) = V exp(-i E t) V^dag, shaped batch + t.shape + (d, d):
        a time gives one U per decomposition, T times a (..., T, d, d) stack."""
        t = np.asarray(t, dtype=float)
        v = self.eigenvectors.reshape(*self.eigenvalues.shape[:-1], *(1,) * t.ndim,
                                      self.dim, self.dim)
        return (v * self.phases(t)[..., None, :]) @ v.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Operations


def tensor(a, b) -> np.ndarray:
    """Kronecker product, system factor first (system-major joint index), of
    each pair in two (..., m, m) and (..., n, n) stacks; the same products as
    np.kron of each pair."""
    a, b = as_operators(a), as_operators(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], *np.multiply(a.shape[-2:], b.shape[-2:]))


def commutator(a, b) -> np.ndarray:
    """AB - BA; anti-Hermitian when both inputs are Hermitian."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(
            f"commutator of shapes {ma.shape} and {mb.shape}"
        )
    return ma @ mb - mb @ ma


def frobenius(m: np.ndarray) -> np.ndarray:
    """||M||_F of each C-contiguous matrix of a (..., d, d) stack, with the bits of
    np.linalg.norm(M) of one M, not of norm(..., axis=(-2, -1)): one BLAS dot (a row
    by a column) of the real parts plus one of the imaginary parts, no |M|^2 temporary."""
    m = np.asarray(m)
    row = m.reshape(*m.shape[:-2], 1, m.shape[-2] * m.shape[-1])
    re, im = row.real, row.imag
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def commutator_defect(a, b):
    """Relative commutator size: ||[A,B]||_F / (||A||_F ||B||_F), and 0 when
    either operator is 0, so scaling A or B leaves it unchanged.

    Zero (within floating arithmetic) iff the operators commute.  A float for
    two matrices; an array over the batch for (..., d, d) stacks.
    """
    ma, mb = as_operators(a), as_operators(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(
            f"commutator_defect of shapes {ma.shape} and {mb.shape}"
        )
    (ma, _), (mb, _) = scaled(ma), scaled(mb)
    scale = frobenius(ma) * frobenius(mb)  # 0 when A or B is, and then so is [A,B]
    defect = frobenius(ma @ mb - mb @ ma) / np.where(scale > 0, scale, 1.0)
    return float(defect) if defect.ndim == 0 else defect


def _group_starts(w: np.ndarray) -> np.ndarray:
    """Where ascending eigenvalues w (..., d) start a group: more than DEGENERACY_TOL
    times the row's largest |eigenvalue| above the one below (zeros are one group)."""
    return np.diff(w, axis=-1, prepend=-np.inf) > DEGENERACY_TOL * abs(w).max(-1, keepdims=True)


def degenerate_groups(w: np.ndarray) -> np.ndarray:
    """Group start indices of ascending eigenvalues w (..., d), which every row of
    a stack must share (see _group_starts)."""
    gaps = _group_starts(np.asarray(w)).reshape(-1, np.shape(w)[-1])
    if (gaps != gaps[:1]).any():
        raise ValueError("eigenvalues of the stack fall into different degenerate groups")
    return np.flatnonzero(gaps[0])


def _orthonormalise_groups(w: np.ndarray, v: np.ndarray) -> None:
    """Rebuild, in place, the columns of each degenerate group of one matrix's
    eigenvectors v by Gram-Schmidt of the projected standard basis vectors."""
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


def _deterministic_basis(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Make eigenvector columns reproducible across runs.

    Within each degenerate group (see degenerate_groups) the basis is rebuilt
    by Gram-Schmidt, matrix by matrix; then every column's phase is fixed so
    its largest-magnitude component is real positive.  The phase is v_k / |v_k|
    with |v_k| from np.hypot, which rounds as abs() of one complex does.
    """
    v = v.copy()
    flat_w, flat_v = w.reshape(-1, w.shape[-1]), v.reshape(-1, *v.shape[-2:])
    for n in np.flatnonzero(~_group_starts(flat_w).all(axis=-1)):
        _orthonormalise_groups(flat_w[n], flat_v[n])
    k = np.argmax(np.abs(v), axis=-2)[..., None, :]
    top = np.take_along_axis(v, k, axis=-2)
    return v / (top / np.hypot(top.real, top.imag))


def spectral(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, or of each in a (..., d, d)
    stack, ascending eigenvalues.

    Degenerate subspaces get a deterministic orthonormal basis so that
    pointer bases are reproducible across runs.  Only a raw array is
    checked: an operator wrapper was checked when it was built.
    """
    m = as_operators(h)
    if not isinstance(h, (HermitianOperator, DensityOperator)):
        check_operators(m, "spectral input")
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(w, _deterministic_basis(w, v))


def propagator(h, t: float) -> np.ndarray:
    """Unitary U = exp(-i H t) via the eigendecomposition of H."""
    return spectral(h).unitary(t)


def joint_axes(w, d_system: int, d_apparatus: int) -> np.ndarray:
    """The joint state(s) as a (..., dS, dM, dS, dM) view, one axis per factor index."""
    m = as_operators(w)
    if m.shape[-1] != d_system * d_apparatus:
        raise DimensionMismatchError(f"state dim {m.shape[-1]} does not factor as "
                                     f"{d_system}*{d_apparatus}")
    return m.reshape(*m.shape[:-2], d_system, d_apparatus, d_system, d_apparatus)
