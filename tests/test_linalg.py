import numpy as np
import pytest

from qndsim.linalg import (
    EPS_COMM,
    DensityOperator,
    DimensionMismatchError,
    HermitianOperator,
    InvariantViolationError,
    SpectralDecomposition,
    commutator,
    commutator_defect,
    expectation,
    partial_trace_apparatus,
    partial_trace_system,
    propagator,
    spectral,
    tensor,
)
from qndsim.measurement import Calibration, PointerObservable, PointerStatistics

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, n):
    g = random_complex(rng, (n, n))
    return (g + g.conj().T) / 2


def random_density(rng, n):
    g = random_complex(rng, (n, n))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


class TestConstruction:
    def test_hermitian_rejects_nonhermitian(self):
        with pytest.raises(InvariantViolationError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(InvariantViolationError):
            DensityOperator(np.eye(2, dtype=complex))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolationError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_density_accepts_tiny_negative_without_clipping(self):
        eps = 5e-10
        w = DensityOperator(np.diag([1 + eps, -eps]).astype(complex))
        assert float(np.linalg.eigvalsh(w.matrix).min()) == pytest.approx(-eps)


class TestTensor:
    def test_identity_case(self):
        assert np.allclose(tensor(I2, I2), np.eye(4))

    def test_hand_kronecker_expansion(self):
        got = tensor(np.diag([1, -1]), I2)
        assert np.allclose(got, np.diag([1, 1, -1, -1]))

    def test_mixed_product_law_vs_direct_multiplication(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
            assert np.allclose(tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d))

    def test_bilinearity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = random_complex(rng, (2, 2))
            b = random_complex(rng, (2, 2))
            c = random_complex(rng, (3, 2))
            al, be = rng.normal(), rng.normal()
            assert np.allclose(
                tensor(al * a + be * b, c),
                al * tensor(a, c) + be * tensor(b, c),
                atol=1e-8,
            )


class TestCommutator:
    def test_self_commutation(self):
        a = HermitianOperator(SX + 2 * SZ)
        assert np.allclose(commutator(a, a), 0)

    def test_pauli_xy(self):
        assert np.allclose(commutator(SX, SY), 2j * SZ)

    def test_diagonal_operators_commute(self):
        assert np.allclose(commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            commutator(SX, np.eye(3))

    def test_defect_self_is_zero(self):
        assert commutator_defect(SX, SX) == 0.0

    def test_defect_sz_sx_is_sqrt2(self):
        # ||2i sy||_F / (||sz||_F ||sx||_F) = 2*sqrt(2) / 2
        assert commutator_defect(SZ, SX) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_defect_identity_commutes_with_anything(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            b = random_hermitian(rng, 3)
            assert commutator_defect(np.eye(3), b) == pytest.approx(0.0, abs=1e-14)

    def test_defect_zero_iff_commutator_small(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 3)
            defect = commutator_defect(a, b)
            comm_norm = np.linalg.norm(a @ b - b @ a)
            bound = EPS_COMM * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
            assert (defect <= EPS_COMM) == (comm_norm <= bound)


class TestSpectral:
    def test_diagonal_input(self):
        dec = spectral(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0])

    def test_pauli_x_eigensystem(self):
        dec = spectral(SX)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        for j, sign in enumerate([-1.0, 1.0]):
            v = dec.eigenvectors[:, j]
            expected = np.array([1.0, sign]) / np.sqrt(2)
            phase = v[np.argmax(np.abs(v))] / expected[np.argmax(np.abs(v))]
            assert np.allclose(v, expected * phase, atol=1e-12)

    def test_construct_then_decompose_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = np.sort(rng.normal(size=4))
            q, _ = np.linalg.qr(random_complex(rng, (4, 4)))
            m = (q * d) @ q.conj().T
            dec = spectral((m + m.conj().T) / 2)
            assert np.allclose(dec.eigenvalues, d, atol=1e-10)
            assert np.allclose(dec.reconstruct(), m, atol=1e-8)
            assert np.allclose(
                dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(4), atol=1e-8
            )

    def test_rejects_nonhermitian(self):
        with pytest.raises(InvariantViolationError):
            spectral(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_degenerate_basis_is_deterministic(self):
        m = np.eye(3, dtype=complex) * 2.0
        dec1 = spectral(m)
        dec2 = spectral(m)
        assert np.array_equal(dec1.eigenvectors, dec2.eigenvectors)
        assert np.allclose(dec1.eigenvectors, np.eye(3))


class TestPropagator:
    def test_zero_time_is_identity(self):
        assert np.allclose(propagator(SX + SZ, 0.0), np.eye(2))

    def test_null_hamiltonian_is_identity(self):
        assert np.allclose(propagator(np.zeros((3, 3)), 7.3), np.eye(3))

    def test_sz_quarter_period(self):
        assert np.allclose(propagator(SZ, np.pi / 2), np.diag([-1j, 1j]), atol=1e-12)

    def test_unitarity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = random_hermitian(rng, 4)
            t = rng.uniform(0, 10)
            u = propagator(h, t)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-8

    def test_composition(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 3)
        t1, t2 = 0.7, 1.9
        assert np.allclose(
            propagator(h, t1 + t2), propagator(h, t1) @ propagator(h, t2), atol=1e-8
        )


class TestPartialTrace:
    def test_product_state_marginals(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        mu = random_density(rng, 3)
        w = DensityOperator(tensor(rho, mu))
        assert np.allclose(partial_trace_apparatus(w, 2, 3).matrix, rho.matrix, atol=1e-10)
        assert np.allclose(partial_trace_system(w, 2, 3).matrix, mu.matrix, atol=1e-10)

    def test_maximally_entangled_marginals(self):
        # (|0,0> + |1,1>) / sqrt(2) in the system-major joint index
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        w = DensityOperator.pure(psi)
        assert np.allclose(partial_trace_apparatus(w, 2, 2).matrix, I2 / 2)
        assert np.allclose(partial_trace_system(w, 2, 2).matrix, I2 / 2)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = random_density(rng, 6)
            assert np.trace(partial_trace_apparatus(w, 2, 3).matrix).real == pytest.approx(1.0)
            assert np.trace(partial_trace_system(w, 2, 3).matrix).real == pytest.approx(1.0)

    def test_dimension_factorization_rejected(self):
        rng = np.random.default_rng(9)
        w = random_density(rng, 6)
        with pytest.raises(DimensionMismatchError):
            partial_trace_apparatus(w, 2, 2)

    def test_duality_with_system_observables(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            w = random_density(rng, 6)
            o = random_hermitian(rng, 2)
            lhs = np.trace(tensor(o, np.eye(3)) @ w.matrix)
            rhs = np.trace(o @ partial_trace_apparatus(w, 2, 3).matrix)
            assert abs(lhs - rhs) <= 1e-8


class TestExpectation:
    def test_identity(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        assert expectation(np.eye(3), rho) == pytest.approx(1.0)

    def test_eigenstate_case(self):
        ket0 = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        assert expectation(SZ, ket0) == pytest.approx(1.0)

    def test_off_axis_case(self):
        ket0 = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        assert expectation(SX, ket0) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(DimensionMismatchError):
            expectation(np.eye(3), random_density(rng, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [HermitianOperator, DensityOperator, spectral])
def test_non_finite_entry_rejected(build, bad):
    m = np.eye(2, dtype=complex) / 2
    m[1, 1] = bad
    with pytest.raises(InvariantViolationError, match="not finite"):
        build(m)


# Each case: (the caller's array, a constructor that is given it).
CALLER_ARRAYS = {
    "HermitianOperator": (lambda: I2.copy(), HermitianOperator),
    "DensityOperator": (lambda: I2 / 2, DensityOperator),
    "SpectralDecomposition.eigenvalues": (
        lambda: np.array([0.0, 1.0]), lambda a: SpectralDecomposition(a, I2)
    ),
    "SpectralDecomposition.eigenvectors": (
        lambda: I2.copy(), lambda a: SpectralDecomposition(np.array([0.0, 1.0]), a)
    ),
    "Calibration.pointer_values": (lambda: np.array([1.0, -1.0]), Calibration),
    "Calibration.table": (
        lambda: np.ones((2, 2)), lambda a: Calibration(np.array([1.0, -1.0]), a)
    ),
    "PointerObservable": (
        lambda: SZ.copy(), lambda a: PointerObservable.from_operator(HermitianOperator(a))
    ),
    "PointerStatistics": (
        lambda: np.array([0.5, 0.5]),
        lambda a: PointerStatistics(a, 0.5, None, "analytic"),
    ),
}


@pytest.mark.parametrize("make, build", CALLER_ARRAYS.values(), ids=CALLER_ARRAYS.keys())
def test_constructor_leaves_caller_array_writeable(make, build):
    a = make()
    build(a)
    assert a.flags.writeable
