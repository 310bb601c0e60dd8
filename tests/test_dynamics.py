import warnings

import numpy as np
import pytest

from qndsim.linalg import DensityOperator, HermitianOperator, tensor
from qndsim.model import (
    BipartiteModel,
    Preparation,
    prepare_initial,
    random_model,
    total_hamiltonian,
)
from qndsim.dynamics import (
    IntegrationError,
    evolve_exact,
    evolve_stepped,
    rhs_component_form,
    state_constancy_check,
)
from qndsim.scenario_io import bundled_scenario_path, load_scenario_file

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def qubit_model(hs, hm, hc):
    return BipartiteModel(
        d_system=2,
        d_apparatus=2,
        h_system=HermitianOperator(hs),
        h_apparatus=HermitianOperator(hm),
        h_coupling=HermitianOperator(hc),
    )


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


class TestRhsComponentForm:
    def test_free_static_state(self):
        m = qubit_model(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((4, 4)))
        w = DensityOperator(np.eye(4) / 4)
        assert np.allclose(rhs_component_form(m, w), 0)

    def test_commuting_diagonals(self):
        m = qubit_model(SZ, SZ, np.kron(SZ, SZ))
        w = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert np.allclose(rhs_component_form(m, w), 0, atol=1e-14)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_equals_full_commutator(self, dims):
        rng = np.random.default_rng(sum(dims))
        for seed in range(30):
            m = random_model(dims, "violating", seed)
            w = random_density(rng, m.dim)
            got = rhs_component_form(m, w)
            want = -1j * (
                total_hamiltonian(m).matrix @ w.matrix
                - w.matrix @ total_hamiltonian(m).matrix
            )
            assert np.linalg.norm(got - want) <= 1e-8


class TestEvolveExact:
    def test_zero_time(self):
        m = random_model((2, 2), "violating", 1)
        rng = np.random.default_rng(0)
        w0 = random_density(rng, 4)
        assert np.allclose(evolve_exact(m, w0, 0.0).matrix, w0.matrix, atol=1e-12)

    def test_stationary_diagonal_state(self):
        m = qubit_model(SZ, SZ, np.kron(SZ, SZ))
        w0 = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        wt = evolve_exact(m, w0, 3.7)
        assert np.allclose(wt.matrix, w0.matrix, atol=1e-12)

    def test_qubit_plus_to_minus(self):
        # lone sz qubit (apparatus dim 1), |+> -> |-> at t = pi/2
        m = BipartiteModel(
            d_system=2,
            d_apparatus=1,
            h_system=HermitianOperator(SZ),
            h_apparatus=HermitianOperator.zero(1),
            h_coupling=HermitianOperator.zero(2),
        )
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        wt = evolve_exact(m, DensityOperator.pure(plus), np.pi / 2)
        assert np.allclose(wt.matrix, np.outer(minus, minus.conj()), atol=1e-12)

    def test_trace_and_spectrum_conserved(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            m = random_model((2, 2), "violating", seed)
            w0 = random_density(rng, 4)
            for t in (0.1, 1.0, 10.0):
                wt = evolve_exact(m, w0, t)
                assert abs(np.trace(wt.matrix).real - 1.0) <= 1e-10
                assert np.allclose(
                    np.linalg.eigvalsh(wt.matrix),
                    np.linalg.eigvalsh(w0.matrix),
                    atol=1e-8,
                )

    def test_semigroup(self):
        m = random_model((2, 3), "violating", 4)
        rng = np.random.default_rng(2)
        w0 = random_density(rng, 6)
        lhs = evolve_exact(m, evolve_exact(m, w0, 0.8), 1.3)
        rhs = evolve_exact(m, w0, 2.1)
        assert np.linalg.norm(lhs.matrix - rhs.matrix) <= 1e-8

    def test_population_invariance_under_eq4(self):
        # diagonal-in-eigenbasis system populations stay fixed when the
        # system-side condition holds
        rng = np.random.default_rng(3)
        for seed in range(10):
            m = random_model((2, 2), "qnd", seed)
            from qndsim.linalg import partial_trace_apparatus, spectral

            v = spectral(m.h_system).eigenvectors
            rho = (v * np.array([0.7, 0.3])) @ v.conj().T
            prep = Preparation.general(
                DensityOperator(rho), random_density(rng, 2)
            )
            w0 = prepare_initial(m, prep)
            pops0 = np.diag(v.conj().T @ partial_trace_apparatus(w0, 2, 2).matrix @ v).real
            for t in (0.5, 5.0):
                wt = evolve_exact(m, w0, t)
                pops = np.diag(
                    v.conj().T @ partial_trace_apparatus(wt, 2, 2).matrix @ v
                ).real
                assert np.allclose(pops, pops0, atol=1e-8)


class TestEvolveStepped:
    def test_single_step_null_hamiltonian(self):
        m = qubit_model(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((4, 4)))
        w0 = DensityOperator(np.eye(4) / 4)
        traj = evolve_stepped(m, w0, 1.0, 1.0)
        assert len(traj.states) == 2
        assert np.allclose(traj.final.matrix, w0.matrix)

    def test_order_four_convergence(self):
        m = random_model((2, 2), "violating", 7)
        rng = np.random.default_rng(4)
        w0 = random_density(rng, 4)
        ref = evolve_exact(m, w0, 1.0).matrix
        errs = [
            np.linalg.norm(evolve_stepped(m, w0, 1.0, dt).final.matrix - ref)
            for dt in (0.02, 0.01)
        ]
        assert 12 <= errs[0] / errs[1] <= 20

    def test_purity_constant_along_trajectory(self):
        m = random_model((2, 2), "violating", 8)
        rng = np.random.default_rng(5)
        w0 = random_density(rng, 4)
        traj = evolve_stepped(m, w0, 2.0, 1e-3)
        purity = [np.trace(w @ w).real for w in traj.states]
        assert max(purity) - min(purity) <= 1e-6

    def test_trace_conserved(self):
        m = random_model((2, 2), "violating", 9)
        rng = np.random.default_rng(6)
        w0 = random_density(rng, 4)
        traj = evolve_stepped(m, w0, 2.0, 1e-3)
        for w in traj.states:
            assert abs(np.trace(w).real - 1.0) <= 1e-8

    def test_matches_exact_at_default_dt(self):
        m = random_model((2, 2), "violating", 10)
        rng = np.random.default_rng(7)
        w0 = random_density(rng, 4)
        final = evolve_stepped(m, w0, 1.0, 1e-3).final.matrix
        assert np.linalg.norm(final - evolve_exact(m, w0, 1.0).matrix) <= 1e-8

    def test_invariant_violation_reports_time(self):
        # a huge step on a pure state blows past the relaxed positivity band
        m = random_model((2, 2), "violating", 11)
        w0 = prepare_initial(m, Preparation.eigenbasis(0, 0))
        with pytest.raises(IntegrationError) as err:
            evolve_stepped(m, w0, 4.0, 2.0)
        assert err.value.time == 2.0

    def test_blow_up_reports_first_step(self):
        # Huge steps overflow to inf/nan long before t_end; the failure is
        # still reported at the first step, and no RuntimeWarning escapes.
        s = load_scenario_file(bundled_scenario_path("qubit-violating"))
        w0 = prepare_initial(s.model, s.preparation, pointer_basis=s.pointer.basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError) as err:
                evolve_stepped(s.model, w0, 1000.0, 5.0)
        assert err.value.time == 5.0

    def test_rejects_bad_step(self):
        m = random_model((2, 2), "qnd", 0)
        w0 = prepare_initial(m, Preparation.eigenbasis(0, 0))
        with pytest.raises(ValueError):
            evolve_stepped(m, w0, 1.0, 2.0)


class TestStateConstancy:
    T_GRID = np.linspace(0, 10, 21)[1:]

    def test_qnd_models_stay_constant(self):
        for seed in range(30):
            m = random_model((2, 2), "qnd", seed)
            dev = state_constancy_check(m, Preparation.eigenbasis(0, 0), self.T_GRID)
            assert dev <= 1e-8

    def test_fully_diagonal_model_is_stationary(self):
        m = qubit_model(SZ, SZ, np.zeros((4, 4)))
        dev = state_constancy_check(m, Preparation.eigenbasis(0, 0), self.T_GRID)
        assert dev <= 1e-12

    def test_violating_models_move(self):
        for seed in range(10):
            m = random_model((2, 2), "violating", seed)
            dev = state_constancy_check(m, Preparation.eigenbasis(0, 0), self.T_GRID)
            assert dev > 1e-2
