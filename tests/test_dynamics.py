import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim.linalg import DensityOperator, HermitianOperator, frobenius
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
    time_grid,
)
from qndsim.scenario_io import bundled_scenario_path, load_scenario_file
from test_properties import eigen_ensemble

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


def _rk4_reference(m, w0, t_end, dt):
    """The four-stage RK4 loop through rhs_component_form: the (n+1, d, d)
    states that evolve_stepped's step polynomial is checked against."""
    n_steps = int(round(t_end / dt))
    dt = t_end / n_steps
    states = [w := w0.matrix]
    for _ in range(n_steps):
        k1 = rhs_component_form(m, w)
        k2 = rhs_component_form(m, w + 0.5 * dt * k1)
        k3 = rhs_component_form(m, w + 0.5 * dt * k2)
        k4 = rhs_component_form(m, w + dt * k3)
        states.append(w := w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(states)


def _constancy_reference(m, w0, t_grid):
    """The per-time route: max ||evolve_exact(m, w0, t) - w0||_F over the grid,
    one full evolved state per time, which sqrt(2) state_constancy_check bounds."""
    return np.max([frobenius(evolve_exact(m, w0, t) - w0.matrix) for t in t_grid], axis=0)


def _grid_constancy(m, w0, t_grid):
    """The grid kernel state constancy had before it became grid-free: the
    same maximum as _constancy_reference, formed in H's eigenbasis as
    2 ||w~ o sin(Omega t / 2)||_F with w~ = V^dag w0 V, Omega_ab = E_a - E_b."""
    v, e = m.spectrum.eigenvectors, m.spectrum.eigenvalues
    w = v.conj().swapaxes(-1, -2) @ w0.matrix @ v
    half_omega = (e[..., :, None] - e[..., None, :]) / 2
    return np.max([2 * frobenius(w * np.sin(half_omega * t)) for t in t_grid], axis=0)


def _stacked_model(models):
    """The models, same dims, as one batch model."""
    return BipartiteModel(models[0].d_system, models[0].d_apparatus, *(
        HermitianOperator(np.stack([getattr(m, k).matrix for m in models]))
        for k in ("h_system", "h_apparatus", "h_coupling")))


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
        assert np.allclose(evolve_exact(m, w0, 0.0), w0.matrix, atol=1e-12)

    def test_stationary_diagonal_state(self):
        m = qubit_model(SZ, SZ, np.kron(SZ, SZ))
        w0 = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        wt = evolve_exact(m, w0, 3.7)
        assert np.allclose(wt, w0.matrix, atol=1e-12)

    def test_qubit_plus_to_minus(self):
        # lone sz qubit (apparatus dim 1), |+> -> |-> at t = pi/2
        m = BipartiteModel(
            d_system=2,
            d_apparatus=1,
            h_system=HermitianOperator(SZ),
            h_apparatus=HermitianOperator(np.zeros((1, 1))),
            h_coupling=HermitianOperator(np.zeros((2, 2))),
        )
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        wt = evolve_exact(m, DensityOperator(np.outer(plus, plus.conj())), np.pi / 2)
        assert np.allclose(wt, np.outer(minus, minus.conj()), atol=1e-12)

    def test_trace_and_spectrum_conserved(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            m = random_model((2, 2), "violating", seed)
            w0 = random_density(rng, 4)
            for t in (0.1, 1.0, 10.0):
                wt = evolve_exact(m, w0, t)
                assert abs(np.trace(wt).real - 1.0) <= 1e-10
                assert np.allclose(
                    np.linalg.eigvalsh(wt),
                    np.linalg.eigvalsh(w0.matrix),
                    atol=1e-8,
                )

    def test_semigroup(self):
        m = random_model((2, 3), "violating", 4)
        rng = np.random.default_rng(2)
        w0 = random_density(rng, 6)
        lhs = evolve_exact(m, evolve_exact(m, w0, 0.8), 1.3)
        rhs = evolve_exact(m, w0, 2.1)
        assert np.linalg.norm(lhs - rhs) <= 1e-8

    def test_population_invariance_under_eq4(self):
        # diagonal-in-eigenbasis system populations stay fixed when the
        # system-side condition holds
        rng = np.random.default_rng(3)
        for seed in range(10):
            m = random_model((2, 2), "qnd", seed)
            from qndsim.linalg import joint_axes, spectral

            v = spectral(m.h_system).eigenvectors
            rho = (v * np.array([0.7, 0.3])) @ v.conj().T
            prep = Preparation.general(
                DensityOperator(rho), random_density(rng, 2)
            )
            w0 = prepare_initial(m, prep)
            def populations(w):  # of tr_M w in h_system's eigenbasis
                rho_s = np.einsum("iaja->ij", joint_axes(w, 2, 2))
                return np.diag(v.conj().T @ rho_s @ v).real

            pops0 = populations(w0)
            for t in (0.5, 5.0):
                pops = populations(evolve_exact(m, w0, t))
                assert np.allclose(pops, pops0, atol=1e-8)


class TestEvolveStepped:
    def test_single_step_null_hamiltonian(self):
        m = qubit_model(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((4, 4)))
        w0 = DensityOperator(np.eye(4) / 4)
        states = evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(1.0, 1.0))
        assert len(states) == 2
        assert np.allclose(states[-1], w0.matrix)

    def test_order_four_convergence(self):
        m = random_model((2, 2), "violating", 7)
        rng = np.random.default_rng(4)
        w0 = random_density(rng, 4)
        ref = evolve_exact(m, w0, 1.0)
        q, c = eigen_ensemble(m, w0)
        errs = [
            np.linalg.norm(evolve_stepped(m, q, c, time_grid(1.0, dt))[-1] - ref)
            for dt in (0.02, 0.01)
        ]
        assert 12 <= errs[0] / errs[1] <= 20

    def test_purity_constant_along_trajectory(self):
        m = random_model((2, 2), "violating", 8)
        rng = np.random.default_rng(5)
        w0 = random_density(rng, 4)
        states = evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(2.0, 1e-3))
        purity = [np.trace(w @ w).real for w in states]
        assert max(purity) - min(purity) <= 1e-6

    def test_trace_conserved(self):
        m = random_model((2, 2), "violating", 9)
        rng = np.random.default_rng(6)
        w0 = random_density(rng, 4)
        states = evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(2.0, 1e-3))
        for w in states:
            assert abs(np.trace(w).real - 1.0) <= 1e-8

    def test_matches_exact_at_default_dt(self):
        m = random_model((2, 2), "violating", 10)
        rng = np.random.default_rng(7)
        w0 = random_density(rng, 4)
        final = evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(1.0, 1e-3))[-1]
        assert np.linalg.norm(final - evolve_exact(m, w0, 1.0)) <= 1e-8

    def test_invariant_violation_reports_time(self):
        # a huge step on a pure state blows past the relaxed positivity band
        m = random_model((2, 2), "violating", 11)
        w0 = prepare_initial(m, Preparation.eigenbasis(0, 0))
        with pytest.raises(IntegrationError) as err:
            evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(4.0, 2.0))
        assert err.value.time == 2.0

    def test_blow_up_reports_first_step(self):
        # Huge steps overflow to inf/nan long before t_end; the failure is
        # still reported at the first step, and no RuntimeWarning escapes.
        s = load_scenario_file(bundled_scenario_path("qubit-violating"))
        w0 = prepare_initial(s.model, s.preparation, pointer_basis=s.pointer.basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError) as err:
                evolve_stepped(s.model, *eigen_ensemble(s.model, w0), time_grid(1000.0, 5.0))
        assert err.value.time == 5.0

    @settings(max_examples=25, deadline=None)
    @given(
        # every d steps in blocks of stack_block(d): 256 at d = 4, 227 at d = 6,
        # 128 at d = 8, 101 at d = 9 and 56 at d = 12
        dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (4, 3)]),
        family=st.sampled_from(["qnd", "violating"]),
        seed=st.integers(0, 2**16),
        dt=st.floats(1e-3, 1e-2),
        n_steps=st.integers(1, 1000),
    )
    # d = 6 lays 227 states at a time, w(0) included: one step, a block less
    # one, one block, and one and two states more than a block
    @example(dims=(3, 2), family="violating", seed=13, dt=1e-2, n_steps=1)
    @example(dims=(3, 2), family="violating", seed=13, dt=1e-2, n_steps=225)
    @example(dims=(3, 2), family="violating", seed=13, dt=1e-2, n_steps=226)
    @example(dims=(3, 2), family="violating", seed=13, dt=1e-2, n_steps=227)
    @example(dims=(3, 2), family="violating", seed=13, dt=1e-2, n_steps=228)
    def test_matches_four_stage_reference(self, dims, family, seed, dt, n_steps):
        m = random_model(dims, family, seed)
        w0 = random_density(np.random.default_rng(seed), m.dim)
        got = evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(n_steps * dt, dt))
        want = _rk4_reference(m, w0, n_steps * dt, dt)
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 2), (3, 3)])
    @pytest.mark.parametrize("family", ["qnd", "violating"])
    def test_states_exactly_hermitian(self, dims, family):
        for seed in range(5):
            m = random_model(dims, family, seed)
            rng = np.random.default_rng(seed)
            v = rng.normal(size=m.dim) + 1j * rng.normal(size=m.dim)
            p = np.outer(v, v.conj()) / np.vdot(v, v).real
            w0 = DensityOperator((p + p.conj().T) / 2)
            for w in evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(2.0, 1e-3)):
                assert np.array_equal(w, w.conj().T)

    def test_trace_holds_over_long_run(self):
        for dims in [(2, 2), (3, 2)]:  # 256 and 227 steps per block
            m = random_model(dims, "violating", 12)
            w0 = prepare_initial(m, Preparation.eigenbasis(0, 0))
            states = evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(40.0, 1e-3))
            assert len(states) == 40001
            assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() <= 1e-13

    def test_memory_is_states_and_coordinates(self):
        # The benchmark's stepped trajectory: 5001 states of a dims-(3,2)
        # model.  Beyond the complex states, only block temporaries are held:
        # no full complex temporary, and no stack of more than stack_block(d)
        # d x d matrices (the step powers R^j and one block of states).
        m = random_model((3, 2), "violating", 1)
        w0 = prepare_initial(m, Preparation.eigenbasis(0, 0))
        m.spectrum  # decomposed once, outside the measurement
        tracemalloc.start()
        try:
            states = evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(5.0, 1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (5001, 6, 6)
        assert peak <= states.nbytes + states.nbytes // 2 + 1_000_000

    def test_a_single_time_is_w0(self):
        m = random_model((2, 2), "violating", 0)
        w0 = prepare_initial(m, Preparation.eigenbasis(0, 0))
        # the grid of t_end 0 is the one time 0, and its state is w(0)
        states = evolve_stepped(m, *eigen_ensemble(m, w0), time_grid(0.0, 0.1))
        assert states.shape == (1, 4, 4)
        assert np.abs(states[0] - w0.matrix).max() <= 1e-15


class TestTimeGrid:
    @pytest.mark.parametrize("t_end, dt, message", [
        (-1.0, 0.1, "need finite t-end >= 0, dt > 0 and t-end / dt"),
        (np.inf, 0.1, "need finite t-end >= 0, dt > 0 and t-end / dt"),
        (np.nan, 0.1, "need finite t-end >= 0, dt > 0 and t-end / dt"),
        (1.0, 0.0, "need finite t-end >= 0, dt > 0 and t-end / dt"),
        (1e300, 1e-300, "need finite t-end >= 0, dt > 0 and t-end / dt"),
        (1e-4, 1e-3, "t-end must span at least one step of dt"),
        (1e308, 1e307, "t-end times its step count overflows"),
    ])
    def test_refuses_a_grid_it_cannot_lay(self, t_end, dt, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            time_grid(t_end, dt)

    def test_is_k_t_end_over_n(self):
        assert time_grid(0.0, 0.1).tolist() == [0.0]
        assert time_grid(6e-4, 1e-3).tolist() == [0.0, 6e-4]  # n rounds up to 1
        assert time_grid(0.7, 0.01).tolist() == (np.arange(71) * 0.7 / 70).tolist()


class TestStateConstancy:
    T_GRID = np.linspace(0, 10, 21)[1:]

    @staticmethod
    def ground(m):
        return prepare_initial(m, Preparation.eigenbasis(0, 0))

    def test_qnd_models_stay_constant(self):
        for seed in range(30):
            m = random_model((2, 2), "qnd", seed)
            dev = state_constancy_check(m, self.ground(m))
            assert dev <= 1e-8

    def test_fully_diagonal_model_is_stationary(self):
        m = qubit_model(SZ, SZ, np.zeros((4, 4)))
        dev = state_constancy_check(m, self.ground(m))
        assert dev <= 1e-12

    def test_violating_models_move(self):
        for seed in range(10):
            m = random_model((2, 2), "violating", seed)
            dev = state_constancy_check(m, self.ground(m))
            assert dev > 1e-2

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        dims=st.sampled_from([(2, 2), (3, 2), (4, 4)]),
        family=st.sampled_from(["qnd", "violating"]),
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4, unique=True),
        mixed=st.booleans(),
        t_end=st.floats(0.1, 10.0),
    )
    def test_bounds_per_time_route(self, dims, family, seeds, mixed, t_end):
        models = [random_model(dims, family, seed) for seed in seeds]
        batch = _stacked_model(models)
        if mixed:
            rng = np.random.default_rng(seeds[0])
            w0 = DensityOperator(np.stack([random_density(rng, batch.dim).matrix for _ in seeds]))
        else:
            w0 = self.ground(batch)
        grid = np.linspace(0.0, t_end, 11)[1:]
        got = state_constancy_check(batch, w0)
        reference = _constancy_reference(batch, w0, grid)
        assert np.abs(_grid_constancy(batch, w0, grid) - reference).max() <= 1e-14
        assert (reference <= np.sqrt(2) * got + 1e-12).all()
        for n, m in enumerate(models):  # each point with the bits of its one-model call
            one = state_constancy_check(m, DensityOperator(w0.matrix[n]))
            assert isinstance(one, float) and one == got[n]
        if family == "qnd" and not mixed:
            # a stationary preparation moves by rounding only, that of eigh's
            # eigenvectors, eps ||H|| / gap across H's closest eigenvalues
            e = batch.spectrum.eigenvalues
            assert (got <= 16 * np.finfo(float).eps * abs(e).max(-1) / np.diff(e).min(-1)).all()

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (3, 2), (2, 4)]),
        seed=st.integers(0, 2**32),
        energies=st.lists(st.integers(-2, 2), min_size=8, max_size=8),
        scale=st.sampled_from([1e-6, 1.0, 3.0, 1e6]),
    )
    def test_zero_whenever_w0_commutes_with_h(self, dims, seed, energies, scale):
        """H = V diag(E) V^dag with E drawn from five values, so groups of equal
        energies are common, and w0 = V B V^dag with B positive and
        block-diagonal over those groups: [H, w0] = 0, and L reads rounding
        only, at any scale of H."""
        d = dims[0] * dims[1]
        rng = np.random.default_rng(seed)
        v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        e = np.array(energies[:d], dtype=float)
        h = scale * (v * e) @ v.conj().T
        b = random_density(rng, d).matrix * (e[:, None] == e[None, :])
        w0 = v @ (b / np.trace(b).real) @ v.conj().T
        assert np.linalg.norm(h @ w0 - w0 @ h) <= 1e-12 * max(1.0, scale)
        m = BipartiteModel(*dims, HermitianOperator(np.zeros((dims[0],) * 2)),
                           HermitianOperator(np.zeros((dims[1],) * 2)),
                           HermitianOperator((h + h.conj().T) / 2))
        assert state_constancy_check(m, DensityOperator((w0 + w0.conj().T) / 2)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (3, 2), (4, 4)]),
        family=st.sampled_from(["qnd", "violating", "interpolated"]),
        seed=st.integers(0, 2**16),
        mixed=st.booleans(),
        times=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
    )
    def test_bounds_a_random_grid(self, dims, family, seed, mixed, times):
        """max over any times of ||w(t) - w0||_F is at most sqrt(2) L."""
        m = random_model(dims, family, seed, eta=0.5 if family == "interpolated" else None)
        w0 = random_density(np.random.default_rng(seed), m.dim) if mixed else self.ground(m)
        assert _grid_constancy(m, w0, times) <= np.sqrt(2) * state_constancy_check(m, w0) + 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 4)])
    def test_near_stationary_deviation_is_resolved(self, dims):
        """1e-9 away from a stationary state the deviation is ~1e-9; a route
        through tr(w(t) w0), 2 - 2 cos or 1 - sum p^2 would bury it in ~1e-8 of
        noise."""
        m = random_model(dims, "qnd", 5)
        mix = random_density(np.random.default_rng(5), m.dim).matrix
        w0 = DensityOperator((1 - 1e-9) * self.ground(m).matrix + 1e-9 * mix)
        got = state_constancy_check(m, w0)
        assert 1e-11 < got < 1e-8
        assert _constancy_reference(m, w0, self.T_GRID) <= np.sqrt(2) * got + 1e-14

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 4)])
    def test_exact_eigenstate_deviates_by_rounding_only(self, dims):
        """A QND model diagonal in the product basis: the prepared state is an
        exact eigenvector of H, so nothing but rounding can move it."""
        rng = np.random.default_rng(sum(dims))
        d_s, d_m = dims
        m = BipartiteModel(d_s, d_m, *(HermitianOperator(np.diag(rng.normal(size=n)))
                                       for n in (d_s, d_m, d_s * d_m)))
        w0 = self.ground(m)
        assert state_constancy_check(m, w0) <= 1e-15
        assert _constancy_reference(m, w0, self.T_GRID) <= 1e-15
