"""Property tests: the compiled operators a random model caches give the same
bytes as building them afresh and are computed once; a stacked trajectory and
its block-wise validation agree bitwise with the one-state routes; sampling
never picks an outcome of zero weight."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndsim.dynamics
import qndsim.linalg
import qndsim.model
from qndsim.dynamics import evolve_exact, exact_trajectory, rhs_component_form
from qndsim.linalg import (
    EPS_POS,
    EPS_RECON,
    DensityOperator,
    InvariantViolationError,
    as_matrix,
    check_operators,
    commutator,
    propagator,
)
from qndsim.measurement import sample_outcome
from qndsim.model import Preparation, prepare_initial, random_model, total_hamiltonian

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def models(draw):
    dims = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    family = draw(st.sampled_from(["qnd", "violating", "interpolated"]))
    eta = draw(st.floats(0.0, 1.0)) if family == "interpolated" else None
    return random_model(dims, family, draw(st.integers(0, 2**16)), eta=eta)


def initial_state(m, data):
    i = data.draw(st.integers(0, m.d_system - 1))
    lam = data.draw(st.integers(0, m.d_apparatus - 1))
    return prepare_initial(m, Preparation.eigenbasis(i, lam))


def time_grids():
    """Sorted positive times, prefixed by 0."""
    later = st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=12, unique=True)
    return later.map(lambda ts: np.array([0.0] + sorted(ts)))


def small_blocks():
    """Stack block sizes small enough that a short stack spans several blocks."""
    return st.sampled_from([1, 2, 3, qndsim.linalg.STACK_BLOCK])


def explicit_terms(m):
    """h_S x I and I x h_M built with np.kron, bypassing the model's cache."""
    eye_s = np.eye(m.d_system, dtype=complex)
    eye_m = np.eye(m.d_apparatus, dtype=complex)
    return np.kron(m.h_system.matrix, eye_m), np.kron(eye_s, m.h_apparatus.matrix)


@SETTINGS
@given(models())
def test_spectrum_reconstructs_hamiltonian(m):
    h = m.hamiltonian.matrix
    err = np.linalg.norm(m.spectrum.reconstruct() - h)
    assert err <= EPS_RECON * max(1.0, np.linalg.norm(h))


@SETTINGS
@given(models())
def test_hamiltonian_is_explicit_sum(m):
    term_s, term_m = explicit_terms(m)
    assert np.array_equal(m.hamiltonian.matrix, term_s + term_m + m.h_coupling.matrix)
    assert total_hamiltonian(m) is m.hamiltonian


@SETTINGS
@given(models(), st.floats(0.0, 10.0), st.data())
def test_evolve_exact_matches_uncached_propagator(m, t, data):
    w0 = initial_state(m, data)
    u = propagator(total_hamiltonian(m).matrix, t)
    expect = u @ w0.matrix @ u.conj().T
    assert np.array_equal(evolve_exact(m, w0, t).matrix, expect)


@SETTINGS
@given(models(), time_grids(), small_blocks(), st.data())
def test_exact_trajectory_matches_evolve_exact(m, times, block, data):
    w0 = initial_state(m, data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qndsim.dynamics, "STACK_BLOCK", block)
        traj = exact_trajectory(m, w0, times)
    assert np.array_equal(traj.times, times)
    assert not traj.states.flags.writeable
    assert np.array_equal(traj.states[0], w0.matrix)
    for t, w in zip(times[1:], traj.states[1:]):
        assert np.array_equal(w, evolve_exact(m, w0, t).matrix)


@SETTINGS
@given(models(), time_grids())
def test_stacked_unitary_matches_one_time(m, times):
    stack = m.spectrum.unitary(times)
    assert stack.shape == (len(times), m.dim, m.dim)
    for t, u in zip(times, stack):
        assert np.array_equal(u, m.spectrum.unitary(t))


def corrupt(w, kind):
    """A copy of the pure state w that breaks one density-operator rule."""
    d = len(w)
    if kind == "non-finite":
        return w + np.where(np.eye(d) == 1, np.nan, 0)
    if kind == "non-Hermitian":
        return w + np.triu(np.full((d, d), 1e-3), 1)
    if kind == "trace":
        return 1.1 * w
    return 1.1 * w - 0.1 * np.eye(d) / d  # unit trace, eigenvalue -0.1/d


@SETTINGS
@given(
    models(),
    st.integers(2, 40),
    small_blocks(),
    st.lists(
        st.tuples(
            st.integers(0, 39),
            st.sampled_from(["non-finite", "non-Hermitian", "trace", "negative"]),
        ),
        min_size=1,
        max_size=2,
    ),
    st.data(),
)
def test_stacked_check_flags_first_failing_state(m, n, block, bad, data):
    w0 = initial_state(m, data)
    stack = exact_trajectory(m, w0, np.arange(n) * 0.1).states.copy()
    for k, kind in bad:
        stack[k % n] = corrupt(stack[k % n], kind)
    first = None
    for k, w in enumerate(stack):
        try:
            DensityOperator(w)
        except InvariantViolationError as exc:
            first = (k, str(exc))
            break
    assert first is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qndsim.linalg, "STACK_BLOCK", block)
        with pytest.raises(InvariantViolationError) as err:
            check_operators(stack, "state", EPS_POS)
    assert (err.value.index, str(err.value)) == first


@SETTINGS
@given(models(), st.floats(0.0, 2.0), st.data())
def test_rhs_matches_explicit_kron_form(m, t, data):
    w = evolve_exact(m, initial_state(m, data), t).matrix
    term_s, term_m = explicit_terms(m)
    hc = as_matrix(m.h_coupling)
    expect = -1j * (commutator(term_s, w) + commutator(hc, w) + commutator(term_m, w))
    assert np.array_equal(rhs_component_form(m, w), expect)


@SETTINGS
@given(models())
def test_cached_arrays_are_read_only(m):
    arrays = [
        m.system_term,
        m.apparatus_term,
        m.hamiltonian.matrix,
        m.spectrum.eigenvalues,
        m.spectrum.eigenvectors,
        m.system_basis.eigenvectors,
    ]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


@SETTINGS
@given(models(), st.integers(1, 6), st.data())
def test_hamiltonian_diagonalised_once(m, k, data):
    w0 = initial_state(m, data)
    seen = []
    original = qndsim.model.spectral

    def counting(h):
        seen.append(as_matrix(h))
        return original(h)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qndsim.model, "spectral", counting)
        for j in range(k):
            evolve_exact(m, w0, 0.5 * (j + 1))
    assert len(seen) == 1
    assert np.array_equal(seen[0], m.hamiltonian.matrix)


@SETTINGS
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0, 1e-17]), min_size=1, max_size=12)
    .filter(lambda w: sum(w) > 0),
    st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(np.nextafter(1.0, 0.0))),
)
def test_sample_outcome_never_returns_zero_weight(weights, u):
    p = np.array(weights) / sum(weights)

    class Fixed:
        def random(self):
            return u

    assert p[sample_outcome(p, Fixed())] > 0
