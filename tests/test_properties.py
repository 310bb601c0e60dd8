"""Property tests: the compiled operators a random model caches give the same
bytes as building them afresh and are computed once; sampling never picks an
outcome of zero weight."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndsim.model
from qndsim.dynamics import evolve_exact, rhs_component_form
from qndsim.linalg import EPS_RECON, as_matrix, commutator, propagator
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
