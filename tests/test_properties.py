"""Property tests: the compiled operators a random model caches give the same
bytes as building them afresh and are computed once; a stacked trajectory and
its block-wise validation agree bitwise with the one-state routes; sampling
never picks an outcome of zero weight, and the vectorised CDF inversion picks
what the one-draw loop picks; Born weights, evolved and collapsed states keep
their invariants; the apparatus-factor Born/Lüders kernel agrees with explicit
index loops and kron projectors on degenerate pointers; the Cholesky accept
test decides positivity as eigvalsh does; non-demolition models read sharply;
scenario documents round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndsim.dynamics
import qndsim.linalg
import qndsim.model
from qndsim.dynamics import evolve_exact, exact_trajectory, rhs_component_form
from qndsim.linalg import (
    EPS_HERM,
    EPS_POS,
    EPS_RECON,
    EPS_TRACE,
    DensityOperator,
    HermitianOperator,
    InvariantViolationError,
    as_matrix,
    check_operators,
    commutator,
    propagator,
)
from qndsim.measurement import (
    Calibration,
    PointerObservable,
    collapse_after_outcome,
    draw_trials,
    invert_cdf,
    outcome_distribution,
    sample_outcome,
)
from qndsim.model import Preparation, prepare_initial, random_model, total_hamiltonian
from qndsim.scenario_io import parse_scenario, render_scenario
from qndsim.scenarios import Scenario, Schedule, _born_index_loops, run_measurements

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


def weight_lists():
    """Unnormalised outcome weights with zeros and tiny entries among them."""
    return st.lists(
        st.sampled_from([0.0, 0.1, 0.3, 1.0, 1e-17]), min_size=1, max_size=12
    ).filter(lambda w: sum(w) > 0)


def loop_inversion(p, u):
    """The one-draw CDF inversion written as a loop: first lam with u < cum."""
    cum = 0.0
    for lam, plam in enumerate(p):
        cum += plam
        if u < cum:
            return lam
    return max(lam for lam, plam in enumerate(p) if plam > 0)


class Fixed:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@settings(max_examples=200, deadline=None)
@given(weight_lists(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20), st.data())
def test_vectorised_inversion_matches_one_draw(weights, draws, data):
    p = np.array(weights) / sum(weights)
    cum = np.cumsum(p)
    # boundaries of the CDF and the largest draw below 1 are the edge cases
    edges = [np.nextafter(1.0, 0.0)] + [c for c in cum.tolist() if c < 1.0]
    u = np.array(draws + data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=5)))
    got = invert_cdf(p, u)
    assert got.tolist() == [sample_outcome(p, Fixed(x)) for x in u.tolist()]
    assert got.tolist() == [loop_inversion(p, x) for x in u.tolist()]


@settings(max_examples=50, deadline=None)
@given(weight_lists(), st.integers(1, 300), st.integers(0, 300), st.integers(0, 2**140))
def test_first_trials_do_not_depend_on_trial_count(weights, n, k, seed):
    p = np.array(weights) / sum(weights)
    cal = Calibration(pointer_values=np.arange(len(p), dtype=float))
    k = min(k, n - 1) + 1
    long, short = (draw_trials(p, cal, 0, 1.0, count, seed) for count in (n, k))
    for name in ("trial", "time", "i", "lam", "reading"):
        assert np.array_equal(getattr(long, name)[:k], getattr(short, name))


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def assert_state(w):
    """The state rules of linalg.check_operators, recomputed here."""
    w = as_matrix(w)
    assert abs(np.trace(w).real - 1.0) <= EPS_TRACE
    assert np.linalg.norm(w - w.conj().T) <= EPS_HERM * max(1.0, np.linalg.norm(w))
    assert np.linalg.eigvalsh(w).min() >= -EPS_POS


@SETTINGS
@given(models(), st.integers(0, 2**32), st.booleans(), st.floats(0.0, 10.0))
def test_born_weights_and_states_keep_invariants(m, seed, mixed, t):
    if mixed:
        w0 = DensityOperator(random_state(m.dim, seed))
    else:
        w0 = prepare_initial(m, Preparation.eigenbasis(seed % m.d_system, seed % m.d_apparatus))
    pointer = PointerObservable.from_operator(m.h_apparatus)
    dims = (m.d_system, m.d_apparatus)
    w = evolve_exact(m, w0, t)
    assert_state(w)
    p = outcome_distribution(w, pointer, dims)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12
    for lam in np.flatnonzero(p > 1e-6):
        assert_state(collapse_after_outcome(w, pointer, lam, dims))


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


@st.composite
def degenerate_pointers(draw, d_m):
    """(pointer, u, values): u diag(values) u^dag in a random basis u, with the
    last eigenvalue forced equal to the first, so at least one group is degenerate."""
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=d_m, max_size=d_m))
    values[-1] = values[0]
    u = random_unitary(d_m, draw(st.integers(0, 2**32)))
    h = (u * values) @ u.conj().T
    return PointerObservable.from_operator(HermitianOperator((h + h.conj().T) / 2)), u, values


@SETTINGS
@given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2**32), st.data())
def test_born_kernel_sums_index_loops_per_group(d_s, d_m, seed, data):
    pointer, u, values = data.draw(degenerate_pointers(d_m))
    assert len(pointer.values) == len(set(values))
    w = random_state(d_s * d_m, seed)
    dims = (d_s, d_m)
    p = outcome_distribution(DensityOperator(w), pointer, dims)
    loops = np.add.reduceat(_born_index_loops(w, pointer, d_s, d_m), pointer.starts)
    assert np.allclose(p, loops / loops.sum(), rtol=0, atol=1e-12)
    for g in np.flatnonzero(p > 1e-3):
        # the eigenspace projector from the generating basis, lifted with kron
        v = u[:, np.isclose(values, pointer.values[g])]
        proj = np.kron(np.eye(d_s), v @ v.conj().T)
        expect = proj @ w @ proj
        expect = expect / np.trace(expect).real
        once = collapse_after_outcome(DensityOperator(w), pointer, g, dims)
        assert np.allclose(once.matrix, expect, rtol=0, atol=1e-11)
        twice = collapse_after_outcome(once, pointer, g, dims)
        assert np.allclose(twice.matrix, once.matrix, rtol=0, atol=1e-12)


def state_with_min_eigenvalue(d, seed, lowest):
    """A unit-trace Hermitian matrix in a random basis whose lowest eigenvalue is lowest."""
    r = np.random.default_rng(seed).uniform(0.1, 1.0, size=d - 1)
    lam = np.concatenate([[lowest], (1.0 - lowest) * r / r.sum()])
    u = random_unitary(d, seed)
    return (u * lam) @ u.conj().T


# Lowest eigenvalues a relative 1e-3 either side of the -pos_tol threshold.
SHIFTS = [1.0 - 1e-3, 1.0 + 1e-3]


def eigvalsh_lowest(w):
    return np.linalg.eigvalsh((w + w.conj().T) / 2).min()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32), st.sampled_from(SHIFTS),
       st.sampled_from([EPS_POS, 1e-7]))
def test_cholesky_accepts_what_eigvalsh_accepts(d, seed, shift, pos_tol):
    w = state_with_min_eigenvalue(d, seed, -pos_tol * shift)
    lo = eigvalsh_lowest(w)
    assert abs(lo + pos_tol * shift) <= 1e-14  # the state sits where it was put
    try:
        check_operators(w, "state", pos_tol)
        accepted = True
    except InvariantViolationError:
        accepted = False
    assert accepted == (lo >= -pos_tol)


@SETTINGS
@given(
    st.integers(2, 6),
    st.lists(st.tuples(st.integers(0, 2**32), st.sampled_from(SHIFTS)), max_size=12),
    small_blocks(),
)
def test_failing_stack_reports_the_eigvalsh_failure(d, members, block):
    members = members + [(0, SHIFTS[1])]  # at least one state fails
    stack = np.stack([state_with_min_eigenvalue(d, seed, -EPS_POS * shift)
                      for seed, shift in members])
    lows = [eigvalsh_lowest(w) for w in stack]
    k = next(k for k, lo in enumerate(lows) if lo < -EPS_POS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qndsim.linalg, "STACK_BLOCK", block)
        with pytest.raises(InvariantViolationError) as err:
            check_operators(stack, "state", EPS_POS)
    assert err.value.index == k
    assert str(err.value) == f"state has eigenvalue {lows[k]:.3e} below -{EPS_POS:g}"


@SETTINGS
@given(
    st.integers(2, 3), st.integers(2, 3), st.integers(0, 2**16), st.integers(0, 2**140),
    st.integers(2, 8), st.integers(1, 400), st.data(),
)
def test_qnd_models_read_sharply(d_s, d_m, model_seed, seed, n_repeats, n_trials, data):
    m = random_model((d_s, d_m), "qnd", model_seed)
    prep = Preparation.eigenbasis(data.draw(st.integers(0, d_s - 1)),
                                  data.draw(st.integers(0, d_m - 1)))
    schedule = Schedule(n_repeats=n_repeats, n_trials=n_trials)
    run = run_measurements(Scenario.build("qnd", m, prep, schedule, seed=seed))
    assert run.reading_variance == 0.0
    assert run.repeats.outcome_changes() == 0
    assert run.trials.outcome_changes() == 0


def hermitian(d, seed):
    w = random_state(d, seed)
    return HermitianOperator(w + w.conj().T)


@st.composite
def scenarios(draw):
    """Scenarios a scenario file can state: an explicit model, the calibration
    table (if any) read against the pointer's own values, an eta or none."""
    m = draw(models())
    if draw(st.booleans()):
        prep = Preparation.eigenbasis(draw(st.integers(0, m.d_system - 1)),
                                      draw(st.integers(0, m.d_apparatus - 1)))
    else:
        prep = Preparation.general(
            DensityOperator(random_state(m.d_system, draw(st.integers(0, 2**32)))),
            DensityOperator(random_state(m.d_apparatus, draw(st.integers(0, 2**32)))),
        )
    pointer = None
    if draw(st.booleans()):
        pointer = PointerObservable.from_operator(
            hermitian(m.d_apparatus, draw(st.integers(0, 2**32)))
        )
    calibration = None
    if draw(st.booleans()):
        pointer = pointer or PointerObservable.from_operator(m.h_apparatus)
        table = draw(st.lists(st.floats(-1e3, 1e3), min_size=m.dim, max_size=m.dim))
        calibration = Calibration(pointer.values, np.reshape(table, (m.d_system, m.d_apparatus)))
    schedule = Schedule(
        tau=draw(st.floats(1e-3, 10.0)),
        delta_tau=draw(st.floats(1e-3, 10.0)),
        n_repeats=draw(st.integers(2, 10)),
        n_trials=draw(st.integers(1, 10**4)),
    )
    name = draw(st.text(min_size=1, max_size=12))
    return Scenario.build(name, m, prep, schedule, pointer, calibration,
                          seed=draw(st.integers(0, 2**140)),
                          eta=draw(st.none() | st.floats(0.0, 1.0)))


def scenario_fields(s):
    """Every field of a scenario, arrays as (shape, bytes), for exact comparison."""
    def arr(a):
        a = as_matrix(a) if not isinstance(a, np.ndarray) else a
        return a.shape, a.dtype.str, a.tobytes()

    m, prep, cal = s.model, s.preparation, s.calibration
    return (
        s.name, s.seed, s.eta, s.schedule,
        m.d_system, m.d_apparatus,
        arr(m.h_system), arr(m.h_apparatus), arr(m.h_coupling),
        prep.system_index, prep.apparatus_index,
        None if prep.rho_system is None else arr(prep.rho_system),
        None if prep.mu_apparatus is None else arr(prep.mu_apparatus),
        arr(s.pointer.operator), arr(s.pointer.values),
        arr(cal.pointer_values), None if cal.table is None else arr(cal.table),
    )


@SETTINGS
@given(scenarios())
def test_rendered_scenario_parses_back(s):
    assert scenario_fields(parse_scenario(render_scenario(s))) == scenario_fields(s)
