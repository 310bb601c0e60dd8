"""Property tests: the compiled operators a random model caches give the same
bytes as building them afresh and are computed once; a trajectory table
writes the bytes of one "%.17g" per cell; the exact ket trajectory agrees
with the matrix route within 1e-13, and block-wise validation bitwise with
the one-state route; sampling
never picks an outcome of zero weight, and the vectorised CDF inversion picks
what the one-draw loop picks; the batch statistics equal their row-by-row
counterparts bit for bit; a record writes the bytes of one format call per
row; Born weights keep their invariants, and so do the states nothing checks
in full (evolved, exact-trajectory, collapsed, and every ensemble of the ket
repeat protocol on a batch); the ket pipeline reads the Born weights of the
density-matrix route it replaced within 1e-12 and its outcomes exactly; the
apparatus-factor Born/Lüders kernel agrees with explicit index loops and kron
projectors on degenerate pointers; the Cholesky accept test decides positivity
as eigvalsh does; non-demolition models read sharply; scaling every
Hamiltonian by 2^k and every time by 2^-k keeps every verdict, defect,
constancy and outcome bit for bit; scenario documents round-trip."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim.dynamics
import qndsim.linalg
import qndsim.measurement
import qndsim.model
import qndsim.scenarios
from qndsim import csvtext
from qndsim.dynamics import evolve_exact, exact_trajectory, kets_at, rhs_component_form
from qndsim.linalg import (
    EPS_HERM,
    EPS_POS,
    EPS_TRACE,
    DensityOperator,
    HermitianOperator,
    InvariantViolationError,
    as_matrix,
    check_operators,
    commutator,
    propagator,
)
from qndsim.csvtext import _RECORD_BLOCK as BLOCK
from qndsim.measurement import (
    MeasurementRecord,
    PointerObservable,
    aggregate_sigma,
    collapse_after_outcome,
    invert_cdf,
    ket_distribution,
    outcome_changes,
    outcome_distribution,
    outcome_frequencies,
    reading_variance,
    repeated_outcomes,
    sample_outcome,
    trial_rng,
)
from qndsim.model import (
    BipartiteModel,
    Preparation,
    check_conditions,
    prepare_initial,
    prepare_kets,
    random_model,
    total_hamiltonian,
)
from qndsim.scenario_io import parse_scenario, render_scenario
from qndsim.scenarios import (
    Scenario,
    Schedule,
    _born_index_loops,
    measure_batch,
    run_scenario,
)

SETTINGS = settings(max_examples=25, deadline=None)
# V diag(E) V^dag rebuilds H within this, relative to max(1, ||H||_F).
EPS_RECON = 1e-8


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


def eigen_ensemble(m, w):
    """A state w as an ensemble, its eigenvalues q and its eigenvectors'
    coordinates C = V^dag phi in H's eigenbasis, for exact_trajectory and
    evolve_stepped."""
    q, v = np.linalg.eigh(as_matrix(w))
    return q, v.T @ m.spectrum.eigenvectors.conj()


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
    v, e = m.spectrum.eigenvectors, m.spectrum.eigenvalues
    err = np.linalg.norm((v * e) @ v.conj().T - h)
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
    assert np.array_equal(evolve_exact(m, w0, t), expect)


@SETTINGS
@given(models(), time_grids(), st.booleans(), st.booleans(), st.data())
def test_exact_trajectory_matches_evolve_exact(m, times, mixed, degenerate, data):
    """The exact trajectory of the ensemble Scenario.ensemble makes, of an
    index or a mixed rho x mu preparation, in the model's pointer basis or a
    degenerate pointer's, starts at prepare_initial's w(0) within 5e-15 (its
    kets go through V V^dag, the identity to a few ulp: 3.0e-15 was the
    largest gap in 3000 draws) and agrees with evolve_exact, the matrix
    reference, within 1e-13."""
    if mixed:
        prep = Preparation.general(
            DensityOperator(random_state(m.d_system, data.draw(st.integers(0, 2**32)))),
            DensityOperator(random_state(m.d_apparatus, data.draw(st.integers(0, 2**32)))))
    else:
        prep = Preparation.eigenbasis(data.draw(st.integers(0, m.d_system - 1)),
                                      data.draw(st.integers(0, m.d_apparatus - 1)))
    pointer = PointerObservable.from_operator(m.h_apparatus)
    if degenerate:
        pointer = data.draw(degenerate_pointers(m.d_apparatus))[0]
    w0 = prepare_initial(m, prep, pointer_basis=pointer.basis)
    q, phi = prepare_kets(m, prep, pointer_basis=pointer.basis)
    states = exact_trajectory(m, q, phi @ m.spectrum.eigenvectors.conj(), times)
    assert states.shape == (len(times), m.dim, m.dim)
    assert np.abs(states[0] - w0.matrix).max() <= 5e-15
    for t, w in zip(times, states):
        assert np.abs(w - evolve_exact(m, w0, t)).max() <= 1e-13


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
    stack = exact_trajectory(m, *eigen_ensemble(m, w0), np.arange(n) * 0.1)
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
    w = evolve_exact(m, initial_state(m, data), t)
    term_s, term_m = explicit_terms(m)
    hc = as_matrix(m.h_coupling)
    expect = -1j * (commutator(term_s, w) + commutator(hc, w) + commutator(term_m, w))
    assert np.array_equal(rhs_component_form(m, w), expect)


@SETTINGS
@given(models())
def test_cached_arrays_are_read_only(m):
    arrays = [
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
    readings = np.arange(len(p), dtype=float)
    k = min(k, n - 1) + 1
    long, short = (MeasurementRecord(0, np.arange(count), 1.0,
                                     invert_cdf(p, trial_rng(seed).random(count)), readings)
                   for count in (n, k))
    assert long.system_index == short.system_index == 0
    for name in ("trial", "lam", "reading"):
        assert np.array_equal(getattr(long, name)[:k], getattr(short, name))
    assert long.time == short.time == 1.0


# Readings whose squares stay finite: signed zeros, a subnormal, a value
# that needs 17 digits, and values drawn often enough to fill a row.
STAT_FLOATS = (st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0, 0.1 + 0.2, 1e150, -1e150])
               | st.floats(-1e6, 1e6))


@st.composite
def outcome_batches(draw):
    """lam, a (batch, n) array of pointer groups, some rows all one group; and
    values, a (batch, groups) array of readings, some rows all one reading."""
    batch, n = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 3]) | st.integers(1, 60))
    groups = draw(st.sampled_from([1, 2, 9, 12]) | st.integers(1, 16))
    lam = np.array([draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n)
                         | st.integers(0, groups - 1).map(lambda g: [g] * n))
                    for _ in range(batch)], dtype=np.intp)
    values = np.array([draw(st.lists(STAT_FLOATS, min_size=groups, max_size=groups)
                            | STAT_FLOATS.map(lambda v: [v] * groups))
                       for _ in range(batch)])
    return lam, values


@settings(max_examples=100, deadline=None)
@given(outcome_batches(), st.data())
def test_batch_statistics_equal_their_rows_bit_for_bit(outcomes, data):
    lam, values = outcomes
    groups = values.shape[-1]
    readings = np.take_along_axis(values, lam, axis=-1)
    weights = np.array([data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0, 1),
                                           min_size=groups, max_size=groups))
                        for _ in range(len(lam))])
    frequencies = outcome_frequencies(lam, groups)
    rows = {
        "reading_variance": [0.0 if np.all(r == r[0]) else float(np.var(r)) for r in readings],
        "outcome_frequencies": [np.bincount(r, minlength=groups) / len(r) for r in lam],
        "outcome_changes": [int(np.count_nonzero(r[1:] != r[:-1])) for r in lam],
        "analytic": [float(sum(w * v)) for w, v in zip(weights, values)],
        "empirical": [float(sum(f * v)) for f, v in zip(frequencies, values)],
    }
    got = {
        "reading_variance": reading_variance(readings),
        "outcome_frequencies": frequencies,
        "outcome_changes": outcome_changes(lam),
        "analytic": aggregate_sigma(weights, values),
        "empirical": aggregate_sigma(frequencies, values),
    }
    for name, want in rows.items():
        want = np.array(want, dtype=got[name].dtype)
        assert got[name].shape == want.shape and got[name].tobytes() == want.tobytes(), name


# Signed zeros, a subnormal, a huge value and a value that needs 17 digits,
# drawn often enough to repeat within a record.
RECORD_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 0.1 + 0.2]) | st.floats()
RECORD_INTS = st.sampled_from([0, 1, -1, 2**62, 2**63 - 1, -2**63]) | st.integers(-2**63, 2**63 - 1)


@st.composite
def records(draw):
    """A MeasurementRecord with n rows reading a vector of 1 to 5 groups,
    trial and time each one value or one per row."""
    n, groups = draw(st.integers(0, 30)), draw(st.integers(1, 5))
    readings = draw(st.lists(RECORD_FLOATS, min_size=groups, max_size=groups))
    lam = draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n))
    trial = draw(RECORD_INTS | st.lists(RECORD_INTS, min_size=n, max_size=n))
    time = draw(RECORD_FLOATS | st.lists(RECORD_FLOATS, min_size=n, max_size=n))
    system_index = draw(st.none() | st.integers(-5, 2**64))
    return MeasurementRecord(system_index, trial, time, lam, readings)


@settings(max_examples=100, deadline=None)
@given(records())
@example(MeasurementRecord(None, np.arange(0), 1.0, [], []))
# signed zeros, as readings of two groups and as the times of a row each
@example(MeasurementRecord(2, [0, 1, 2], -0.0, [1, 0, 1], [0.0, -0.0]))
@example(MeasurementRecord(None, 0, [0.0, -0.0, 5e-324], [0, 1, 0], [1e300, 5e-324]))
@example(MeasurementRecord(1, np.arange(9000), 0.5, np.arange(9000) % 3, np.arange(3) / 10))
# 4-digit trials up to a block boundary, 5-digit ones after it
@example(MeasurementRecord(None, np.arange(10000 - BLOCK, 10005), 1.0,
                           np.zeros(BLOCK + 5, int), [1.0]))
# an all-negative block from -2**63, then 2**63 - 1 and 0 with no negative
@example(MeasurementRecord(0, np.r_[-2**63, -np.arange(1, BLOCK), 2**63 - 1, 0], 1.0,
                           np.zeros(BLOCK + 2, int), [1.0]))
# the repeat shape: one trial over more than a block, a time per row
@example(MeasurementRecord(0, 0, np.arange(BLOCK + 8) * 0.5, np.arange(BLOCK + 8) % 2,
                           [0.0, 1.0]))
# an 8-byte tail and a 31-byte one, the longer group first
@example(MeasurementRecord(None, [0, 1, 2], 0.0, [1, 0, 1], [-1e-300, 0.0]))
def test_record_csv_matches_one_format_per_row(rec):
    i = "" if rec.system_index is None else rec.system_index
    trial, time = (np.broadcast_to(c, rec.lam.shape).tolist() for c in (rec.trial, rec.time))
    want = "trial,time,i,lambda,reading\n" + "".join(
        "%d,%.17g,%s,%d,%.17g\n" % row
        for row in zip(trial, time, [i] * len(trial), rec.lam.tolist(), rec.reading.tolist()))
    got = io.StringIO()
    rec.write_csv(got)
    assert got.getvalue() == want


# Any float64, subnormals, signed zeros, infinities and NaNs included, by
# its bits, and hypothesis's own float edge cases.
CELL_FLOATS = (st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
               | st.floats())


@st.composite
def tables(draw):
    """Times (n,) and cells (n, c) of a trajectory table."""
    n, c = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    flat = draw(st.lists(CELL_FLOATS, min_size=n * (c + 1), max_size=n * (c + 1)))
    table = np.array(flat, dtype=float).reshape(n, c + 1)
    return table[:, 0].copy(), table[:, 1:].copy()


def one_row(*values):
    return np.array(values[:1]), np.array([values[1:]])


def crossing_block():
    """A table one row longer than the writer's block, every layout in it."""
    n = csvtext._BLOCK_CELLS // 4 + 1
    j = np.arange(3 * n).reshape(n, 3)
    cells = np.sin(j) * 10.0 ** (j % 41 - 20)
    cells[::7, 1] = -0.0
    cells[::11, 2] = np.arange(0, n, 11) * 1000.0
    return np.arange(n) * 5.0 / (n - 1), cells


@settings(max_examples=200, deadline=None)
@given(tables())
@example(one_row(0.0, 1000000000000000.75))  # a tie that rounds half-even up
@example(one_row(0.0, 1000000000000000.25))
# |x| * 10**23 lies 2**-52 past a half, nearer than the product's error
@example(one_row(0.0, 2.2422607587866907e-07, 3.888475069819475e-07))
@example(one_row(0.0, 9.9999999999999991e-05))  # log10 says -4, the exponent is -5
@example(one_row(1e-4, 1e16, 1e17, 99999999999999984.0, 0.1, 5e-324))
@example(one_row(-0.0, 0.0, 20.0, 1234500000000000.0, -12345.678, 1e-5, 1e300, -1e-300))
@example(one_row(float("nan"), float("inf"), -float("inf"), 2.2250738585072014e-308))
@example(crossing_block())
def test_trajectory_rows_match_one_format_per_cell(table):
    times, cells = table
    want = "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in np.column_stack([times, cells]).tolist())
    got = io.BytesIO()
    csvtext._write_rows(got, times, cells)
    assert got.getvalue() == want.encode()


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
@given(models(), st.integers(0, 2**32), st.booleans(), st.floats(0.0, 10.0), time_grids(),
       st.booleans(), st.data())
def test_born_weights_and_states_keep_invariants(m, seed, mixed, t, times, degenerate, data):
    """Evolved states, every state of an exact trajectory and the Lüders
    collapses, on the model's pointer or on a degenerate one, are states by
    construction, which nothing checks in full: trace within EPS_TRACE,
    ||M - M^dag||_F within EPS_HERM * max(1, ||M||_F), lowest eigenvalue
    >= -EPS_POS."""
    if mixed:
        w0 = DensityOperator(random_state(m.dim, seed))
    else:
        w0 = prepare_initial(m, Preparation.eigenbasis(seed % m.d_system, seed % m.d_apparatus))
    if degenerate:
        pointer = data.draw(degenerate_pointers(m.d_apparatus))[0]
    else:
        pointer = PointerObservable.from_operator(m.h_apparatus)
    dims = (m.d_system, m.d_apparatus)
    for w in exact_trajectory(m, *eigen_ensemble(m, w0), times):
        assert_state(w)
    w = evolve_exact(m, w0, t)
    assert_state(w)
    p = outcome_distribution(w, pointer, dims)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12
    for lam in np.flatnonzero(p > 1e-6):
        assert_state(collapse_after_outcome(w, pointer, lam, dims))


def assert_ensemble(q, phi):
    """Weights >= 0 summing to 1, kets of unit norm, and sum_k q_k phi_k phi_k^dag a state."""
    assert q.min() >= 0.0 and np.abs(q.sum(axis=-1) - 1.0).max() <= 1e-12
    assert np.abs(np.linalg.norm(phi, axis=-1) ** 2 - 1.0).max() <= EPS_TRACE
    for w in ((q[..., None] * phi).swapaxes(-1, -2) @ phi.conj()).reshape(-1, *phi.shape[-1:] * 2):
        assert_state(w)


@SETTINGS
@given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.lists(st.integers(0, 2**16), min_size=1,
       max_size=4), st.floats(0.0, 1.0), st.floats(0.1, 5.0), st.integers(2, 6),
       st.integers(0, 2**32))
def test_repeated_outcomes_states_keep_invariants(dims, seeds, eta, delta_tau, n, seed):
    """Every ensemble repeated_outcomes holds on a batch, each one measured,
    collapsed or evolved, is a state, which nothing checks in full: weights
    >= 0 summing to 1, unit kets, and its density matrix within the state
    rules (assert_state)."""
    models = [random_model(dims, "interpolated", s, eta=eta) for s in seeds]
    batch = BipartiteModel(*dims, *(
        HermitianOperator(np.stack([getattr(m, name).matrix for m in models]))
        for name in ("h_system", "h_apparatus", "h_coupling")))
    pointer = PointerObservable.from_operator(batch.h_apparatus)
    q, phi = prepare_kets(batch, Preparation.eigenbasis(0, 0), pointer_basis=pointer.basis)
    phi_tau = kets_at(batch, phi @ batch.spectrum.eigenvectors.conj(), 1.0)
    p = ket_distribution(q, phi_tau, pointer, dims)
    seen = []  # each step's measured, collapsed and evolved ensemble

    def measured(q, phi, *args):
        seen.append((q, phi))
        seen.append(collapse(q, phi, *args))
        return seen[-1]

    def evolved(q, phi, *args):
        seen.append((q, phi))
        return born(q, phi, *args)

    collapse = qndsim.measurement._collapse_kets
    born = qndsim.measurement.ket_distribution
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qndsim.measurement, "_collapse_kets", measured)
        mp.setattr(qndsim.measurement, "ket_distribution", evolved)
        repeated_outcomes(batch, q, phi_tau, p, pointer, delta_tau,
                          trial_rng(seed).random((len(seeds), n)))
    assert len(seen) == 3 * (n - 1)
    for ensemble in seen:
        assert_ensemble(*ensemble)


def repeated_outcomes_per_step(m, w_tau, p_tau, pointer, delta_tau, u, born):
    """The density-matrix repeat protocol the ket one replaced, kept as its
    reference: each step U w U^dag through evolve_exact, the Born weights of
    the state matrix, then the matrix Lüders collapse; appends each step's
    Born weights to born."""
    dims = (m.d_system, m.d_apparatus)
    w, p, lams = w_tau, p_tau, []
    for k in range(u.shape[-1]):
        if k:
            w = evolve_exact(m, w, delta_tau)
            p = outcome_distribution(w, pointer, dims)
            born.append(p)
        lams.append(invert_cdf(p, u[..., k]))
        if k + 1 < u.shape[-1]:
            w = collapse_after_outcome(w, pointer, lams[-1], dims)
    return np.stack(lams, axis=-1)


@SETTINGS
@given(st.integers(2, 3), st.integers(2, 3), st.sampled_from(["qnd", "violating", "interpolated"]),
       st.floats(0.0, 1.0), st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
       st.booleans(), st.booleans(), st.booleans(), st.floats(0.1, 3.0), st.floats(0.1, 5.0),
       st.integers(2, 6), st.integers(1, 40), st.data())
def test_repeated_outcomes_equal_per_step_evolution_bitwise(
        d_s, d_m, family, eta, seeds, stacked, general, degenerate, tau, delta_tau,
        n_repeats, n_trials, data):
    """The ket pipeline against the density-matrix route it replaced
    (repeated_outcomes_per_step), with the draws of trial_rng(seed), on one
    point and on a stacked batch, from an index or a mixed general
    preparation, on the model's pointer or a degenerate one: the Born weights
    at tau and at every repeat agree within 1e-12, and the trial and repeat
    outcomes are equal bit for bit."""
    eta = eta if family == "interpolated" else None
    models = [random_model((d_s, d_m), family, s, eta=eta) for s in seeds]
    if stacked:
        m = BipartiteModel(d_s, d_m, *(
            HermitianOperator(np.stack([getattr(x, name).matrix for x in models]))
            for name in ("h_system", "h_apparatus", "h_coupling")))
    else:
        m, seeds = models[0], seeds[:1]
    h = m.h_apparatus.matrix
    if degenerate:  # the same degenerate pointer for every point
        h = np.broadcast_to(data.draw(degenerate_pointers(d_m))[0].operator.matrix, h.shape)
    pointer = PointerObservable.from_operator(HermitianOperator(h))
    if general:
        prep = Preparation.general(DensityOperator(random_state(d_s, seeds[0])),
                                   DensityOperator(random_state(d_m, seeds[0] + 1)))
    else:
        prep = Preparation.eigenbasis(data.draw(st.integers(0, d_s - 1)),
                                      data.draw(st.integers(0, d_m - 1)))
    s = Scenario(tuple(map(str, seeds)), m, prep, pointer,
                 Schedule(tau, delta_tau, n_repeats, n_trials), None,
                 tuple(seeds), (eta,) * len(seeds))
    got_born = []

    def recording(*args):
        got_born.append(born(*args))
        return got_born[-1]

    born = qndsim.measurement.ket_distribution
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qndsim.scenarios, "ket_distribution", recording)
        mp.setattr(qndsim.measurement, "ket_distribution", recording)
        got = measure_batch(s)
    dims = (d_s, d_m)
    w_tau = evolve_exact(m, prepare_initial(m, prep, pointer_basis=pointer.basis), tau)
    want_born = [outcome_distribution(w_tau, pointer, dims)]
    u = np.stack([trial_rng(seed).random(max(n_repeats, n_trials)) for seed in seeds])
    u = u.reshape(*m.batch, -1)
    repeat_lams = repeated_outcomes_per_step(m, w_tau, want_born[0], pointer, delta_tau,
                                             u[..., :n_repeats], want_born)
    assert len(got_born) == len(want_born) == n_repeats
    for a, b in zip(got_born, want_born, strict=True):
        assert np.abs(a - b).max() <= 1e-12
    assert np.array_equal(got.repeat_lams, repeat_lams)
    assert np.array_equal(got.trial_lams, invert_cdf(want_born[0], u[..., :n_trials]))
    assert got.repeat_lams.shape == (*m.batch, n_repeats)


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
        assert np.allclose(once, expect, rtol=0, atol=1e-11)
        twice = collapse_after_outcome(once, pointer, g, dims)
        assert np.allclose(twice, once, rtol=0, atol=1e-12)


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
    pointer = PointerObservable.from_operator(m.h_apparatus)
    run = measure_batch(Scenario(("qnd",), m, prep, pointer, schedule,
                                 None, (seed,), (None,)))
    assert run.reading_variance == 0.0
    assert run.repeat_changes == 0
    assert outcome_changes(run.trial_lams) == 0


@SETTINGS
@given(
    st.integers(2, 4), st.integers(2, 4), st.sampled_from(["qnd", "violating", "interpolated"]),
    st.floats(0.0, 1.0), st.integers(0, 2**16),
    st.sampled_from([-400, -60, -40, -20, 20, 40, 480]),
    st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.data(),
)
def test_scaled_models_keep_every_verdict_and_outcome(
        d_s, d_m, family, eta, seed, k, tau, delta_tau, data):
    """The dynamics depend on E t alone: with every Hamiltonian scaled by
    c = 2^k and every time by 1/c (both exact in floating point), the
    condition verdicts and defects, the state constancy L, the trial and
    repeat outcomes, sigma / c and the variance / c^2 equal the unscaled run's
    bit for bit, since every tolerance is relative to its operator's scale.
    Past k = -400 and 480, eigh itself is no longer bitwise scale-covariant
    (LAPACK rescales such inputs), and L's rounding digits move (seen at
    k = -450 and 500)."""
    m = random_model((d_s, d_m), family, seed, eta=eta if family == "interpolated" else None)
    prep = Preparation.eigenbasis(data.draw(st.integers(0, d_s - 1)),
                                  data.draw(st.integers(0, d_m - 1)))
    got = []
    for c in (1.0, 2.0**k):
        scaled = BipartiteModel(d_s, d_m, *(HermitianOperator(c * getattr(m, name).matrix)
                                            for name in ("h_system", "h_apparatus", "h_coupling")))
        report = check_conditions(scaled)
        pointer = PointerObservable.from_operator(scaled.h_apparatus)
        s = Scenario(("scaled",), scaled, prep, pointer, Schedule(tau / c, delta_tau / c, 5, 50),
                     None, (seed,), (None,))
        run = measure_batch(s)
        got.append([np.asarray(a).tobytes() for a in (
            *dataclasses.astuple(report), run_scenario(s).constancy_dev,
            run.trial_lams, run.repeat_lams,
            run.sigma_analytic / c, run.sigma_empirical / c, run.reading_variance / c**2)])
    assert got[0] == got[1]


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
    pointer = PointerObservable.from_operator(m.h_apparatus)
    if draw(st.booleans()):
        pointer = PointerObservable.from_operator(
            hermitian(m.d_apparatus, draw(st.integers(0, 2**32)))
        )
    table = None
    if draw(st.booleans()):
        table = draw(st.lists(st.floats(-1e3, 1e3), min_size=m.dim, max_size=m.dim))
        table = np.reshape(table, (m.d_system, m.d_apparatus))
    schedule = Schedule(
        tau=draw(st.floats(1e-3, 10.0)),
        delta_tau=draw(st.floats(1e-3, 10.0)),
        n_repeats=draw(st.integers(2, 10)),
        n_trials=draw(st.integers(1, 10**4)),
    )
    name = draw(st.text(min_size=1, max_size=12))
    return Scenario((name,), m, prep, pointer, schedule, table,
                    (draw(st.integers(0, 2**140)),), (draw(st.none() | st.floats(0.0, 1.0)),))


def scenario_fields(s):
    """Every field of a scenario, arrays as (shape, bytes), for exact comparison."""
    def arr(a):
        a = as_matrix(a) if not isinstance(a, np.ndarray) else a
        return a.shape, a.dtype.str, a.tobytes()

    m, prep = s.model, s.preparation
    return (
        s.names, s.seeds, s.etas, s.schedule,
        m.d_system, m.d_apparatus,
        arr(m.h_system), arr(m.h_apparatus), arr(m.h_coupling),
        prep.system_index, prep.apparatus_index,
        None if prep.rho_system is None else arr(prep.rho_system),
        None if prep.mu_apparatus is None else arr(prep.mu_apparatus),
        arr(s.pointer.operator), arr(s.pointer.values),
        arr(s.readings), None if s.table is None else arr(s.table),
    )


@SETTINGS
@given(scenarios())
def test_rendered_scenario_parses_back(s):
    assert scenario_fields(parse_scenario(render_scenario(s))) == scenario_fields(s)
