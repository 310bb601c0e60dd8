"""The batched sweep: every (eta, seed) point of one dims runs as one stack
through each stage, with the bytes of one scenario at a time.

Golden CSVs were written by the one-point-at-a-time sweep that preceded the
batch, rewritten when state constancy moved into H's eigenbasis (only
constancy_dev cells changed), and again when the pipeline moved to kets and
constancy became the grid-free L (constancy_dev cells, and sigma_analytic in
its last digits); the sweep must still write them byte for byte.  Each sweep row equals
run_scenario on the same scenario, field for field; a failure names the first
point that fails alone; seeds whose pointers group their eigenvalues differently, or
points that overflow one batch, run as separate batches, and a sweep whose
points are large holds about one point at a time, and a full batch peaks
within its byte budget; the repeat protocol makes no collapse it does not use,
each seed draws one stream for all its points, and a sweep builds no record.
"""

import tracemalloc
from dataclasses import astuple
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qndsim.measurement
import qndsim.scenarios
from qndsim.cli import main as cli_main
from qndsim.linalg import DensityOperator, HermitianOperator, SpectralDecomposition, spectral
from qndsim.linalg import tensor
from qndsim.dynamics import energy_coherence, kets_at
from qndsim.measurement import (
    MeasurementRecord,
    PointerObservable,
    _collapse_kets,
    collapse_after_outcome,
    invert_cdf,
    ket_distribution,
    repeated_outcomes,
)
from qndsim.model import (
    BipartiteModel,
    ModelDraws,
    Preparation,
    model_draws,
    prepare_kets,
    random_model,
)
from qndsim.scenarios import (
    DEFAULT_ETA_GRID,
    Scenario,
    Schedule,
    _point_bytes,
    interpolation_sweep,
    measure_batch,
    run_scenario,
)

DATA = Path(__file__).resolve().parent / "data"
SMALL = Schedule(tau=1.0, delta_tau=0.5, n_repeats=5, n_trials=50)


@pytest.mark.parametrize("name, argv", [
    ("sweep-3x2-seeds0-3.csv", ["--dims", "3,2", "--seeds", "0:3"]),
    ("sweep-4x4-seeds1-5.csv", ["--dims", "4,4", "--seeds", "1:5"]),
])
def test_sweep_bytes_match_golden(tmp_path, name, argv):
    out = tmp_path / name
    assert cli_main(["sweep", *argv, "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def interp_scenario(dims, eta, seed, schedule, model=None):
    """The scenario interpolation_sweep runs at (eta, seed), built on its own."""
    model = model or random_model(dims, "interpolated", seed, eta=eta)
    pointer = PointerObservable.from_operator(model.h_apparatus)
    return Scenario((f"interp-eta{eta:g}-seed{seed}",), model, Preparation.eigenbasis(0, 0),
                    pointer, schedule, None, (seed,), (eta,))


@settings(max_examples=12, deadline=None)
@given(
    st.tuples(st.integers(2, 4), st.integers(2, 4)),
    st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
    st.integers(2, 6),
    st.integers(1, 60),
)
def test_sweep_rows_equal_one_scenario_runs(dims, etas, seeds, n_repeats, n_trials):
    schedule = Schedule(n_repeats=n_repeats, n_trials=n_trials)
    rows = interpolation_sweep(dims, etas, seeds, schedule)
    assert len(rows) == len(etas) * len(seeds)
    for (eta, seed), row in zip(product(etas, seeds), rows):
        assert row == run_scenario(interp_scenario(dims, eta, seed, schedule))


def test_failure_names_the_failing_point(monkeypatch):
    etas, seeds = [0.0, 0.5, 1.0], [3, 4, 5]
    bad = random_model((2, 2), "interpolated", 5, eta=0.5).spectrum.eigenvalues
    phases = SpectralDecomposition.phases

    def poisoned(self, t):
        # the phases exp(-i E t) of point (0.5, 5), in the batch and run alone
        u = phases(self, t)
        hit = (self.eigenvalues == bad).all(axis=-1)
        if hit.any():
            u = u.copy()
            u[hit] = np.nan
        return u

    monkeypatch.setattr(SpectralDecomposition, "phases", poisoned)
    with pytest.raises(RuntimeError, match=r"^scenario 'interp-eta0\.5-seed5' failed: .*not finite"):
        interpolation_sweep((2, 2), etas, seeds, SMALL)


def test_failure_without_an_index_is_found_one_point_at_a_time(monkeypatch):
    etas, seeds = [0.0, 0.5, 1.0], [3, 4, 5]
    bad = random_model((2, 2), "interpolated", 5, eta=0.5).h_coupling.matrix
    check_conditions = qndsim.scenarios.check_conditions

    def failing(m):
        if any(np.array_equal(h, bad) for h in m.h_coupling.matrix.reshape(-1, 4, 4)):
            raise np.linalg.LinAlgError("no point index")
        return check_conditions(m)

    monkeypatch.setattr(qndsim.scenarios, "check_conditions", failing)
    with pytest.raises(RuntimeError, match=r"^scenario 'interp-eta0\.5-seed5' failed: no point index"):
        interpolation_sweep((2, 2), etas, seeds, SMALL)


def test_failure_of_the_batch_alone_names_its_range(monkeypatch):
    check_conditions = qndsim.scenarios.check_conditions

    def failing(m):
        if m.batch and m.batch[0] > 1:
            raise ValueError("the stack as a whole")
        return check_conditions(m)

    monkeypatch.setattr(qndsim.scenarios, "check_conditions", failing)
    with pytest.raises(RuntimeError, match=r"^scenarios 'interp-eta0-seed3' to "
                                           r"'interp-eta1-seed4' failed as one batch: the stack"):
        interpolation_sweep((2, 2), [0.0, 1.0], [3, 4], SMALL)


def test_seeds_with_other_pointer_groups_run_apart(monkeypatch):
    dims, etas, seeds = (2, 3), [0.0, 0.5], [0, 1, 2]
    draws = model_draws(dims, seeds)
    h_m = draws.h_apparatus.copy()
    h_m[1] = np.diag([1.0, 1.0, -1.0])  # seed 1's pointer has two outcomes, not three
    basis = spectral(h_m)  # the draws carry h_M's spectra along with it
    draws = draws._replace(h_apparatus=h_m, apparatus_basis=basis)
    rows_of = {seed: j for j, seed in enumerate(seeds)}

    def rows(chunk):
        k = [rows_of[seed] for seed in chunk]
        return ModelDraws(*(a[k] for a in draws[:-2]), *(SpectralDecomposition(
            b.eigenvalues[k], b.eigenvectors[k]) for b in draws[-2:]))

    monkeypatch.setattr(qndsim.scenarios, "model_draws", lambda _, chunk: rows(chunk))
    rows = interpolation_sweep(dims, etas, seeds, SMALL)
    for (eta, seed), row in zip(product(etas, seeds), rows):
        j = seeds.index(seed)
        hc = (1.0 - eta) * draws.hc_qnd[j] + eta * draws.hc_violating[j]
        m = BipartiteModel(*dims, HermitianOperator(draws.h_system[j]),
                           HermitianOperator(h_m[j]), HermitianOperator(hc))
        assert row == run_scenario(interp_scenario(dims, eta, seed, SMALL, m))


@pytest.mark.parametrize("points", [1, 3, 5])
def test_batches_split_to_bound_memory_give_the_same_rows(monkeypatch, points):
    etas = [0.0, 0.5, 1.0]
    whole = interpolation_sweep((3, 3), etas, range(4), SMALL)
    monkeypatch.setattr(qndsim.scenarios, "BATCH_BYTES", points * _point_bytes((3, 3), SMALL))
    assert interpolation_sweep((3, 3), etas, range(4), SMALL) == whole


def test_sweep_of_large_points_holds_about_one_point():
    many_trials = Schedule(n_repeats=5, n_trials=200_000)
    assert _point_bytes((2, 2), many_trials) > qndsim.scenarios.BATCH_BYTES

    def peak(etas, seeds):
        tracemalloc.start()
        try:
            interpolation_sweep((2, 2), etas, seeds, many_trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak([0.5], [0])
    assert peak(np.linspace(0.0, 1.0, 12).tolist(), [0, 1]) < 1.5 * one


def test_stacked_spectra_equal_one_matrix_calls():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    h = (g + g.conj().swapaxes(1, 2)) / 2
    h[2] = np.diag([1.0, 1.0, 2.0, 2.0])  # degenerate groups get the Gram-Schmidt basis
    stack = spectral(h)
    for n in range(len(h)):
        one = spectral(h[n])
        assert np.array_equal(stack.eigenvalues[n], one.eigenvalues)
        assert np.array_equal(stack.eigenvectors[n], one.eigenvectors)


def test_batched_inversion_equals_each_row():
    rng = np.random.default_rng(4)
    p = rng.random((5, 4))
    p[1, 3] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random((5, 30))
    u[1, 0] = np.nextafter(1.0, 0.0)  # past the rounded total: the last p > 0
    got = invert_cdf(p, u)
    for n in range(len(p)):
        assert np.array_equal(got[n], invert_cdf(p[n], u[n]))
        assert got[n].tolist() == [int(invert_cdf(p[n], x)) for x in u[n]]


def test_one_draw_stream_one_born_weight_and_no_unused_collapse(monkeypatch):
    calls = {"trial_rng": 0, "ket_distribution": 0, "_collapse_kets": 0}

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(qndsim.scenarios, "trial_rng")
    count(qndsim.scenarios, "ket_distribution")
    count(qndsim.measurement, "ket_distribution")
    count(qndsim.measurement, "_collapse_kets")
    n_repeats = 5
    measure_batch(interp_scenario((2, 2), 1.0, 7, Schedule(n_repeats=n_repeats, n_trials=20)))
    assert calls == {"trial_rng": 1, "ket_distribution": n_repeats,
                     "_collapse_kets": n_repeats - 1}


def test_one_draw_stream_per_seed(monkeypatch):
    calls, original = [], qndsim.scenarios.trial_rng
    monkeypatch.setattr(qndsim.scenarios, "trial_rng",
                        lambda seed: calls.append(seed) or original(seed))
    assert cli_main(["sweep", "--dims", "4,4", "--seeds", "1:5", "--quiet"]) == 0
    assert calls == [1, 2, 3, 4]  # 20 points, 5 eta points per seed


@pytest.mark.parametrize("dims, pointer_values", [
    ((2, 2), None), ((3, 2), None), ((2, 4), [-1.0, 0.5, 0.5, 2.0])  # a rank-2 group
])
def test_batched_collapse_equals_joint_space_projection(dims, pointer_values):
    d_s, d_m = dims
    rng = np.random.default_rng(d_s * 10 + d_m)
    g = rng.normal(size=(6, d_s * d_m, d_s * d_m, 2)) @ [1, 1j]
    w = g @ g.conj().swapaxes(1, 2)
    w = DensityOperator(w / np.trace(w, axis1=1, axis2=2).real[:, None, None])
    h = rng.normal(size=(6, d_m, d_m, 2)) @ [1, 1j]
    h = h + h.conj().swapaxes(1, 2)
    if pointer_values is not None:  # the same spectrum in a random basis per point
        q = np.linalg.qr(h)[0]
        h = (q * pointer_values) @ q.conj().swapaxes(1, 2)
    pointer = PointerObservable.from_operator(HermitianOperator(h))
    lam = rng.integers(len(pointer.starts), size=6)
    got = collapse_after_outcome(w, pointer, lam, dims)
    for n in range(6):
        lift = tensor(np.eye(d_s), pointer.projectors[n, lam[n]])
        projected = lift @ w.matrix[n] @ lift
        want = projected / np.trace(projected).real
        assert np.abs(got[n] - want).max() <= 1e-14


def _ket_stages(m, prep, pointer, lam, u):
    """Each ket stage of the pipeline on one model or a batch, in order: the
    prepared ensemble, its coordinates in H's eigenbasis, the kets at tau, their
    Born weights, a collapse onto group lam, the repeats and the constancy L."""
    dims = (m.d_system, m.d_apparatus)
    q, phi = prepare_kets(m, prep, pointer_basis=pointer.basis)
    _, c = Scenario(("s",), m, prep, pointer, SMALL, None, (0,), (None,)).ensemble
    phi_tau = kets_at(m, c, 0.7)
    p = ket_distribution(q, phi_tau, pointer, dims)
    collapsed = _collapse_kets(q, phi_tau, pointer, lam, dims)
    lams = repeated_outcomes(m, q, phi_tau, p, pointer, 0.4, u)
    constancy = energy_coherence(m, (q[..., None] * c).swapaxes(-1, -2) @ c.conj())
    return [q, phi, c, phi_tau, p, *collapsed, lams, np.asarray(constancy)]


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([(2, 2), (3, 2), (2, 3)]),
    st.lists(st.integers(0, 2**16), min_size=2, max_size=4, unique=True),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_ket_stages_give_each_point_its_one_point_bits(dims, seeds, eta, general, seed):
    models = [random_model(dims, "interpolated", s, eta=eta) for s in seeds]
    batch = BipartiteModel(*dims, *(
        HermitianOperator(np.stack([getattr(m, name).matrix for m in models]))
        for name in ("h_system", "h_apparatus", "h_coupling")))
    rng = np.random.default_rng(seed)
    if general:  # mixed rho and mu: several kets per point
        states = [x @ x.conj().T for x in (rng.normal(size=(d, d, 2)) @ [1, 1j] for d in dims)]
        prep = Preparation.general(*(DensityOperator(w / np.trace(w).real) for w in states))
    else:
        prep = Preparation.eigenbasis(1, 0)
    lam = rng.integers(dims[1], size=len(seeds))
    u = rng.random((len(seeds), 6))
    pointer = PointerObservable.from_operator(batch.h_apparatus)
    got = _ket_stages(batch, prep, pointer, lam, u)
    for n, m in enumerate(models):
        one = _ket_stages(m, prep, PointerObservable.from_operator(m.h_apparatus), lam[n], u[n])
        for k, (a, b) in enumerate(zip(got, one, strict=True)):
            assert a[n].shape == b.shape and a[n].tobytes() == b.tobytes(), k


def test_trial_columns_are_held_once():
    """A 100000-trial point holds its draws, then in their place its trial
    outcomes, trial readings and np.var's one temporary, 8 B per trial each
    (2.4 MB), and builds no record; its two records' columns took it to 3.2 MB."""
    interpolation_sweep((2, 2), [0.5], [3], Schedule(n_trials=10))  # lazy set-up
    tracemalloc.start()
    try:
        (row,) = interpolation_sweep((2, 2), [0.5], [3], Schedule(n_trials=100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7e6
    # constancy_dev is the grid-free L, and sigma_analytic sums the ket route's
    # Born weights, one rounding apart from the density-matrix route's
    assert astuple(row) == (0.5, 3, 0.6761154152012807, 0.592534712959256, 0.6382726182053092, 1,
                            1.6028594743738414, -1.8863701846256207, -1.8929619813579786)


@pytest.mark.parametrize("dims, etas, n_seeds", [
    ((2, 2), [0.5], 721),  # one eta per seed: every point draws its own model
    ((4, 4), DEFAULT_ETA_GRID, None),
    ((8, 8), DEFAULT_ETA_GRID, None),
], ids=["2x2-one-eta-721-seeds", "4x4-full-batch", "8x8-full-batch"])
def test_full_batches_stay_within_the_budget(dims, etas, n_seeds):
    """A batch of BATCH_BYTES // _point_bytes points peaks within BATCH_BYTES;
    None is as many seeds as one batch of the eta grid holds."""
    per_batch = qndsim.scenarios.BATCH_BYTES // _point_bytes(dims, SMALL)
    seeds = range(n_seeds or max(1, per_batch // len(etas)))
    interpolation_sweep(dims, etas, seeds[:1], SMALL)  # lazy set-up
    tracemalloc.start()
    try:
        interpolation_sweep(dims, etas, seeds, SMALL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= qndsim.scenarios.BATCH_BYTES


def test_sweep_builds_no_record(monkeypatch):
    def no_record(self):
        raise AssertionError("a sweep point built a MeasurementRecord")

    monkeypatch.setattr(MeasurementRecord, "__post_init__", no_record)
    assert len(interpolation_sweep((2, 2), [0.0, 1.0], range(3), SMALL)) == 6
