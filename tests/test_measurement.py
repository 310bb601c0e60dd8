import csv
import io
import tracemalloc

import numpy as np
import pytest

from qndsim.linalg import DensityOperator, HermitianOperator, tensor
from qndsim.dynamics import evolve_exact
from qndsim.model import Preparation, prepare_initial, random_model
from qndsim.csvtext import _RECORD_BLOCK
from qndsim.measurement import (
    ImpossibleOutcomeError,
    MeasurementRecord,
    PointerObservable,
    aggregate_sigma,
    collapse_after_outcome,
    dispersion_experiment,
    invert_cdf,
    measurement_trials,
    outcome_changes,
    outcome_distribution,
    outcome_frequencies,
    reading_variance,
    repeat_times,
    repeatability_protocol,
    sample_outcome,
    trial_rng,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)

POINTER_Z = PointerObservable.from_operator(HermitianOperator(SZ))


class FixedRng:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def run_protocol(m, prep, ptr, readings, tau, delta_tau, n_repeats, seed):
    """The repeat protocol from the prepared state evolved to tau."""
    w_tau = evolve_exact(m, prepare_initial(m, prep, pointer_basis=ptr.basis), tau)
    return repeatability_protocol(
        m, w_tau, ptr, readings, prep.system_index, tau, delta_tau, n_repeats, seed
    )


def trial_record(p, readings, system_index, tau, u):
    """One record row per uniform draw at time tau: trial k inverts p at u[k]."""
    return MeasurementRecord(system_index, np.arange(len(u)), tau, invert_cdf(p, u), readings)


def pointer_state(lam):
    v = POINTER_Z.basis.eigenvectors[:, lam]
    return np.outer(v, v.conj())


class TestPointerObservable:
    def test_projectors_complete_and_orthogonal(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ptr = PointerObservable.from_operator(HermitianOperator((g + g.conj().T) / 2))
        total = np.zeros((3, 3), dtype=complex)
        for lam in range(3):
            p = ptr.projectors[lam]
            assert np.allclose(p @ p, p, atol=1e-10)
            for mu in range(lam):
                assert np.allclose(p @ ptr.projectors[mu], 0, atol=1e-10)
            total += p
        assert np.allclose(total, np.eye(3), atol=1e-8)


class TestOutcomeDistribution:
    def test_apparatus_in_pointer_eigenstate(self):
        rho = DensityOperator(np.eye(2) / 2)
        w = DensityOperator(tensor(rho.matrix, pointer_state(0)))
        p = outcome_distribution(w, POINTER_Z, (2, 2))
        assert np.allclose(p, [1.0, 0.0], atol=1e-12)

    def test_maximally_mixed_apparatus(self):
        rho = DensityOperator(np.outer([1, 0], [1, 0]))
        w = DensityOperator(tensor(rho.matrix, np.eye(2) / 2))
        p = outcome_distribution(w, POINTER_Z, (2, 2))
        assert np.allclose(p, [0.5, 0.5])

    def test_entangled_state_hand_trace(self):
        # (|0>|m0> + |1>|m1>) / sqrt(2), system-major joint index
        v0 = POINTER_Z.basis.eigenvectors[:, 0]
        v1 = POINTER_Z.basis.eigenvectors[:, 1]
        psi = (np.kron([1, 0], v0) + np.kron([0, 1], v1)) / np.sqrt(2)
        w = DensityOperator(np.outer(psi, psi.conj()))
        p = outcome_distribution(w, POINTER_Z, (2, 2))
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)

    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            w = DensityOperator(m / np.trace(m).real)
            p = outcome_distribution(w, POINTER_Z, (2, 2))
            assert p.min() >= 0
            assert abs(p.sum() - 1.0) <= 1e-9


class TestSampleOutcome:
    def test_deterministic_distribution(self):
        assert sample_outcome([1.0, 0.0], FixedRng(0.9999)) == 0

    def test_cdf_inversion_boundaries(self):
        assert sample_outcome([0.5, 0.5], FixedRng(0.25)) == 0
        assert sample_outcome([0.5, 0.5], FixedRng(0.75)) == 1
        # strict inversion: u < cum selects, so u exactly at the boundary
        # falls through to the next index
        assert sample_outcome([0.5, 0.5], FixedRng(0.5)) == 1
        # zero-probability bins are skipped deterministically
        assert sample_outcome([0.5, 0.0, 0.5], FixedRng(0.6)) == 2

    def test_draw_past_rounded_total_skips_zero_weight(self):
        p = np.array([0.1] * 10 + [0.0])
        p = p / p.sum()
        assert sum(p) < 1.0  # the cumulative sum rounds below 1
        assert sample_outcome(p, FixedRng(np.nextafter(1.0, 0.0))) == 9

    def test_empirical_frequencies_match(self):
        p = np.array([0.3, 0.7])
        rng = np.random.default_rng(42)
        n = 10**5
        freq = np.bincount(invert_cdf(p, rng.random(n)), minlength=2) / n
        band = 3 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= band)


class TestCollapse:
    def test_already_in_eigenspace(self):
        rho = DensityOperator(np.eye(2) / 2)
        w = DensityOperator(tensor(rho.matrix, pointer_state(0)))
        out = collapse_after_outcome(w, POINTER_Z, 0, (2, 2))
        assert np.allclose(out, w.matrix, atol=1e-12)

    def test_entangled_state_projects_both_factors(self):
        v0 = POINTER_Z.basis.eigenvectors[:, 0]
        v1 = POINTER_Z.basis.eigenvectors[:, 1]
        psi = (np.kron([1, 0], v0) + np.kron([0, 1], v1)) / np.sqrt(2)
        w = DensityOperator(np.outer(psi, psi.conj()))
        out = collapse_after_outcome(w, POINTER_Z, 0, (2, 2))
        expect = tensor(np.diag([1.0, 0.0]), pointer_state(0))
        assert np.allclose(out, expect, atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0)

    def test_degenerate_pointer_projects_onto_eigenspace(self):
        # pointer diag(1, 1, 0) with the apparatus in (e0 + e1)/sqrt(2): reading 1
        # is certain, and the Lüders update onto its eigenspace leaves w as it is
        ptr = PointerObservable.from_operator(HermitianOperator(np.diag([1.0, 1.0, 0.0])))
        w = DensityOperator(tensor(np.diag([1.0, 0.0]), np.outer([1, 1, 0], [1, 1, 0]) / 2))
        assert ptr.values.tolist() == [0.0, 1.0]
        assert outcome_distribution(w, ptr, (2, 3)).tolist() == [0.0, 1.0]
        out = collapse_after_outcome(w, ptr, 1, (2, 3))
        assert np.linalg.norm(out - w.matrix) <= 1e-15
        with pytest.raises(ImpossibleOutcomeError):
            collapse_after_outcome(w, ptr, 0, (2, 3))

    def test_impossible_outcome(self):
        rho = DensityOperator(np.eye(2) / 2)
        w = DensityOperator(tensor(rho.matrix, pointer_state(0)))
        with pytest.raises(ImpossibleOutcomeError):
            collapse_after_outcome(w, POINTER_Z, 1, (2, 2))


class TestRepeatability:
    def test_qnd_models_repeat_identically(self):
        for seed in range(30):
            m = random_model((2, 2), "qnd", seed)
            ptr = PointerObservable.from_operator(m.h_apparatus)
            readings = ptr.values
            rec = run_protocol(
                m, Preparation.eigenbasis(0, 0), ptr, readings, 1.0, 0.5, 5, seed
            )
            assert outcome_changes(rec.lam) == 0
            assert len(rec.lam) == 5

    def test_diagonal_model_trivially_repeats(self):
        from qndsim.model import BipartiteModel

        m = BipartiteModel(
            2, 2,
            HermitianOperator(SZ),
            HermitianOperator(SZ),
            HermitianOperator(np.zeros((4, 4))),
        )
        ptr = PointerObservable.from_operator(m.h_apparatus)
        readings = ptr.values
        rec = run_protocol(
            m, Preparation.eigenbasis(0, 0), ptr, readings, 1.0, 0.5, 4, 0
        )
        assert outcome_changes(rec.lam) == 0

    def test_violating_models_sometimes_flip(self):
        flips = 0
        for seed in range(20):
            m = random_model((2, 2), "violating", seed)
            ptr = PointerObservable.from_operator(m.h_apparatus)
            readings = ptr.values
            rec = run_protocol(
                m, Preparation.eigenbasis(0, 0), ptr, readings, 1.0, 0.5, 5, seed
            )
            flips += outcome_changes(rec.lam)
        assert flips > 0

    def test_rejects_degenerate_protocol(self):
        m = random_model((2, 2), "qnd", 0)
        ptr = PointerObservable.from_operator(m.h_apparatus)
        readings = ptr.values
        with pytest.raises(ValueError):
            run_protocol(
                m, Preparation.eigenbasis(0, 0), ptr, readings, 1.0, 0.5, 1, 0
            )


class TestAggregateSigma:
    def test_symmetric_cancellation(self):
        sigma = aggregate_sigma([0.5, 0.5], [1.0, -1.0])
        assert sigma.shape == () and sigma == pytest.approx(0.0)

    def test_deterministic_pointer(self):
        assert aggregate_sigma([1.0, 0.0], [2.5, -3.0]) == pytest.approx(2.5)

    def test_linearity_in_calibration(self):
        p = [0.3, 0.7]
        s1 = aggregate_sigma(p, [2.0, -1.0])
        s2 = aggregate_sigma(p, [4.0, -2.0])
        assert s2 == pytest.approx(2 * s1)

    def test_empirical_matches_analytic(self):
        p = np.array([0.3, 0.7])
        values = np.array([2.0, -1.0])
        analytic = aggregate_sigma(p, values)
        assert analytic == pytest.approx(-0.1)
        rng = np.random.default_rng(77)
        n = 10**5
        lam = invert_cdf(p, rng.random(n))
        empirical = aggregate_sigma(outcome_frequencies(lam, 2), values)
        assert empirical.shape == ()
        pop_std = np.sqrt(p @ values ** 2 - analytic**2)
        assert abs(empirical - analytic) <= 3 * pop_std / np.sqrt(n)


class TestDispersion:
    def test_qnd_family_is_sharp(self):
        for seed in range(20):
            m = random_model((2, 2), "qnd", seed)
            ptr = PointerObservable.from_operator(m.h_apparatus)
            readings = ptr.values
            v = dispersion_experiment(
                m, Preparation.eigenbasis(0, 0), ptr, readings, 1.0, 50, seed
            )
            assert v == 0.0

    def test_even_split_variance_one(self):
        # stationary model whose apparatus marginal is maximally mixed gives
        # p = (1/2, 1/2); with readings (+1, -1) the population variance is 1
        from qndsim.model import BipartiteModel

        m = BipartiteModel(
            2, 2,
            HermitianOperator(SZ),
            HermitianOperator(np.zeros((2, 2))),
            HermitianOperator(np.zeros((4, 4))),
        )
        ptr = POINTER_Z
        readings = np.array([1.0, -1.0])
        prep = Preparation.general(
            DensityOperator(np.outer([1, 0], [1, 0])), DensityOperator(np.eye(2) / 2)
        )
        n = 10**4
        v = dispersion_experiment(m, prep, ptr, readings, 1.0, n, 5)
        # closed form: sum p c^2 - (sum p c)^2 = 1
        assert v == pytest.approx(1.0, abs=4 / np.sqrt(n))

    def test_single_trial_degenerate(self):
        m = random_model((2, 2), "violating", 3)
        ptr = PointerObservable.from_operator(m.h_apparatus)
        readings = ptr.values
        v = dispersion_experiment(
            m, Preparation.eigenbasis(0, 0), ptr, readings, 1.0, 1, 0
        )
        assert v == 0.0

    @pytest.mark.parametrize("family", ["qnd", "violating"])
    def test_is_variance_of_trial_record(self, family):
        m = random_model((3, 2), family, 4)
        ptr = PointerObservable.from_operator(m.h_apparatus)
        readings = ptr.values
        args = (m, Preparation.eigenbasis(1, 0), ptr, readings, 1.0, 200, 9)
        assert dispersion_experiment(*args) == reading_variance(
            measurement_trials(*args).reading
        )

    def test_trial_seeds_are_order_independent(self):
        # trial k is draw k of the keyed stream, however many draws follow
        assert trial_rng(3).random(6)[5] == trial_rng(3).random(10)[5]
        assert trial_rng(3).random(6)[5] != trial_rng(3).random(7)[6]


class TestDrawTrials:
    def test_first_trials_equal_a_shorter_run(self):
        p = np.array([0.2, 0.0, 0.5, 0.3])
        readings = np.array([1.0, 2.0, 3.0, 4.0])
        long = trial_record(p, readings, None, 1.0, trial_rng(11).random(1000))
        for k in (1, 7, 999):
            short = trial_record(p, readings, None, 1.0, trial_rng(11).random(k))
            assert np.array_equal(long.lam[:k], short.lam)
            assert np.array_equal(long.reading[:k], short.reading)

    def test_chi_square_against_born_weights(self):
        p = np.array([0.5, 0.3, 0.0, 0.15, 0.05])
        readings = np.arange(5.0)
        n = 10**5
        counts = np.bincount(trial_record(p, readings, None, 1.0, trial_rng(2024).random(n)).lam, minlength=5)
        assert counts[2] == 0
        live = p > 0
        chi2 = float(np.sum((counts[live] - n * p[live]) ** 2 / (n * p[live])))
        # 16.27 is the 0.999 quantile of chi-square with 3 degrees of freedom
        assert chi2 < 16.27

    def test_repeat_protocol_shares_the_first_draw_with_trial_0(self):
        for seed in range(10):
            m = random_model((2, 2), "violating", seed)
            ptr = PointerObservable.from_operator(m.h_apparatus)
            readings = ptr.values
            prep = Preparation.eigenbasis(0, 0)
            rep = run_protocol(m, prep, ptr, readings, 1.0, 0.5, 3, seed)
            trials = measurement_trials(m, prep, ptr, readings, 1.0, 5, seed)
            assert rep.lam[0] == trials.lam[0]
            assert rep.trial.shape == () and rep.trial == 0
            assert rep.time.tolist() == [1.0, 1.5, 2.0]


class TestRecordCsv:
    def test_columns_must_share_one_length(self):
        with pytest.raises(ValueError):
            MeasurementRecord(None, trial=[0, 1], time=[1.0], lam=[0, 1], readings=[1.0, -1.0])
        with pytest.raises(ValueError):
            MeasurementRecord(None, trial=[0, 1], time=1.0, lam=[0, 0], readings=1.0)
        with pytest.raises(ValueError):
            MeasurementRecord(None, trial=[0, 1], time=1.0, lam=[0, 0], readings=[[1.0]])

    @pytest.mark.parametrize("lam", [[0, -1], [2, 0], [-2**63, 0], [2**63 - 1]])
    def test_lam_must_index_readings(self, lam):
        with pytest.raises(ValueError, match="lam must index readings"):
            MeasurementRecord(None, trial=0, time=1.0, lam=lam, readings=[1.0, -1.0])

    def test_reading_is_the_group_entry_of_readings(self):
        rec = MeasurementRecord(None, trial=0, time=1.0, lam=[1, 0, 1], readings=[-0.0, 0.0])
        assert rec.reading.tolist() == [0.0, -0.0, 0.0]
        assert np.signbit(rec.reading).tolist() == [False, True, False]

    def test_header_and_absent_index(self, tmp_path):
        rec = MeasurementRecord(None, trial=[0, 1], time=1.0, lam=[1, 0], readings=[1.0, -1.0])
        path = tmp_path / "rec.csv"
        with open(path, "w", newline="\n") as fh:
            rec.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,time,i,lambda,reading"
        assert lines[1].startswith("0,1,,1,")
        assert lines[2].startswith("1,1,,0,")

    def test_trial_record_holds_one_time(self):
        rec = trial_record([0.5, 0.5], np.array([1.0, -1.0]), 1, 0.25, trial_rng(5).random(100))
        assert rec.system_index == 1
        assert rec.time.shape == () and rec.time == 0.25
        for column in (rec.trial, rec.time, rec.lam, rec.readings):
            assert not column.flags.writeable

    def test_columns_copy_the_caller_arrays(self):
        one_time = np.array(2.0)
        columns = {"trial": np.arange(3), "time": one_time,
                   "lam": np.zeros(3, dtype=int), "readings": np.ones(2)}
        rec = MeasurementRecord(None, **columns)
        one_time[()] = columns["readings"][0] = 5.0
        columns["lam"][0] = 1
        assert rec.time == 2.0 and rec.reading.tolist() == [1.0] * 3
        assert rec.lam.tolist() == [0] * 3
        assert one_time.flags.writeable and columns["readings"].flags.writeable

    def test_read_only_columns_are_copied_too(self):
        lam = np.zeros(3, dtype=int)
        lam.setflags(write=False)
        rec = MeasurementRecord(None, trial=0, time=1.0, lam=lam, readings=[1.0])
        assert not np.shares_memory(rec.lam, lam)

    @pytest.mark.parametrize("system_index, repeat", [(None, False), (1, False), (1, True)],
                             ids=["no-index", "index", "repeat"])
    def test_matches_csv_writer_rendering(self, system_index, repeat):
        table = np.array([[0.5, -1.25, 1 / 3], [2e-17, -7.0, np.pi]])
        values = np.array([1 / 7, -2.0, 1e300])
        readings = values if system_index is None else table[system_index]
        tau = 0.1 + 0.2  # 0.30000000000000004 needs all 17 digits
        p, u = [0.2, 0.5, 0.3], trial_rng(3).random(500)
        if repeat:  # one trial, 0, and a time per row
            times = repeat_times(tau, 1 / 3, len(u)).tolist()
            rec = MeasurementRecord(system_index, 0, times, invert_cdf(p, u), readings)
            trials = [0] * len(u)
        else:  # one time, tau, and a trial per row
            rec = trial_record(p, readings, system_index, tau, u)
            times, trials = [tau] * len(u), range(len(u))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["trial", "time", "i", "lambda", "reading"])
        for trial, time, lam in zip(trials, times, rec.lam.tolist(), strict=True):
            if system_index is None:
                i, c = "", values[lam]
            else:
                i, c = system_index, table[system_index, lam]
            writer.writerow([trial, f"{time:.17g}", i, lam, f"{c:.17g}"])
        got = io.StringIO()
        rec.write_csv(got)
        assert got.getvalue() == want.getvalue()


def test_record_writer_memory_is_flat(tmp_path):
    # The benchmark's Born distribution over 200000 trials.  The writer lays
    # out and writes a block of rows at a time, so its peak is one block's
    # temporaries, about 100 B a row, not the file's 3.1 MB.
    rec = trial_record([0.876, 0.124], np.array([-1.0, 1.0]), 0, 1.0,
                      trial_rng(1).random(200_000))
    path = tmp_path / "records.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        tracemalloc.start()
        try:
            rec.write_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 128 * _RECORD_BLOCK
    assert len(path.read_bytes().splitlines()) == 200_001
