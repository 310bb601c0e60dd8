import csv
import io

import numpy as np
import pytest

from qndsim.linalg import DensityOperator, HermitianOperator, tensor
from qndsim.dynamics import evolve_exact
from qndsim.model import Preparation, prepare_initial, random_model
from qndsim.measurement import (
    Calibration,
    NO_INDEX,
    ImpossibleOutcomeError,
    MeasurementRecord,
    PointerObservable,
    aggregate_sigma,
    collapse_after_outcome,
    dispersion_experiment,
    draw_trials,
    measurement_trials,
    outcome_distribution,
    reading_variance,
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


def run_protocol(m, prep, ptr, cal, tau, delta_tau, n_repeats, seed):
    """The repeat protocol from the prepared state evolved to tau."""
    w_tau = evolve_exact(m, prepare_initial(m, prep, pointer_basis=ptr.basis), tau)
    return repeatability_protocol(
        m, w_tau, ptr, cal, prep.system_index, tau, delta_tau, n_repeats, seed
    )


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
        rho = DensityOperator.maximally_mixed(2)
        w = DensityOperator(tensor(rho.matrix, pointer_state(0)))
        p = outcome_distribution(w, POINTER_Z, (2, 2))
        assert np.allclose(p, [1.0, 0.0], atol=1e-12)

    def test_maximally_mixed_apparatus(self):
        rho = DensityOperator.pure([1, 0])
        w = DensityOperator(tensor(rho.matrix, np.eye(2) / 2))
        p = outcome_distribution(w, POINTER_Z, (2, 2))
        assert np.allclose(p, [0.5, 0.5])

    def test_entangled_state_hand_trace(self):
        # (|0>|m0> + |1>|m1>) / sqrt(2), system-major joint index
        v0 = POINTER_Z.basis.eigenvectors[:, 0]
        v1 = POINTER_Z.basis.eigenvectors[:, 1]
        psi = (np.kron([1, 0], v0) + np.kron([0, 1], v1)) / np.sqrt(2)
        w = DensityOperator.pure(psi)
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
        counts = np.zeros(2)
        for _ in range(n):
            counts[sample_outcome(p, rng)] += 1
        freq = counts / n
        band = 3 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= band)


class TestCollapse:
    def test_already_in_eigenspace(self):
        rho = DensityOperator.maximally_mixed(2)
        w = DensityOperator(tensor(rho.matrix, pointer_state(0)))
        out = collapse_after_outcome(w, POINTER_Z, 0, (2, 2))
        assert np.allclose(out.matrix, w.matrix, atol=1e-12)

    def test_entangled_state_projects_both_factors(self):
        v0 = POINTER_Z.basis.eigenvectors[:, 0]
        v1 = POINTER_Z.basis.eigenvectors[:, 1]
        psi = (np.kron([1, 0], v0) + np.kron([0, 1], v1)) / np.sqrt(2)
        w = DensityOperator.pure(psi)
        out = collapse_after_outcome(w, POINTER_Z, 0, (2, 2))
        expect = tensor(np.diag([1.0, 0.0]), pointer_state(0))
        assert np.allclose(out.matrix, expect, atol=1e-12)
        assert np.trace(out.matrix).real == pytest.approx(1.0)

    def test_degenerate_pointer_projects_onto_eigenspace(self):
        # pointer diag(1, 1, 0) with the apparatus in (e0 + e1)/sqrt(2): reading 1
        # is certain, and the Lüders update onto its eigenspace leaves w as it is
        ptr = PointerObservable.from_operator(HermitianOperator(np.diag([1.0, 1.0, 0.0])))
        w = DensityOperator(tensor(np.diag([1.0, 0.0]), DensityOperator.pure([1, 1, 0]).matrix))
        assert ptr.values.tolist() == [0.0, 1.0]
        assert outcome_distribution(w, ptr, (2, 3)).tolist() == [0.0, 1.0]
        out = collapse_after_outcome(w, ptr, 1, (2, 3))
        assert np.linalg.norm(out.matrix - w.matrix) <= 1e-15
        with pytest.raises(ImpossibleOutcomeError):
            collapse_after_outcome(w, ptr, 0, (2, 3))

    def test_impossible_outcome(self):
        rho = DensityOperator.maximally_mixed(2)
        w = DensityOperator(tensor(rho.matrix, pointer_state(0)))
        with pytest.raises(ImpossibleOutcomeError):
            collapse_after_outcome(w, POINTER_Z, 1, (2, 2))


class TestRepeatability:
    def test_qnd_models_repeat_identically(self):
        for seed in range(30):
            m = random_model((2, 2), "qnd", seed)
            ptr = PointerObservable.from_operator(m.h_apparatus)
            cal = Calibration.from_pointer(ptr)
            rec = run_protocol(
                m, Preparation.eigenbasis(0, 0), ptr, cal, 1.0, 0.5, 5, seed
            )
            assert rec.outcome_changes() == 0
            assert len(rec.lam) == 5

    def test_diagonal_model_trivially_repeats(self):
        from qndsim.model import BipartiteModel

        m = BipartiteModel(
            2, 2,
            HermitianOperator(SZ),
            HermitianOperator(SZ),
            HermitianOperator.zero(4),
        )
        ptr = PointerObservable.from_operator(m.h_apparatus)
        cal = Calibration.from_pointer(ptr)
        rec = run_protocol(
            m, Preparation.eigenbasis(0, 0), ptr, cal, 1.0, 0.5, 4, 0
        )
        assert rec.outcome_changes() == 0

    def test_violating_models_sometimes_flip(self):
        flips = 0
        for seed in range(20):
            m = random_model((2, 2), "violating", seed)
            ptr = PointerObservable.from_operator(m.h_apparatus)
            cal = Calibration.from_pointer(ptr)
            rec = run_protocol(
                m, Preparation.eigenbasis(0, 0), ptr, cal, 1.0, 0.5, 5, seed
            )
            flips += rec.outcome_changes()
        assert flips > 0

    def test_rejects_degenerate_protocol(self):
        m = random_model((2, 2), "qnd", 0)
        ptr = PointerObservable.from_operator(m.h_apparatus)
        cal = Calibration.from_pointer(ptr)
        with pytest.raises(ValueError):
            run_protocol(
                m, Preparation.eigenbasis(0, 0), ptr, cal, 1.0, 0.5, 1, 0
            )


class TestAggregateSigma:
    def test_symmetric_cancellation(self):
        cal = Calibration(pointer_values=[1.0, -1.0])
        stats = aggregate_sigma(cal, 0, distribution=[0.5, 0.5])
        assert stats.sigma == pytest.approx(0.0)

    def test_deterministic_pointer(self):
        cal = Calibration(pointer_values=[2.5, -3.0])
        stats = aggregate_sigma(cal, None, distribution=[1.0, 0.0])
        assert stats.sigma == pytest.approx(2.5)

    def test_linearity_in_calibration(self):
        p = [0.3, 0.7]
        c1 = Calibration(pointer_values=[2.0, -1.0])
        c2 = Calibration(pointer_values=[4.0, -2.0])
        s1 = aggregate_sigma(c1, None, distribution=p).sigma
        s2 = aggregate_sigma(c2, None, distribution=p).sigma
        assert s2 == pytest.approx(2 * s1)

    def test_empirical_matches_analytic(self):
        p = np.array([0.3, 0.7])
        cal = Calibration(pointer_values=[2.0, -1.0])
        analytic = aggregate_sigma(cal, None, distribution=p).sigma
        assert analytic == pytest.approx(-0.1)
        rng = np.random.default_rng(77)
        n = 10**5
        lam = [sample_outcome(p, rng) for _ in range(n)]
        rec = MeasurementRecord.from_outcomes(cal, None, np.arange(n), 1.0, lam)
        empirical = aggregate_sigma(cal, None, record=rec).sigma
        pop_std = np.sqrt(p @ np.array([2.0, -1.0]) ** 2 - analytic**2)
        assert abs(empirical - analytic) <= 3 * pop_std / np.sqrt(n)

    def test_empty_record_rejected(self):
        cal = Calibration(pointer_values=[1.0, -1.0])
        empty = MeasurementRecord.from_outcomes(cal, None, [], [], [])
        with pytest.raises(ValueError):
            aggregate_sigma(cal, None, record=empty)


class TestDispersion:
    def test_qnd_family_is_sharp(self):
        for seed in range(20):
            m = random_model((2, 2), "qnd", seed)
            ptr = PointerObservable.from_operator(m.h_apparatus)
            cal = Calibration.from_pointer(ptr)
            v = dispersion_experiment(
                m, Preparation.eigenbasis(0, 0), ptr, cal, 1.0, 50, seed
            )
            assert v == 0.0

    def test_even_split_variance_one(self):
        # stationary model whose apparatus marginal is maximally mixed gives
        # p = (1/2, 1/2); with readings (+1, -1) the population variance is 1
        from qndsim.model import BipartiteModel

        m = BipartiteModel(
            2, 2,
            HermitianOperator(SZ),
            HermitianOperator.zero(2),
            HermitianOperator.zero(4),
        )
        ptr = POINTER_Z
        cal = Calibration(pointer_values=[1.0, -1.0])
        prep = Preparation.general(
            DensityOperator.pure([1, 0]), DensityOperator.maximally_mixed(2)
        )
        n = 10**4
        v = dispersion_experiment(m, prep, ptr, cal, 1.0, n, 5)
        # closed form: sum p c^2 - (sum p c)^2 = 1
        assert v == pytest.approx(1.0, abs=4 / np.sqrt(n))

    def test_single_trial_degenerate(self):
        m = random_model((2, 2), "violating", 3)
        ptr = PointerObservable.from_operator(m.h_apparatus)
        cal = Calibration.from_pointer(ptr)
        v = dispersion_experiment(
            m, Preparation.eigenbasis(0, 0), ptr, cal, 1.0, 1, 0
        )
        assert v == 0.0

    @pytest.mark.parametrize("family", ["qnd", "violating"])
    def test_is_variance_of_trial_record(self, family):
        m = random_model((3, 2), family, 4)
        ptr = PointerObservable.from_operator(m.h_apparatus)
        cal = Calibration.from_pointer(ptr)
        args = (m, Preparation.eigenbasis(1, 0), ptr, cal, 1.0, 200, 9)
        assert dispersion_experiment(*args) == reading_variance(
            measurement_trials(*args)
        )

    def test_trial_seeds_are_order_independent(self):
        # trial k is draw k of the keyed stream, however many draws follow
        assert trial_rng(3).random(6)[5] == trial_rng(3).random(10)[5]
        assert trial_rng(3).random(6)[5] != trial_rng(3).random(7)[6]


class TestDrawTrials:
    def test_first_trials_equal_a_shorter_run(self):
        p = np.array([0.2, 0.0, 0.5, 0.3])
        cal = Calibration(pointer_values=[1.0, 2.0, 3.0, 4.0])
        long = draw_trials(p, cal, None, 1.0, 1000, 11)
        for k in (1, 7, 999):
            short = draw_trials(p, cal, None, 1.0, k, 11)
            assert np.array_equal(long.lam[:k], short.lam)
            assert np.array_equal(long.reading[:k], short.reading)

    def test_chi_square_against_born_weights(self):
        p = np.array([0.5, 0.3, 0.0, 0.15, 0.05])
        cal = Calibration(pointer_values=np.arange(5.0))
        n = 10**5
        counts = np.bincount(draw_trials(p, cal, None, 1.0, n, 2024).lam, minlength=5)
        assert counts[2] == 0
        live = p > 0
        chi2 = float(np.sum((counts[live] - n * p[live]) ** 2 / (n * p[live])))
        # 16.27 is the 0.999 quantile of chi-square with 3 degrees of freedom
        assert chi2 < 16.27

    def test_repeat_protocol_shares_the_first_draw_with_trial_0(self):
        for seed in range(10):
            m = random_model((2, 2), "violating", seed)
            ptr = PointerObservable.from_operator(m.h_apparatus)
            cal = Calibration.from_pointer(ptr)
            prep = Preparation.eigenbasis(0, 0)
            rep = run_protocol(m, prep, ptr, cal, 1.0, 0.5, 3, seed)
            trials = measurement_trials(m, prep, ptr, cal, 1.0, 5, seed)
            assert rep.lam[0] == trials.lam[0]
            assert rep.trial.tolist() == [0, 0, 0]


class TestRecordCsv:
    def test_columns_must_share_one_length(self):
        with pytest.raises(ValueError):
            MeasurementRecord(
                trial=[0, 1], time=[1.0], i=[0, 0], lam=[0, 1], reading=[1.0, -1.0]
            )

    def test_header_and_absent_index(self, tmp_path):
        rec = MeasurementRecord(
            trial=[0, 1], time=[1.0, 1.0], i=[NO_INDEX, 2], lam=[1, 0], reading=[-1.0, 1.0]
        )
        path = tmp_path / "rec.csv"
        with open(path, "w", newline="\n") as fh:
            rec.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,time,i,lambda,reading"
        assert lines[1].startswith("0,1,,1,")
        assert lines[2].startswith("1,1,2,0,")

    @pytest.mark.parametrize("system_index", [None, 1], ids=["no-index", "index"])
    def test_matches_csv_writer_rendering(self, system_index):
        table = np.array([[0.5, -1.25, 1 / 3], [2e-17, -7.0, np.pi]])
        cal = Calibration([1 / 7, -2.0, 1e300], table)
        tau = 0.1 + 0.2  # 0.30000000000000004 needs all 17 digits
        rec = draw_trials([0.2, 0.5, 0.3], cal, system_index, tau, 500, 3)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["trial", "time", "i", "lambda", "reading"])
        for trial, lam in enumerate(rec.lam.tolist()):
            if system_index is None:
                i, c = "", cal.pointer_values[lam]
            else:
                i, c = system_index, table[system_index, lam]
            writer.writerow([trial, f"{tau:.17g}", i, lam, f"{c:.17g}"])
        got = io.StringIO()
        rec.write_csv(got)
        assert got.getvalue() == want.getvalue()
