import json

import numpy as np
import pytest

from qndsim.cli import main
from qndsim.linalg import DensityOperator, HermitianOperator, spectral
from qndsim.model import (
    BipartiteModel,
    Preparation,
    check_conditions,
    drawn_model,
    model_draws,
    prepare_initial,
    random_model,
    total_hamiltonian,
)
from qndsim.scenario_io import bundled_scenario_path

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


ZERO4 = np.zeros((4, 4), dtype=complex)


class TestTotalHamiltonian:
    def test_all_zero(self):
        m = qubit_model(np.zeros((2, 2)), np.zeros((2, 2)), ZERO4)
        assert np.allclose(total_hamiltonian(m).matrix, 0)

    def test_system_only(self):
        m = qubit_model(SZ, np.zeros((2, 2)), ZERO4)
        assert np.allclose(total_hamiltonian(m).matrix, np.diag([1, 1, -1, -1]))

    def test_all_diagonal_sum(self):
        m = qubit_model(SZ, SZ, np.kron(SZ, SZ))
        # per system-major entry: 1+1+1, 1-1-1, -1+1-1, -1-1+1
        assert np.allclose(total_hamiltonian(m).matrix, np.diag([3, -1, -1, -1]))

    def test_linearity_in_coupling(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hc = (g + g.conj().T) / 2
        m1 = qubit_model(SZ, SX, hc)
        m2 = qubit_model(SZ, SX, 2 * hc)
        base = qubit_model(SZ, SX, ZERO4)
        assert np.allclose(
            total_hamiltonian(m2).matrix - total_hamiltonian(base).matrix,
            2 * (total_hamiltonian(m1).matrix - total_hamiltonian(base).matrix),
        )


class TestCheckConditions:
    def test_null_coupling_both_hold(self):
        m = qubit_model(SZ, SZ, ZERO4)
        r = check_conditions(m)
        assert r.eq4_defect == 0.0 and r.eq5_defect == 0.0
        assert r.eq4_holds and r.eq5_holds

    def test_all_diagonal_holds(self):
        m = qubit_model(SZ, SZ, np.kron(SZ, SZ))
        r = check_conditions(m)
        assert r.both_hold

    def test_transverse_coupling_fails(self):
        m = qubit_model(SZ, SZ, np.kron(SX, SX))
        r = check_conditions(m)
        assert not r.eq4_holds and not r.eq5_holds
        assert r.eq4_defect > 0.1 and r.eq5_defect > 0.1

    def test_scaling_covariance(self):
        m = qubit_model(SZ, SZ, np.kron(SX, SX))
        m2 = qubit_model(SZ, SZ, 3.0 * np.kron(SX, SX))
        r, r2 = check_conditions(m), check_conditions(m2)
        assert r2.eq4_defect <= 3.0 * r.eq4_defect + 1e-12


class TestPrepareInitial:
    def test_eigenbasis_preparation_is_rank_one(self):
        m = qubit_model(SZ, SZ, ZERO4)
        w = prepare_initial(m, Preparation.eigenbasis(0, 0))
        vals = np.linalg.eigvalsh(w.matrix)
        assert np.allclose(sorted(vals), [0, 0, 0, 1], atol=1e-12)
        # index 0 of sz's ascending eigenbasis is eigenvalue -1, i.e. |1>
        expect = np.zeros((4, 4))
        expect[3, 3] = 1.0
        assert np.allclose(w.matrix, expect, atol=1e-12)

    def test_general_maximally_mixed(self):
        m = qubit_model(SZ, SZ, ZERO4)
        prep = Preparation.general(
            DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(2) / 2)
        )
        assert np.allclose(prepare_initial(m, prep).matrix, np.eye(4) / 4)

    def test_trace_is_one(self):
        m = qubit_model(SZ, SX, np.kron(SZ, SX))
        for prep in (
            Preparation.eigenbasis(1, 0),
            Preparation.general(
                DensityOperator(np.eye(2) / 2), DensityOperator(np.outer([1, 0], [1, 0]))
            ),
        ):
            w = prepare_initial(m, prep)
            assert np.trace(w.matrix).real == pytest.approx(1.0)

    def test_out_of_range_index_rejected(self):
        m = qubit_model(SZ, SZ, ZERO4)
        with pytest.raises(IndexError):
            prepare_initial(m, Preparation.eigenbasis(2, 0))
        with pytest.raises(IndexError):
            prepare_initial(m, Preparation.eigenbasis(0, -1))

    def test_preparation_needs_exactly_one_form(self):
        with pytest.raises(ValueError):
            Preparation(system_index=0)


class TestRandomModel:
    def test_qnd_family_satisfies_conditions(self):
        for seed in range(100):
            r = check_conditions(random_model((2, 2), "qnd", seed))
            assert r.eq4_defect <= 1e-10 and r.eq5_defect <= 1e-10

    def test_qnd_family_nonsquare(self):
        for seed in range(20):
            r = check_conditions(random_model((3, 2), "qnd", seed))
            assert r.both_hold

    def test_interpolated_zero_equals_qnd_draw(self):
        """qnd is the eta = 0 endpoint and violating the eta = 1 one: either way
        every operator carries the seed's draws bit for bit."""
        for dims in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)]:
            for seed in range(4):
                draws = model_draws(dims, [seed])
                for family, eta, hc in [("qnd", 0.0, draws.hc_qnd[0]),
                                        ("violating", 1.0, draws.hc_violating[0])]:
                    for m in (random_model(dims, family, seed),
                              random_model(dims, "interpolated", seed, eta=eta)):
                        assert np.array_equal(m.h_coupling.matrix, hc)
                        assert np.array_equal(m.h_system.matrix, draws.h_system[0])
                        assert np.array_equal(m.h_apparatus.matrix, draws.h_apparatus[0])

    def test_violating_family_has_positive_defect(self):
        for seed in range(20):
            r = check_conditions(random_model((2, 2), "violating", seed))
            assert r.eq4_defect > 1e-3

    def test_deterministic_per_seed(self):
        a = random_model((2, 3), "violating", 9)
        b = random_model((2, 3), "violating", 9)
        assert np.array_equal(a.h_coupling.matrix, b.h_coupling.matrix)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            random_model((1, 2), "qnd", 0)
        with pytest.raises(ValueError):
            random_model((2, 2), "interpolated", 0, eta=1.5)
        with pytest.raises(ValueError):
            random_model((2, 2), "nope", 0)


class TestCompiledOnce:
    """A model holds one copy of each operator, and a CLI run decomposes each
    Hermitian matrix once: a drawn model takes h_S's and h_M's spectra from
    its draws, and the default pointer and the preparation read them."""

    FAMILY = {  # the benchmark's evolve scenario: no pointer, so h_M's basis is the default
        "schema": 1, "name": "family",
        "model": {"dims": [3, 2], "family": "violating", "seed": 1},
        "preparation": {"system_index": 0, "apparatus_index": 0},
        "schedule": {"tau": 1.0, "delta_tau": 0.5, "n_repeats": 5, "n_trials": 200},
    }

    @pytest.mark.parametrize("argv, calls", [
        (["sweep", "--dims", "4,4", "--seeds", "1:5"], 3),  # h_S, h_M stacks; one batch's H
        (["evolve", "FAMILY", "--t-end", "0.5", "--dt", "0.1"], 3),  # h_S, h_M, H
        # h_S, h_M, H: the stepped path applies RK4's step polynomial in H's eigenbasis
        (["evolve", "FAMILY", "--stepped", "--t-end", "0.5", "--dt", "0.01"], 3),
        (["measure", str(bundled_scenario_path("qubit-violating"))], 3),  # h_S, h_M, H
    ], ids=["sweep", "evolve-exact", "evolve-stepped", "measure"])
    def test_eigh_calls_per_cli_run(self, argv, calls, tmp_path, monkeypatch):
        family = tmp_path / "family.json"
        family.write_text(json.dumps(self.FAMILY), encoding="utf-8")
        argv = [str(family) if a == "FAMILY" else a for a in argv]
        eigh, seen = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.shape) or eigh(a))
        assert main([*argv, "--out", str(tmp_path / "out.csv"), "--quiet"]) == 0
        assert len(seen) == calls, seen

    def test_no_stacked_terms(self):
        """The model keeps no lifted operator: once H's spectrum and both
        conditions are read, it holds its fields, H, H's spectrum and the two
        factor bases, and H is the np.kron sum (h_S x I + I x h_M) + h_C bit
        for bit."""
        m = random_model((3, 2), "violating", 1)
        check_conditions(m)
        assert m.spectrum.dim == m.dim
        assert set(vars(m)) == {"d_system", "d_apparatus", "h_system", "h_apparatus",
                                "h_coupling", "hamiltonian", "spectrum",
                                "system_basis", "apparatus_basis"}
        lifts = (np.kron(m.h_system.matrix, np.eye(2))
                 + np.kron(np.eye(3), m.h_apparatus.matrix))
        assert np.array_equal(total_hamiltonian(m).matrix, lifts + m.h_coupling.matrix)

    def test_drawn_bases_equal_their_decompositions(self):
        draws = model_draws((3, 2), [4, 5, 6])
        batch = drawn_model((3, 2), draws, [2, 0], [0.5, 1.0])
        for basis, h in ((batch.system_basis, batch.h_system),
                         (batch.apparatus_basis, batch.h_apparatus)):
            again = spectral(h)
            assert np.array_equal(basis.eigenvalues, again.eigenvalues)
            assert np.array_equal(basis.eigenvectors, again.eigenvectors)
