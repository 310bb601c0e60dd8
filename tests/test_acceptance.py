"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""

import numpy as np
import pytest

from qndsim.linalg import DensityOperator, tensor
from qndsim.model import Preparation, prepare_initial, random_model, total_hamiltonian
from qndsim.dynamics import (
    evolve_exact,
    evolve_stepped,
    rhs_component_form,
    state_constancy_check,
)
from qndsim.measurement import (
    Calibration,
    PointerObservable,
    aggregate_sigma,
    dispersion_experiment,
    measurement_trials,
    repeatability_protocol,
    sample_outcome,
)
from qndsim.scenarios import (
    Schedule,
    interpolation_sweep,
    oracle_check,
)
from qndsim.scenario_io import bundled_scenario_path, load_scenario_file
from qndsim.cli import main as cli_main


def _report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def _random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def test_criterion_1_form_equivalence():
    worst = 0.0
    for dims in ((2, 2), (2, 3), (3, 3)):
        rng = np.random.default_rng(1000 + dims[0] * 10 + dims[1])
        for seed in range(100):
            m = random_model(dims, "violating", seed)
            w = _random_density(rng, m.dim)
            h = total_hamiltonian(m).matrix
            full = -1j * (h @ w.matrix - w.matrix @ h)
            worst = max(
                worst, float(np.linalg.norm(rhs_component_form(m, w) - full))
            )
    _report(1, f"component form equals full commutator (worst {worst:.2e})", worst <= 1e-8)


def test_criterion_2_conservation_laws():
    worst_tr, worst_herm, worst_spec = 0.0, 0.0, 0.0
    rng = np.random.default_rng(2)
    for seed in range(100):
        dims = [(2, 2), (2, 3), (3, 3)][seed % 3]
        m = random_model(dims, "violating", seed)
        w0 = _random_density(rng, m.dim)
        for t in (0.1, 1.0, 10.0):
            wt = evolve_exact(m, w0, t).matrix
            worst_tr = max(worst_tr, abs(float(np.trace(wt).real) - 1.0))
            worst_herm = max(worst_herm, float(np.linalg.norm(wt - wt.conj().T)))
            worst_spec = max(
                worst_spec,
                float(
                    np.max(
                        np.abs(
                            np.linalg.eigvalsh(wt) - np.linalg.eigvalsh(w0.matrix)
                        )
                    )
                ),
            )
    ok = worst_tr <= 1e-10 and worst_herm <= 1e-10 and worst_spec <= 1e-8
    _report(
        2,
        f"conservation (trace {worst_tr:.1e}, herm {worst_herm:.1e}, spectrum {worst_spec:.1e})",
        ok,
    )


def test_criterion_3_qnd_constancy():
    t_grid = np.linspace(0.0, 10.0, 21)[1:]
    worst = 0.0
    for seed in range(100):
        m = random_model((2, 2), "qnd", seed)
        worst = max(
            worst,
            state_constancy_check(m, Preparation.eigenbasis(0, 0), t_grid),
        )
    _report(3, f"state constancy under both conditions (worst {worst:.2e})", worst <= 1e-8)


def test_criterion_4_repeatability():
    changes = 0
    for seed in range(100):
        m = random_model((2, 2), "qnd", seed)
        ptr = PointerObservable.from_operator(m.h_apparatus)
        cal = Calibration.from_pointer(ptr)
        w_tau = evolve_exact(m, prepare_initial(m, Preparation.eigenbasis(0, 0)), 1.0)
        rec = repeatability_protocol(m, w_tau, ptr, cal, 0, 1.0, 0.5, 5, seed)
        changes += rec.outcome_changes()
    _report(4, f"repeatability, 5 measurements x 100 models ({changes} changes)", changes == 0)


def test_criterion_5_dichotomy():
    seeds = range(20)
    positive = 0
    for seed in seeds:
        m = random_model((2, 2), "violating", seed)
        ptr = PointerObservable.from_operator(m.h_apparatus)
        cal = Calibration.from_pointer(ptr)
        v = dispersion_experiment(
            m, Preparation.eigenbasis(0, 0), ptr, cal, 1.0, 50, seed
        )
        positive += v > 0
    sched = Schedule(n_trials=50)
    qnd_rows = interpolation_sweep((2, 2), [0.0], seeds, sched)
    all_sharp = all(row.reading_variance == 0.0 for row in qnd_rows)
    ok = positive >= 0.9 * len(seeds) and all_sharp
    _report(
        5,
        f"dichotomy ({positive}/{len(seeds)} violating disperse; eta=0 all sharp {all_sharp})",
        ok,
    )


def test_criterion_6_sigma_consistency():
    n = 10**5
    cases = [
        (np.array([0.3, 0.7]), np.array([2.0, -1.0]), -0.1),
        (np.array([0.5, 0.5]), np.array([1.0, -1.0]), 0.0),
        (np.array([0.2, 0.3, 0.5]), np.array([-1.0, 0.0, 2.0]), 0.8),
    ]
    ok = True
    details = []
    for case_idx, (p, c, sigma_expect) in enumerate(cases):
        cal = Calibration(pointer_values=c)
        analytic = aggregate_sigma(cal, None, distribution=p).sigma
        rng = np.random.default_rng(600 + case_idx)
        total = 0.0
        for _ in range(n):
            total += c[sample_outcome(p, rng)]
        empirical = total / n
        pop_std = float(np.sqrt(p @ c**2 - analytic**2))
        band = 4 * pop_std / np.sqrt(n)
        ok &= abs(analytic - sigma_expect) <= 1e-12
        ok &= abs(empirical - analytic) <= band
        details.append(f"{empirical - analytic:+.1e} (band {band:.1e})")
    _report(6, "empirical sigma matches analytic: " + ", ".join(details), ok)


def test_criterion_7_oracle_equivalence():
    ok = True
    for name, dims in (
        ("qubit-qnd", (2, 2)),
        ("qubit-violating", (2, 2)),
        ("qutrit-system", (3, 2)),
    ):
        s = load_scenario_file(bundled_scenario_path(name))
        ok &= bool(oracle_check(dims, s.seed))
    for seed in range(100):
        ok &= bool(oracle_check((2, 2), seed))
    negative_control_detected = not bool(
        oracle_check((2, 2), 3, swap_index_convention=True)
    )
    ok &= negative_control_detected
    _report(
        7,
        f"oracle agreement incl. negative control detected={negative_control_detected}",
        ok,
    )


def test_criterion_8_stepped_convergence():
    ratios = []
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    pp = np.outer(plus, plus.conj())
    for name in ("qubit-qnd", "qubit-violating"):
        s = load_scenario_file(bundled_scenario_path(name))
        # slightly mixed non-stationary state keeps eigenvalues away from the
        # positivity boundary while exercising the full dynamics
        raw = 0.9 * tensor(pp, pp) + 0.1 * np.eye(4) / 4
        w0 = DensityOperator(raw)
        ref = evolve_exact(s.model, w0, 1.0).matrix
        errs = [
            float(np.linalg.norm(evolve_stepped(s.model, w0, 1.0, dt).final.matrix - ref))
            for dt in (0.02, 0.01)
        ]
        ratios.append(errs[0] / errs[1])
    ok = all(12 <= r <= 20 for r in ratios)
    _report(8, f"order-4 convergence ratios {[f'{r:.1f}' for r in ratios]}", ok)


def test_criterion_9_sweep_determinism(tmp_path):
    args = [
        "sweep", "--eta-grid", "0,0.5,1", "--seeds", "0:5",
        "--trials", "25", "--quiet",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _report(9, "consecutive sweep runs are bitwise identical", identical)
