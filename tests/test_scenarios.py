import io
import json

import numpy as np
import pytest

import qndsim.scenarios
from qndsim.linalg import HermitianOperator
from qndsim.measurement import PointerObservable
from qndsim.model import BipartiteModel, Preparation
from qndsim.scenarios import (
    Scenario,
    Schedule,
    interpolation_sweep,
    oracle_check,
    run_scenario,
    write_sweep_csv,
)
from qndsim.scenario_io import (
    ScenarioFormatError,
    bundled_scenario_path,
    load_scenario_file,
    parse_scenario,
    render_scenario,
)

SMALL_SCHEDULE = Schedule(tau=1.0, delta_tau=0.5, n_repeats=5, n_trials=50)


class TestRunScenario:
    def test_qubit_qnd_pipeline(self):
        s = load_scenario_file(bundled_scenario_path("qubit-qnd"))
        row = run_scenario(s)
        assert row.eq4_defect <= 1e-12 and row.eq5_defect <= 1e-12
        assert row.constancy_dev <= 1e-8
        assert row.repeat_changes == 0
        assert row.reading_variance == 0.0

    def test_qubit_violating_pipeline(self):
        s = load_scenario_file(bundled_scenario_path("qubit-violating"))
        row = run_scenario(s)
        assert row.eq4_defect > 0.1 and row.eq5_defect > 0.1
        assert row.reading_variance > 0.0

    def test_qutrit_mixed_conditions(self):
        s = load_scenario_file(bundled_scenario_path("qutrit-system"))
        row = run_scenario(s)
        # diagonal system side commutes; transverse apparatus side does not
        assert row.eq4_defect <= 1e-12
        assert row.eq5_defect > 0.1

    def test_null_scenario_all_deviations_zero(self):
        m = BipartiteModel(
            2, 2,
            HermitianOperator(np.zeros((2, 2))),
            HermitianOperator(np.zeros((2, 2))),
            HermitianOperator(np.zeros((4, 4))),
        )
        pointer = PointerObservable.from_operator(m.h_apparatus)
        s = Scenario(("null",), m, Preparation.eigenbasis(0, 0), pointer, SMALL_SCHEDULE,
                     None, (0,), (None,))
        row = run_scenario(s)
        assert row.eq4_defect == 0.0 and row.eq5_defect == 0.0
        assert row.constancy_dev <= 1e-12
        assert row.repeat_changes == 0
        assert row.reading_variance == 0.0


class TestInterpolationSweep:
    def test_eta_zero_column_is_sharp(self):
        rows = interpolation_sweep((2, 2), [0.0], range(10), SMALL_SCHEDULE)
        for row in rows:
            assert row.reading_variance == 0.0
            assert row.eq4_defect <= 1e-10 and row.eq5_defect <= 1e-10

    def test_eta_one_mostly_disperses(self):
        rows = interpolation_sweep((2, 2), [1.0], range(20), SMALL_SCHEDULE)
        positive = sum(1 for row in rows if row.reading_variance > 0)
        assert positive >= 0.9 * len(rows)

    def test_rejects_eta_outside_unit_interval(self):
        with pytest.raises(ValueError):
            interpolation_sweep((2, 2), [1.5], [0], SMALL_SCHEDULE)

    def test_csv_is_deterministic(self):
        def render():
            rows = interpolation_sweep(
                (2, 2), [0.0, 1.0], range(3), SMALL_SCHEDULE
            )
            buf = io.StringIO()
            write_sweep_csv(rows, buf)
            return buf.getvalue()

        assert render() == render()


class TestOracle:
    def test_hundred_seeds_2x2(self):
        for seed in range(100):
            assert bool(oracle_check((2, 2), seed))

    def test_seeds_2x3(self):
        for seed in range(20):
            assert bool(oracle_check((2, 3), seed))

    def test_bundled_scenario_dims(self):
        assert bool(oracle_check((3, 2), 11))

    def test_transposed_convention_detected(self):
        report = oracle_check((2, 2), 3, swap_index_convention=True)
        assert not bool(report)
        assert "diff" in str(report) or "MISMATCH" in str(report)

    def test_constancy_route_detects_a_wrong_deviation(self, monkeypatch):
        original = qndsim.scenarios.state_constancy_check
        monkeypatch.setattr(qndsim.scenarios, "state_constancy_check",
                            lambda m, w0: original(m, w0) * 1.001)
        report = oracle_check((3, 2), 11)
        assert not bool(report)
        assert [line.split(":")[0] for line in report.lines] == [
            "state_constancy_check vs eig projectors"]
        # too small a value also breaks the bound on the series-exponential state
        monkeypatch.setattr(qndsim.scenarios, "state_constancy_check",
                            lambda m, w0: original(m, w0) / 100)
        assert [line.split(":")[0] for line in oracle_check((3, 2), 11).lines] == [
            "state_constancy_check vs eig projectors",
            "series exponential past sqrt(2) state_constancy_check"]

    @pytest.mark.parametrize("kernel, wrong, route", [
        ("kets_at", lambda kets_at, m, c, t: kets_at(m, c, -t),  # backwards in time
         "kets_at vs series exponential"),
        ("ket_distribution", lambda born, *args: born(*args) * 1.001,
         "ket_distribution vs index loops"),
    ], ids=["kets_at", "ket_distribution"])
    def test_ket_routes_detect_a_wrong_kernel(self, kernel, wrong, route, monkeypatch):
        original = getattr(qndsim.scenarios, kernel)
        monkeypatch.setattr(qndsim.scenarios, kernel, lambda *args: wrong(original, *args))
        report = oracle_check((3, 2), 11)
        assert not bool(report)
        assert [line.split(":")[0] for line in report.lines] == [route]

    def test_stepped_route_detects_a_wrong_kernel(self, monkeypatch):
        original = qndsim.scenarios.evolve_stepped
        monkeypatch.setattr(qndsim.scenarios, "evolve_stepped",  # steps 0.1% too long
                            lambda m, q, c, times: original(m, q, c, times * 1.001))
        report = oracle_check((3, 2), 11)
        assert not bool(report)
        assert [line.split(":")[0] for line in report.lines] == [
            "evolve_stepped vs four-stage RK4"]

    def test_rejects_large_dims(self):
        with pytest.raises(ValueError):
            oracle_check((4, 4), 0)


class TestScenarioFiles:
    def test_parse_render_round_trip(self):
        s = load_scenario_file(bundled_scenario_path("qubit-qnd"))
        doc = render_scenario(s)
        s2 = parse_scenario(doc)
        assert render_scenario(s2) == doc

    def test_round_trip_survives_json(self):
        s = load_scenario_file(bundled_scenario_path("qutrit-system"))
        text = json.dumps(render_scenario(s))
        s2 = parse_scenario(json.loads(text))
        assert render_scenario(s2) == render_scenario(s)

    def test_rejects_unknown_schema(self):
        with pytest.raises(ScenarioFormatError):
            parse_scenario({"schema": 99})

    def test_rejects_nonhermitian_operator(self):
        doc = json.loads(bundled_scenario_path("qubit-qnd").read_text())
        doc["model"]["h_system"] = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(ScenarioFormatError):
            parse_scenario(doc)

    def test_truncated_file_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "model"')
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario_file(bad)
        assert "bad.json:1:" in str(err.value)

    def test_generated_family_model(self):
        doc = {
            "schema": 1,
            "name": "gen",
            "model": {"dims": [2, 2], "family": "qnd", "seed": 4},
            "preparation": {"system_index": 0, "apparatus_index": 0},
            "schedule": {"tau": 1.0, "delta_tau": 0.5, "n_repeats": 5, "n_trials": 20},
            "seed": 4,
        }
        s = parse_scenario(doc)
        row = run_scenario(s)
        assert row.reading_variance == 0.0
