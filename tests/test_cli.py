import argparse
import contextlib
import copy
import csv
import gc
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import cli, csvtext
from qndsim.cli import main
from qndsim.dynamics import evolve_stepped, exact_trajectory, time_grid
from qndsim.model import Preparation, prepare_kets, random_model
from qndsim.scenario_io import (
    bundled_scenario_path,
    load_scenario_file,
    parse_scenario,
    render_scenario,
)
from qndsim.scenarios import SWEEP_HEADER, run_scenario

QND = str(bundled_scenario_path("qubit-qnd"))
INF = float("inf")
BEYOND_INTP = 2**70  # a count no array size can take
INTP_MAX = 2**63 - 1  # a count intp holds, but no array of it numpy can size
BUNDLED = sorted(bundled_scenario_path("qubit-qnd").parent.glob("*.json"))
VIOLATING = str(bundled_scenario_path("qubit-violating"))
DATA = Path(__file__).parent / "data"
HUGE_DIGITS = "9" * 5000  # an integer longer than json.loads reads
# 1e-11 at (0, 3) and (1, 2) alone: eigh reads only the lower triangle, all zero
UPPER_ONLY = [[[1e-11 if (r, c) in ((0, 3), (1, 2)) else 0, 0] for c in range(4)]
              for r in range(4)]


class TestCheck:
    def test_qnd_holds(self, capsys):
        assert main(["check", QND]) == 0
        out = capsys.readouterr().out
        assert "eq4_defect" in out and "eq5_defect" in out

    def test_violating_fails(self):
        assert main(["check", VIOLATING]) == 1

    def test_scaled_violating_fails_alike(self, tmp_path, capsys):
        """qubit-violating.json with every Hamiltonian scaled by 1e-7 and every
        time by 1e7 has the defects of the unscaled file, and fails as it does."""
        doc = json.loads(Path(VIOLATING).read_text())
        z = [[[1e-7, 0], [0, 0]], [[0, 0], [-1e-7, 0]]]
        x = [[[0, 0], [1e-7, 0]], [[1e-7, 0], [0, 0]]]
        doc["model"].update(h_system=z, h_apparatus=z, h_coupling={"kron": [x, "pauli_x"]})
        doc["schedule"].update(tau=1e7, delta_tau=5e6)
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(doc))
        assert main(["check", VIOLATING]) == 1
        unscaled = capsys.readouterr().out
        assert main(["check", str(scaled)]) == 1
        assert capsys.readouterr().out == unscaled

    def test_tiny_violating_fails_with_both_defects_one(self, tmp_path, capsys):
        """qubit-violating.json with every Hamiltonian scaled by 1e-170, where
        the squares of the entries underflow: each operand of a defect is
        rescaled by a power of two first, so both defects read 1, as unscaled."""
        doc = json.loads(Path(VIOLATING).read_text())
        z = [[[1e-170, 0], [0, 0]], [[0, 0], [-1e-170, 0]]]
        x = [[[0, 0], [1e-170, 0]], [[1e-170, 0], [0, 0]]]
        doc["model"].update(h_system=z, h_apparatus=z, h_coupling={"kron": [x, "pauli_x"]})
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(doc))
        assert main(["check", str(tiny)]) == 1
        assert capsys.readouterr().out == ("eq4_defect = 1  holds = False\n"
                                           "eq5_defect = 1  holds = False\n")

    def test_truncated_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1,')
        assert main(["check", str(bad)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 2

    def test_quiet_suppresses_stdout(self, capsys):
        main(["check", QND, "--quiet"])
        assert capsys.readouterr().out == ""


class TestEvolve:
    def test_zero_t_end_single_row(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["evolve", QND, "--t-end", "0", "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 2  # header + one state
        assert rows[0][0] == "time"
        assert float(rows[1][0]) == 0.0

    def test_qnd_constancy_in_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(
            ["evolve", QND, "--t-end", "2", "--dt", "0.1", "--out", str(out)]
        ) == 0
        rows = list(csv.reader(out.open()))
        first = np.array([float(x) for x in rows[1][1:]])
        for row in rows[2:]:
            assert np.allclose([float(x) for x in row[1:]], first, atol=1e-8)

    def test_exact_and_stepped_agree(self, tmp_path):
        out_e = tmp_path / "exact.csv"
        out_s = tmp_path / "stepped.csv"
        args = ["evolve", VIOLATING, "--t-end", "1", "--dt", "0.001"]
        assert main(args + ["--out", str(out_e)]) == 0
        assert main(args + ["--stepped", "--out", str(out_s)]) == 0
        last_e = list(csv.reader(out_e.open()))[-1]
        last_s = list(csv.reader(out_s.open()))[-1]
        a = np.array([float(x) for x in last_e[1:]])
        b = np.array([float(x) for x in last_s[1:]])
        assert np.linalg.norm(a - b) <= 1e-8

    @pytest.mark.parametrize("t_end, dt", [("0.7", "0.01"), ("5", "1e-3")])
    def test_exact_and_stepped_share_time_cells(self, t_end, dt, tmp_path):
        # both label state k with k * t-end / n, in the same bytes
        out_e = tmp_path / "exact.csv"
        out_s = tmp_path / "stepped.csv"
        args = ["evolve", VIOLATING, "--t-end", t_end, "--dt", dt, "--quiet"]
        assert main(args + ["--out", str(out_e)]) == 0
        assert main(args + ["--stepped", "--out", str(out_s)]) == 0
        times_e = [row[0] for row in csv.reader(out_e.open())]
        times_s = [row[0] for row in csv.reader(out_s.open())]
        assert times_s == times_e

    @pytest.mark.parametrize("mode", [[], ["--stepped"]], ids=["exact", "--stepped"])
    def test_t_end_rounding_to_one_step(self, mode, tmp_path):
        out = tmp_path / "traj.csv"
        argv = ["evolve", QND, "--t-end", "6e-4", *mode, "--out", str(out)]
        assert main(argv) == 0
        rows = list(csv.reader(out.open()))
        assert [float(r[0]) for r in rows[1:]] == [0.0, 6e-4]

    @pytest.mark.parametrize("scenario", BUNDLED, ids=[p.stem for p in BUNDLED])
    def test_both_paths_start_from_one_state(self, scenario, tmp_path):
        # both run the scenario's ensemble, so the stepped w(0) is the exact one
        s = load_scenario_file(scenario)
        times = time_grid(0.5, 0.1)
        stepped = evolve_stepped(s.model, *s.ensemble, times)[0]
        assert np.abs(stepped - exact_trajectory(s.model, *s.ensemble, times)[0]).max() <= 1e-15
        out = tmp_path / "traj.csv"
        assert main(["evolve", str(scenario), "--t-end", "0", "--stepped", "--out", str(out),
                     "--quiet"]) == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 2 and float(rows[1][0]) == 0.0

    def test_prints_conservation_summary(self, capsys):
        assert main(["evolve", QND, "--t-end", "1"]) == 0
        out = capsys.readouterr().out
        assert "terminal trace deviation" in out
        assert "purity drift" in out


class TestMeasure:
    def test_qnd_sharp_and_repeatable(self, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        code = main(
            ["measure", QND, "--repeats", "5", "--trials", "1000", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "reading_variance = 0" in text
        assert "repeat_changes = 0" in text
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["trial", "time", "i", "lambda", "reading"]
        assert len(rows) == 1001

    def test_violating_disperses(self, capsys):
        assert main(["measure", VIOLATING, "--trials", "500"]) == 0
        text = capsys.readouterr().out
        variance = float(
            [l for l in text.splitlines() if l.startswith("reading_variance")][0]
            .split("=")[1]
            .split("(")[0]
        )
        assert variance > 0

    def test_single_trial_flagged_degenerate(self, capsys):
        assert main(["measure", QND, "--trials", "1"]) == 0
        assert "degenerate" in capsys.readouterr().out

    def test_repeat_record_export(self, tmp_path):
        rep = tmp_path / "rep.csv"
        assert main(
            ["measure", QND, "--repeats", "4", "--repeat-out", str(rep)]
        ) == 0
        rows = list(csv.reader(rep.open()))
        assert len(rows) == 5
        lams = {row[3] for row in rows[1:]}
        assert len(lams) == 1

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_summary_matches_sweep_row(self, path, capsys):
        assert main(["measure", str(path), "--seed", "3", "--trials", "300"]) == 0
        summary = dict(
            line.split(" = ") for line in capsys.readouterr().out.splitlines()
        )
        s = load_scenario_file(path)
        row = run_scenario(
            replace(s, seeds=(3,), schedule=replace(s.schedule, n_trials=300))
        )
        assert float(summary["sigma_analytic"]) == row.sigma_analytic
        assert float(summary["sigma_empirical"]) == row.sigma_empirical
        assert float(summary["reading_variance"]) == row.reading_variance
        assert int(summary["repeat_changes"]) == row.repeat_changes


# Pointer diag(1, 1, 0): group 0 reads 0 (e2), group 1 reads 1 (e0 and e1), and
# h_apparatus turns e0 into e1 inside the reading-1 eigenspace.
DEGENERATE_POINTER = {
    "schema": 1,
    "name": "degenerate-pointer",
    "model": {
        "dims": [2, 3],
        "h_system": "pauli_z",
        "h_apparatus": [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]], [[0, 0]] * 3],
        "h_coupling": {"zero": 6},
    },
    "pointer": {"diag": [1, 1, 0]},
    "schedule": {"tau": 1.0, "delta_tau": 0.5, "n_repeats": 6, "n_trials": 400},
    "calibration": {"table": [[-5.0, 7.0], [3.0, 9.0]]},
    "seed": 5,
}


# Readings per group: the calibration row of system index 0, or without an
# index the pointer values.
@pytest.mark.parametrize(
    "preparation, readings",
    [
        ({"system_index": 0, "apparatus_index": 1}, {1: 7.0}),  # e0: reading 1 only
        ({"rho": {"diag": [1, 0]}, "mu": {"diag": [0.5, 0, 0.5]}}, {0: 0.0, 1: 1.0}),
    ],
    ids=["reading-1-eigenspace", "both-readings"],
)
def test_measure_on_degenerate_pointer(preparation, readings, tmp_path, capsys):
    doc = dict(DEGENERATE_POINTER, preparation=preparation)
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, rep = tmp_path / "rec.csv", tmp_path / "rep.csv"
    argv = ["measure", str(path), "--out", str(out), "--repeat-out", str(rep)]
    assert main(argv) == 0
    assert "repeat_changes = 0" in capsys.readouterr().out
    trials = list(csv.DictReader(out.open()))
    assert {int(r["lambda"]) for r in trials} == set(readings)
    for r in trials:
        assert float(r["reading"]) == readings[int(r["lambda"])]
    assert len({r["lambda"] for r in csv.DictReader(rep.open())}) == 1


PAULI_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
CALIBRATED = {
    "schema": 1,
    "name": "calibrated",
    "model": {"dims": [2, 2], "h_system": "pauli_z", "h_apparatus": PAULI_X,
              "h_coupling": {"kron": ["pauli_x", "pauli_z"]}},
    "preparation": {"system_index": 1, "apparatus_index": 0},
    "schedule": {"tau": 1.0, "delta_tau": 0.5, "n_repeats": 6, "n_trials": 300},
    "calibration": {"table": [[-5.0, 7.0], [3.0, 9.0]]},
    "seed": 5,
}


def test_calibrated_measure_without_pointer_reads_h_apparatus(tmp_path, capsys):
    """A calibrated document without a pointer key measures h_apparatus: its
    records, repeats and summary equal those of the same document with the
    pointer spelled out as its h_apparatus matrix."""
    outputs = []
    for name, doc in [("implicit", CALIBRATED), ("explicit", dict(CALIBRATED, pointer=PAULI_X))]:
        path, out, rep = (tmp_path / f"{name}.{ext}" for ext in ("json", "rec.csv", "rep.csv"))
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["measure", str(path), "--out", str(out), "--repeat-out", str(rep)]) == 0
        outputs.append((out.read_bytes(), rep.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    readings = {float(r["reading"]) for r in csv.DictReader(io.StringIO(outputs[0][0].decode()))}
    assert readings == {3.0, 9.0}  # the table's row 1, both pointer values read


# Readings: the table's row at the prepared index, or without an index the pointer values.
@pytest.mark.parametrize("doc, readings", [
    (CALIBRATED, [3.0, 9.0]),
    (dict(DEGENERATE_POINTER, preparation={"rho": {"diag": [1, 0]},
                                           "mu": {"diag": [0.5, 0, 0.5]}}), [0.0, 1.0]),
], ids=["calibrated", "degenerate-pointer-rho-mu"])
def test_rendered_document_parses_back(doc, readings):
    s = parse_scenario(doc)
    rendered = render_scenario(s)
    assert rendered["calibration"] == doc["calibration"]
    assert ("rho" in rendered["preparation"]) == ("rho" in doc["preparation"])
    again = parse_scenario(json.loads(json.dumps(rendered)))
    assert render_scenario(again) == rendered
    for t in (s, again):
        assert t.readings.tolist() == readings
        assert not t.table.flags.writeable


class TestSweep:
    def test_eta_zero_all_sharp(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--eta-grid", "0", "--seeds", "0:10",
                "--trials", "30", "--out", str(out), "--quiet",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 10
        for row in rows:
            assert float(row["reading_variance"]) == 0.0

    def test_header_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--eta-grid", "0", "--seeds", "0:2", "--trials", "10",
              "--out", str(out), "--quiet"])
        header = out.open().readline().strip()
        assert header == (
            "eta,seed,eq4_defect,eq5_defect,constancy_dev,repeat_changes,"
            "reading_variance,sigma_analytic,sigma_empirical"
        )

    def test_bitwise_determinism(self, tmp_path):
        args = [
            "sweep", "--eta-grid", "0,0.5,1", "--seeds", "0:4",
            "--trials", "25", "--quiet",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_carries_the_table_alone(self, capsys):
        assert main(["sweep", "--eta-grid", "0,1", "--seeds", "0:3", "--trials", "10"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == SWEEP_HEADER
        assert len(rows) == 1 + 2 * 3 and all(len(r) == len(rows[0]) for r in rows)

    def test_empty_seed_list_is_input_error(self):
        assert main(["sweep", "--seeds", "", "--quiet"]) == 2

    def test_bad_eta_is_input_error(self):
        assert main(["sweep", "--eta-grid", "2.0", "--seeds", "0:2", "--quiet"]) == 2


def _bad_file(tmp_path, edit):
    doc = json.loads(Path(QND).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "bad.json"
    # HUGE_DIGITS unquoted: an integer json.dumps cannot write either
    path.write_text(json.dumps(doc).replace(json.dumps(HUGE_DIGITS), HUGE_DIGITS),
                    encoding="utf-8")
    return str(path)


BAD_FILES = {
    "tau-zero": lambda d: d["schedule"].update(tau=0),
    "n-trials-zero": lambda d: d["schedule"].update(n_trials=0),
    "no-apparatus-index": lambda d: d["preparation"].pop("apparatus_index"),
    "system-index-range": lambda d: d["preparation"].update(system_index=2),
    "apparatus-index-range": lambda d: d["preparation"].update(apparatus_index=-1),
    "eta-not-number": lambda d: d.update(
        model={"dims": [2, 2], "family": "interpolated", "seed": 0, "eta": "x"}
    ),
    "calibration-rows": lambda d: d.update(calibration={"table": [[1, -1]] * 3}),
    "pointer-dim": lambda d: d.update(pointer={"diag": [1, 0, -1]}),
    "negative-seed": lambda d: d.update(seed=-1),
    "operator-nan": lambda d: d["model"].update(
        h_system=[[[float("nan"), 0], [0, 0]], [[0, 0], [-1, 0]]]
    ),
    "operator-infinity": lambda d: d["model"].update(
        h_system={"diag": [float("inf"), 1]}
    ),
    "calibration-nan": lambda d: d.update(
        calibration={"table": [[float("nan"), 1], [1, -1]]}
    ),
    # the identity pointer has one distinct value, so one column, not two
    "calibration-columns-per-value": lambda d: d.update(
        pointer={"identity": 2}, calibration={"table": [[1, -1], [1, -1]]}
    ),
    "preparation-not-object": lambda d: d.update(preparation=5),
    "kron-not-pair": lambda d: d.update(pointer={"kron": 5}),
    # integers that int() refuses: JSON Infinity, as json.loads also reads 1e400
    "seed-infinity": lambda d: d.update(seed=INF),
    "dims-infinity": lambda d: d["model"].update(dims=[2, INF]),
    "family-seed-infinity": lambda d: d.update(
        model={"dims": [2, 2], "family": "qnd", "seed": INF}
    ),
    "system-index-infinity": lambda d: d["preparation"].update(system_index=INF),
    "apparatus-index-infinity": lambda d: d["preparation"].update(apparatus_index=INF),
    "n-repeats-infinity": lambda d: d["schedule"].update(n_repeats=INF),
    "n-trials-infinity": lambda d: d["schedule"].update(n_trials=-INF),
    "identity-infinity": lambda d: d.update(pointer={"identity": INF}),
    "zero-infinity": lambda d: d["model"].update(h_coupling={"zero": INF}),
    # pointer specs whose errors once named neither the file nor the field
    "identity-negative": lambda d: d.update(pointer={"identity": -1}),
    "zero-negative": lambda d: d.update(pointer={"zero": -1}),
    "diag-not-number": lambda d: d.update(pointer={"diag": ["x", 1]}),
    "diag-nested": lambda d: d.update(pointer={"diag": [[1, 2], [3, 4]]}),
    "diag-not-list": lambda d: d.update(pointer={"diag": 3}),
    # zero-size operators, which once failed in a reshape naming no field
    "identity-zero": lambda d: d.update(pointer={"identity": 0}),
    "zero-zero": lambda d: d.update(pointer={"zero": 0}),
    "diag-empty": lambda d: d.update(pointer={"diag": []}),
    "kron-zero-factor": lambda d: d.update(pointer={"kron": [{"zero": 0}, "pauli_x"]}),
    # integers that int() once truncated or coerced into another experiment
    "system-index-fraction": lambda d: d["preparation"].update(system_index=0.9),
    "n-trials-fraction": lambda d: d["schedule"].update(n_trials=200.7),
    "identity-fraction": lambda d: d.update(pointer={"identity": 2.5}),
    "seed-bool": lambda d: d.update(seed=True),
    "n-repeats-string": lambda d: d["schedule"].update(n_repeats="5"),
    # counts no array size can take, which once failed naming no field
    "n-trials-beyond-intp": lambda d: d["schedule"].update(n_trials=BEYOND_INTP),
    "n-repeats-beyond-intp": lambda d: d["schedule"].update(n_repeats=BEYOND_INTP),
    "dims-beyond-intp": lambda d: d.update(
        model={"dims": [BEYOND_INTP, 2], "family": "qnd", "seed": 0}
    ),
    "identity-beyond-intp": lambda d: d.update(pointer={"identity": BEYOND_INTP}),
    # counts intp holds, whose arrays numpy once refused as "array is too big"
    "n-trials-unsizable": lambda d: d["schedule"].update(n_trials=INTP_MAX),
    "n-repeats-unsizable": lambda d: d["schedule"].update(n_repeats=INTP_MAX),
    "dims-unsizable": lambda d: d.update(
        model={"dims": [2**62, 2], "family": "qnd", "seed": 0}
    ),
    "joint-dims-unsizable": lambda d: d.update(  # each factor a d x d matrix numpy can size
        model={"dims": [759250124, 2], "family": "qnd", "seed": 0}
    ),
    "identity-unsizable": lambda d: d.update(pointer={"identity": 2**32}),
    # a non-finite factor, which np.kron once multiplied with a RuntimeWarning
    "kron-factor-infinity": lambda d: d.update(
        pointer={"kron": [{"diag": [1, 0, INF]}, "pauli_x"]}
    ),
    # reals that float() once coerced: a bool or a numeric string
    "tau-bool": lambda d: d["schedule"].update(tau=True),
    "tau-string": lambda d: d["schedule"].update(tau="1.5"),
    "delta-tau-bool": lambda d: d["schedule"].update(delta_tau=False),
    "delta-tau-string": lambda d: d["schedule"].update(delta_tau="0.5"),
    "eta-bool": lambda d: d.update(
        model={"dims": [2, 2], "family": "interpolated", "seed": 0, "eta": True}
    ),
    "eta-string": lambda d: d.update(
        model={"dims": [2, 2], "family": "interpolated", "seed": 0, "eta": "0.5"}
    ),
    # an integer float() cannot hold, which once escaped as an OverflowError
    "tau-beyond-float": lambda d: d["schedule"].update(tau=10**400),
    # array elements that np.array(..., dtype=float) once coerced
    "diag-string": lambda d: d.update(pointer={"diag": ["1", "0"]}),
    "diag-bool": lambda d: d.update(pointer={"diag": [True, False]}),
    # names of another JSON type, which once loaded and rendered back
    "name-list": lambda d: d.update(name=[1, 2]),
    "name-number": lambda d: d.update(name=0.5),
    "name-object": lambda d: d.update(name={"a": 1}),
    "matrix-literal-string": lambda d: d.update(
        pointer=[[["1", 0], [0, 0]], [[0, 0], [-1, 0]]]
    ),
    "calibration-string": lambda d: d.update(calibration={"table": [["1", "-1"]] * 2}),
    "diag-40-deep": lambda d: d.update(pointer={"diag": json.loads("[" * 40 + "1" + "]" * 40)}),
    # an integer json.loads refuses, which once named neither file nor field
    "seed-5000-digits": lambda d: d.update(seed=HUGE_DIGITS),
    # a small non-Hermitian coupling, once within EPS_HERM * max(1, ||M||_F)
    "coupling-upper-triangle": lambda d: d["model"].update(h_coupling=UPPER_ONLY),
    # schema versions that once loaded as 1, since True == 1.0 == 1
    "schema-bool": lambda d: d.update(schema=True),
    "schema-float": lambda d: d.update(schema=1.0),
}

BAD_ARGS = {
    "measure-trials-0": ["measure", QND, "--trials", "0"],
    "measure-repeats-1": ["measure", QND, "--repeats", "1"],
    "measure-seed-negative": ["measure", QND, "--seed", "-1"],
    "sweep-trials-0": ["sweep", "--trials", "0"],
    "sweep-repeats-1": ["sweep", "--repeats", "1"],
    "sweep-tau-0": ["sweep", "--tau", "0"],
    "sweep-dims-1": ["sweep", "--dims", "1,2"],
    "sweep-seed-negative": ["sweep", "--seeds=-2:0"],
    "evolve-shorter-than-dt": ["evolve", QND, "--t-end", "1e-4"],
    "evolve-stepped-shorter-than-dt": ["evolve", QND, "--t-end", "1e-4", "--stepped"],
    "evolve-t-end-inf": ["evolve", QND, "--t-end", "inf"],
    "evolve-dt-nan": ["evolve", QND, "--dt", "nan"],
    "evolve-steps-overflow": ["evolve", QND, "--t-end", "1e300", "--dt", "1e-300"],
    "evolve-grid-overflow": ["evolve", QND, "--t-end", "1e308", "--dt", "1e307"],
    # a finite t-end / dt whose grid no array can size
    "evolve-steps-unsizable": ["evolve", VIOLATING, "--t-end", "1", "--dt", "1e-300"],
    "evolve-stepped-steps-unsizable": ["evolve", VIOLATING, "--t-end", "1", "--dt", "1e-300",
                                       "--stepped"],
    # numpy refuses the 7.11 PiB draw stream at once, allocating nothing
    "measure-trials-unallocatable": ["measure", QND, "--trials", "1000000000000000"],
    "sweep-trials-unallocatable": ["sweep", "--trials", "1000000000000000",
                                   "--seeds", "0:1", "--eta-grid", "0"],
    # numpy refuses the 7.11 PiB of repeat times, naming the size
    "measure-repeats-unallocatable": ["measure", QND, "--repeats", "1000000000000000"],
    "sweep-repeats-unallocatable": ["sweep", "--repeats", "1000000000000000",
                                    "--seeds", "0:1", "--eta-grid", "0"],
    # counts no array size can take
    "measure-trials-beyond-intp": ["measure", QND, "--trials", str(BEYOND_INTP)],
    "measure-repeats-beyond-intp": ["measure", QND, "--repeats", str(BEYOND_INTP)],
    "sweep-trials-beyond-intp": ["sweep", "--trials", str(BEYOND_INTP), "--seeds", "0:1"],
    "sweep-repeats-beyond-intp": ["sweep", "--repeats", str(BEYOND_INTP), "--seeds", "0:1"],
    "sweep-dims-beyond-intp": ["sweep", "--dims", f"{BEYOND_INTP},2", "--seeds", "0:1"],
    # counts intp holds, whose arrays numpy cannot size
    "measure-trials-unsizable": ["measure", QND, "--trials", str(INTP_MAX)],
    "measure-repeats-unsizable": ["measure", QND, "--repeats", str(INTP_MAX)],
    "sweep-trials-unsizable": ["sweep", "--trials", str(INTP_MAX), "--seeds", "0:1"],
    "sweep-repeats-unsizable": ["sweep", "--repeats", str(INTP_MAX), "--seeds", "0:1"],
    "sweep-dims-unsizable": ["sweep", "--dims", f"{2**62},2", "--seeds", "0:1"],
    "sweep-joint-dims-unsizable": ["sweep", "--dims", f"{2**31},{2**31}", "--seeds", "0:1"],
    # list values whose errors once named no option
    "sweep-seeds-three-bounds": ["sweep", "--seeds", "0:2:3"],
    "sweep-seeds-open-range": ["sweep", "--seeds", "1:"],
    "sweep-dims-not-integer": ["sweep", "--dims", "a,b"],
    "sweep-eta-not-number": ["sweep", "--eta-grid", "x"],
}


def _assert_input_error(argv, capsys):
    # An exception escaping main fails the test, so exit 2 also means no traceback.
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not err.rstrip().endswith(":"), err  # a message follows every colon
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", BAD_ARGS.values(), ids=BAD_ARGS.keys())
def test_bad_argument_is_input_error(argv, capsys):
    _assert_input_error(argv, capsys)


# Output paths in a directory that does not exist.
UNWRITABLE_OUTPUTS = {
    "sweep-out": ["sweep", "--seeds", "0:1", "--eta-grid", "0", "--out"],
    "evolve-out": ["evolve", QND, "--t-end", "0", "--out"],
    "measure-out": ["measure", QND, "--out"],
    "measure-repeat-out": ["measure", QND, "--repeat-out"],
}


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS.keys())
def test_unwritable_output_is_input_error(argv, tmp_path, capsys):
    _assert_input_error(argv + [str(tmp_path / "absent" / "out.csv")], capsys)


# Times whose E t or whose repeat times overflow: a computed failure, exit 1.
OVERFLOWING_TIMES = {
    "sweep-delta-tau": lambda tmp_path: ["sweep", "--delta-tau", "1e308", "--seeds", "0:2"],
    "sweep-tau": lambda tmp_path: ["sweep", "--tau", "1.7e308", "--seeds", "0:1"],
    "measure-file-delta-tau": lambda tmp_path: [
        "measure", _bad_file(tmp_path, lambda d: d["schedule"].update(delta_tau=1e308))],
    # finite repeat times, but E delta_tau overflows in the repeats' propagator
    "measure-file-repeat-propagator": lambda tmp_path: [
        "measure", _bad_file(tmp_path, lambda d: d["schedule"].update(
            {"delta_tau": 1e308, "n_repeats": 2}))],
    "sweep-repeat-propagator": lambda tmp_path: [
        "sweep", "--delta-tau", "1e308", "--repeats", "2", "--seeds", "0:2"],
    "evolve-exact": lambda tmp_path: ["evolve", QND, "--t-end", "1e308", "--dt", "1e308"],
    # dt (E_a - E_b) overflows in RK4's step factor, which once warned
    "evolve-stepped": lambda tmp_path: ["evolve", QND, "--t-end", "1e308", "--dt", "1e308",
                                        "--stepped"],
}


@pytest.mark.parametrize("argv", OVERFLOWING_TIMES.values(), ids=OVERFLOWING_TIMES.keys())
def test_overflowing_time_is_a_computed_failure(argv, tmp_path, capsys):
    # An exception escaping main fails the test, and so does a RuntimeWarning.
    assert main(argv(tmp_path) + ["--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, prefix", [
    (lambda path: ["measure", path], ""),
    (lambda path: ["sweep", "--dims", "2,2", "--seeds", "0:2", "--tau", "1e308"],
     "scenario 'interp-eta0-seed0' failed: "),
], ids=["measure", "sweep"])
def test_ket_norm_prints_as_a_plain_float(argv, prefix, tmp_path, capsys):
    doc = json.loads(Path(VIOLATING).read_text(encoding="utf-8"))
    doc["schedule"]["tau"] = 1e308  # E tau overflows: the kets at tau are NaN
    path = tmp_path / "tau-1e308.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(argv(str(path))) == 1
    assert capsys.readouterr().err == (
        f"error: {prefix}state ket is not finite with unit norm: |phi|^2 = nan\n")


def test_exact_evolve_names_the_failing_time(capsys):
    # E t overflows at the last time: its kets are NaN, and the error names it
    assert main(["evolve", QND, "--t-end", "1e308", "--dt", "1e308"]) == 1
    assert capsys.readouterr().err == ("error: integration failed at t=1e+308: state ket is "
                                       "not finite with unit norm: |phi|^2 = nan\n")


@pytest.mark.parametrize("table, code", [
    ([[1e308, -1e308], [1e308, -1e308]], 1),  # the variance's sums overflow
    ([[1e308, 1e308], [1e308, 1e308]], 0),  # all readings equal: variance exactly 0
], ids=["opposite-huge", "equal-huge"])
def test_overflowing_statistic_is_a_computed_failure(table, code, tmp_path, capsys):
    # A RuntimeWarning fails the test, so neither case may raise one.
    doc = json.loads(Path(VIOLATING).read_text(encoding="utf-8"))
    doc["calibration"] = {"table": table}
    path = tmp_path / "huge-readings.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["measure", str(path), "--trials", "50"]) == code
    out, err = capsys.readouterr()
    if code:
        assert err == "error: reading_variance is not finite: the readings overflow it\n"
    else:
        assert "reading_variance = 0\n" in out and err == ""


# A NaN or inf entry is not finite.  An operator's norms are taken of it
# scaled by a power of two, so a finite operator loads at any scale; a state's
# are not, and a state entry above ~1e154 overflows ||M||_F.
@pytest.mark.parametrize("field, entry, message", [
    ("preparation", 1e170, "state has entries too large for ||M||_F, which overflows"),
    ("model.h_system", float("nan"), "matrix is not finite: ||M||_F = nan"),
    ("model.h_system", float("inf"), "matrix is not finite: ||M||_F = inf"),
], ids=["1e170", "nan", "inf"])
def test_operator_beyond_the_norm_is_input_error(field, entry, message, tmp_path, capsys):
    doc = json.loads(Path(VIOLATING).read_text(encoding="utf-8"))
    matrix = [[[entry, 0], [0, 0]], [[0, 0], [-entry, 0]]]
    if field == "preparation":
        doc["preparation"] = {"rho": matrix, "mu": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    else:
        doc["model"]["h_system"] = matrix
    path = tmp_path / "huge-operator.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {field}: {message}\n"


def test_tiny_non_hermitian_operator_is_input_error(tmp_path, capsys):
    """||M - M^dag||_F = sqrt(2) 1e-200 is measured against ||M||_F = 1e-200,
    not against norms whose squares underflow to 0, and printed unscaled."""
    doc = json.loads(Path(VIOLATING).read_text(encoding="utf-8"))
    doc["model"]["h_system"] = [[[0, 0], [1e-200, 0]], [[0, 0], [0, 0]]]
    path = tmp_path / "tiny-operator.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: model.h_system: matrix is not "
                                       f"Hermitian: ||M - M^dag||_F = 1.414e-200\n")


@pytest.mark.parametrize("k", [600, 1000, -600])
def test_scaled_model_prints_the_unscaled_output(k, tmp_path, capsys):
    """qubit-violating.json with h_S, h_M and h_C times c = 2^k and every time
    over c: check, measure, evolve and evolve --stepped print what the
    unscaled file prints, where ||M||_F of an operator once overflowed (k =
    600, 1000) or underflowed (k = -600)."""
    runs = []
    for c in (1.0, 2.0**k):
        doc = json.loads(Path(VIOLATING).read_text(encoding="utf-8"))
        z = [[[c, 0], [0, 0]], [[0, 0], [-c, 0]]]
        x = [[[0, 0], [c, 0]], [[c, 0], [0, 0]]]
        doc["model"].update(h_system=z, h_apparatus=z, h_coupling={"kron": [x, "pauli_x"]})
        doc["schedule"].update(tau=1.0 / c, delta_tau=0.5 / c)
        path = tmp_path / f"scaled-{len(runs)}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        times = ["--t-end", repr(2.0 / c), "--dt", repr(0.01 / c)]
        runs.append([])
        for argv in (["check"], ["measure"], ["evolve", *times], ["evolve", *times, "--stepped"]):
            runs[-1].append((main([argv[0], str(path), *argv[1:]]), capsys.readouterr().out))
    assert runs[1] == runs[0]
    assert [code for code, _ in runs[0]] == [1, 0, 0, 0]


@pytest.mark.parametrize("mode", [[], ["--stepped"]], ids=["exact", "--stepped"])
def test_trajectory_beyond_memory_is_input_error(mode, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli, "exact_trajectory", no_memory)
    monkeypatch.setattr(cli, "evolve_stepped", no_memory)
    _assert_input_error(["evolve", QND, "--t-end", "1", *mode], capsys)


def test_memory_error_without_a_reason_prints_one(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "exact_trajectory", no_memory)
    assert main(["evolve", QND, "--t-end", "1", "--quiet"]) == 2
    assert capsys.readouterr().err == "error: out of memory: input too large to allocate\n"


# Neither range is allocated: the first's length overflows a C ssize_t, and
# the list of the second, 8 PB, is refused at once.
@pytest.mark.parametrize("seeds", ["0:1000000000000000000000000", "0:1000000000000000"],
                         ids=["length-overflows", "list-unallocatable"])
def test_seed_range_too_large_is_named(seeds, capsys):
    assert main(["sweep", "--seeds", seeds, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"error: --seeds: range too large to list, got str '{seeds}'\n")


@pytest.mark.parametrize("command", ["check", "evolve", "measure"])
@pytest.mark.parametrize("edit", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_scenario_file_is_input_error(command, edit, tmp_path, capsys):
    _assert_input_error([command, _bad_file(tmp_path, edit)], capsys)


# Item 9's pool of file values.  Every count or size in it is one the parser
# refuses before it allocates: a large legal identity size or trial count
# would only measure the host.
EDIT_POOL = [
    None, True, False, 0, -1, 0.5, 1e308, -1e308, 1e-320, math.nan, math.inf, -math.inf,
    2**63, BEYOND_INTP, HUGE_DIGITS, "", "x", "2", "0.5", [], [1, [2]], [[1, 2], [3]], [[[]]],
    "pauli_x", PAULI_X, {"identity": 2}, {"identity": 2**63}, {"identity": BEYOND_INTP},
    {"diag": [1, -1]}, {"kron": ["pauli_x", "pauli_z"]}, {"zero": 0},
]
CONTRACT_RUNS = [
    ["check"],
    ["evolve", "--t-end", "0.05", "--dt", "0.01"],
    ["evolve", "--t-end", "0.05", "--dt", "0.01", "--stepped"],
    ["measure", "--trials", "20"],
]


def _slots(doc, path=()):
    """The path of every key and list element of doc."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _slots(value, path + (key,))


@st.composite
def edited_documents(draw):
    """qubit-violating.json after one or two edits: each deletes a key or a
    list element, or sets one to a value from EDIT_POOL."""
    doc = json.loads(Path(VIOLATING).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(list(_slots(doc))))
        owner = doc
        for k in parents:
            owner = owner[k]
        if draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = copy.deepcopy(draw(st.sampled_from(EDIT_POOL)))  # the pool stays as it is
    return doc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=edited_documents())
def test_edited_scenario_files_keep_the_exit_code_contract(doc):
    """No edited document ends in an exception or a warning: each command
    exits 0, 1 or 2, and an input error prints exactly one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.json"
        path.write_text(json.dumps(doc).replace(json.dumps(HUGE_DIGITS), HUGE_DIGITS),
                        encoding="utf-8")
        for command, *options in CONTRACT_RUNS:
            argv = [command, str(path), *options, "--quiet"]
            if command != "check":
                argv += ["--out", str(Path(tmp) / "out.csv")]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(argv)
            assert caught == [], (argv, [str(w.message) for w in caught])
            assert code in (0, 1, 2), argv
            if code == 2:
                text = err.getvalue()
                assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)
                assert str(path) in text, (argv, text)


FAMILY = {"dims": [2, 2], "family": "interpolated", "seed": 0, "eta": 0.5}
# Every typed field of a scenario file, as its error names it: its JSON type,
# a value of that type it takes, and how to set it in qubit-qnd.json.
TYPED_FIELDS = {
    "schema": ("integer", 1, lambda d, v: d.update(schema=v)),
    "seed": ("integer", 7, lambda d, v: d.update(seed=v)),
    "name": ("string", "qnd", lambda d, v: d.update(name=v)),
    "model.dims": ("integer", 2, lambda d, v: d["model"].update(dims=[2, v])),
    "model.seed": ("integer", 3, lambda d, v: d.update(model={**FAMILY, "seed": v})),
    "model.eta": ("real", 0.25, lambda d, v: d.update(model={**FAMILY, "eta": v})),
    "preparation.system_index": ("integer", 1,
                                 lambda d, v: d["preparation"].update(system_index=v)),
    "preparation.apparatus_index": ("integer", 1,
                                    lambda d, v: d["preparation"].update(apparatus_index=v)),
    "tau": ("real", 1.5, lambda d, v: d["schedule"].update(tau=v)),
    "delta_tau": ("real", 0.25, lambda d, v: d["schedule"].update(delta_tau=v)),
    "n_repeats": ("integer", 4, lambda d, v: d["schedule"].update(n_repeats=v)),
    "n_trials": ("integer", 20, lambda d, v: d["schedule"].update(n_trials=v)),
    "pointer.diag": ("real", 0.5, lambda d, v: d.update(pointer={"diag": [1, v]})),
    "calibration.table": ("real", 0.5,
                          lambda d, v: d.update(calibration={"table": [[1, v], [v, 1]]})),
}


def _wrong_values(kind, valid):
    """Values of another JSON type than the field's: a bool, and a numeric
    string or a number, each of which a coercing parser would take."""
    if kind == "string":
        return [True, 5, 0.5]
    return [True, str(valid)] + ([float(valid)] if kind == "integer" else [])


WRONG_TYPES = [(field, value) for field, (kind, valid, _) in TYPED_FIELDS.items()
               for value in _wrong_values(kind, valid)]


@pytest.mark.parametrize("field, value", WRONG_TYPES,
                         ids=[f"{f}-{type(v).__name__}" for f, v in WRONG_TYPES])
def test_value_of_the_wrong_json_type_is_refused(field, value, tmp_path, capsys):
    """The field takes a value of its type, but this one is never coerced: the
    file is refused with one error line that names it and the field."""
    _, valid, put = TYPED_FIELDS[field]
    assert main(["check", _bad_file(tmp_path, lambda d: put(d, valid)), "--quiet"]) in (0, 1)
    path = _bad_file(tmp_path, lambda d: put(d, value))
    assert main(["check", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert field in err, err


# sweep's options: each a small valid value or one refused before it allocates,
# so no run holds more than 3 x 3 dims, 3 etas, 3 seeds and 20 trials or repeats.
HUGE_COUNTS = ["1000000000000000", str(INTP_MAX), str(BEYOND_INTP)]
SWEEP_OPTIONS = {
    "--dims": (st.tuples(st.integers(2, 3), st.integers(2, 3)).map(lambda t: f"{t[0]},{t[1]}"),
               ["1,2", "2,0", "-1,2", "2", "2,2,2", "a,b", "2.5,2", "",
                f"{2**62},2", f"{2**31},{2**31}", f"{BEYOND_INTP},2"]),
    "--eta-grid": (st.lists(st.floats(0, 1).map(repr), min_size=1, max_size=3).map(",".join),
                   ["", ",", "2", "-0.5", "nan", "inf", "x", "0:1"]),
    "--seeds": (st.one_of(st.lists(st.integers(0, 2**130).map(str), min_size=1,
                                   max_size=3).map(",".join),
                          st.tuples(st.integers(0, 2**130), st.integers(1, 3)).map(
                              lambda t: f"{t[0]}:{t[0] + t[1]}")),
                ["-1:2", "-2", "1:", ":2", "0:2:3", "x", "", "5:2",
                 "0:1000000000000000", "0:1000000000000000000000000",
                 f"{BEYOND_INTP}:{BEYOND_INTP + 10**16}"]),
    "--tau": (st.floats(1e-3, 10).map(repr),
              ["0", "-1", "inf", "nan", "x", "1e-320", "1.7e308"]),
    "--delta-tau": (st.floats(1e-3, 10).map(repr), ["0", "-0.5", "inf", "nan", "x", "1e308"]),
    "--repeats": (st.integers(2, 20).map(str), ["1", "0", "-3", "x", "2.5", *HUGE_COUNTS]),
    "--trials": (st.integers(1, 20).map(str), ["0", "-1", "x", "1e3", *HUGE_COUNTS]),
}


@st.composite
def sweep_argvs(draw):
    """sweep with every option as --opt=VALUE (argparse reads a lone "-1:2" as
    an option), at most two of them from the refused values."""
    odd = draw(st.sets(st.sampled_from(sorted(SWEEP_OPTIONS)), max_size=2))
    return ["sweep", *(f"{opt}={draw(st.sampled_from(refused) if opt in odd else valid)}"
                       for opt, (valid, refused) in SWEEP_OPTIONS.items())]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=sweep_argvs())
def test_sweep_options_keep_the_exit_code_contract(argv):
    """No sweep argv ends in an exception or a warning: it exits 0, 1 or 2,
    and an exit 2 prints one error line or argparse's usage message."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = main(argv + ["--out", str(Path(tmp) / "sweep.csv"), "--quiet"])
            except SystemExit as exc:  # argparse refused a typed option
                code, usage = exc.code, True
            else:
                usage = False
    assert caught == [], (argv, [str(w.message) for w in caught])
    assert code in (0, 1, 2), argv
    text = err.getvalue()
    if usage:
        assert code == 2 and text.startswith("usage: qndsim sweep "), (argv, text)
        assert text.splitlines()[-1].startswith("qndsim sweep: error: "), (argv, text)
    elif code == 2:
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)


def test_bad_operator_is_named_once(tmp_path, capsys):
    path = _bad_file(tmp_path, BAD_FILES["operator-nan"])
    assert main(["check", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: model.h_system: "), err
    assert "model:" not in err


@pytest.mark.parametrize("name", ["identity-negative", "zero-negative", "diag-not-number",
                                  "diag-nested", "diag-not-list", "identity-zero",
                                  "zero-zero", "diag-empty", "kron-zero-factor",
                                  "identity-beyond-intp", "identity-unsizable",
                                  "kron-factor-infinity"])
def test_bad_pointer_spec_names_the_field(name, tmp_path, capsys):
    path = _bad_file(tmp_path, BAD_FILES[name])
    assert main(["measure", path, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: pointer.")


@pytest.mark.parametrize("name, field", [
    ("measure-trials-beyond-intp", "n_trials"),
    ("measure-repeats-beyond-intp", "n_repeats"),
    ("sweep-trials-beyond-intp", "n_trials"),
    ("sweep-repeats-beyond-intp", "n_repeats"),
    ("sweep-dims-beyond-intp", "dims"),
    ("n-trials-beyond-intp", "n_trials"),
    ("n-repeats-beyond-intp", "n_repeats"),
    ("dims-beyond-intp", "model.dims"),
    ("measure-trials-unsizable", "n_trials"),
    ("measure-repeats-unsizable", "n_repeats"),
    ("sweep-trials-unsizable", "n_trials"),
    ("sweep-repeats-unsizable", "n_repeats"),
    ("sweep-dims-unsizable", "dims"),
    ("sweep-joint-dims-unsizable", "dims"),
    ("evolve-steps-unsizable", "t-end / dt"),
    ("evolve-stepped-steps-unsizable", "t-end / dt"),
    ("n-trials-unsizable", "n_trials"),
    ("n-repeats-unsizable", "n_repeats"),
    ("dims-unsizable", "model.dims"),
    ("joint-dims-unsizable", "model.dims"),
    # values that are not numbers of the kind the field takes
    ("sweep-seeds-three-bounds", "--seeds"),
    ("sweep-seeds-open-range", "--seeds"),
    ("sweep-dims-not-integer", "--dims"),
    ("sweep-eta-not-number", "--eta-grid"),
    ("tau-bool", "tau"),
    ("tau-string", "tau"),
    ("delta-tau-bool", "delta_tau"),
    ("delta-tau-string", "delta_tau"),
    ("eta-bool", "model.eta"),
    ("eta-string", "model.eta"),
    ("tau-beyond-float", "tau"),
    ("diag-string", "pointer.diag"),
    ("diag-bool", "pointer.diag"),
    ("matrix-literal-string", "pointer"),
    ("calibration-string", "calibration.table"),
    ("diag-40-deep", "pointer.diag"),
    ("coupling-upper-triangle", "model.h_coupling"),
    ("name-list", "name"),
    ("name-number", "name"),
    ("name-object", "name"),
])
def test_oversized_count_names_its_field(name, field, tmp_path, capsys):
    argv = BAD_ARGS.get(name) or ["measure", _bad_file(tmp_path, BAD_FILES[name])]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert f" {field}" in err, err


@pytest.mark.parametrize("text", [
    '{"seed": %s}' % HUGE_DIGITS,
    "[" * 100_000 + "]" * 100_000,  # deeper than json.loads recurses
], ids=["integer-5000-digits", "nest-100000-deep"])
def test_unreadable_document_names_the_file(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err


# Values far longer than an error line should be, and the field each one fills.
OVERSIZED_VALUES = {
    "seed-list": ("seed", lambda d: d.update(seed=[0] * 200_000)),
    "name-list": ("name", lambda d: d.update(name=[0] * 200_000)),
    "kron-factors": ("pointer.kron", lambda d: d.update(pointer={"kron": ["pauli_x"] * 100_000})),
    "tau-string": ("tau", lambda d: d["schedule"].update(tau="1" * 300_000)),
    "seeds-option": ("--seeds", ["sweep", "--seeds", "0:1:" + "2" * 4000]),
    "seeds-option-text": ("--seeds", ["sweep", "--seeds", "a" * 3000]),
    "dims-option": ("--dims", ["sweep", "--dims", "2," + "x" * 3000]),
    "eta-grid-option": ("--eta-grid", ["sweep", "--eta-grid", "x" * 300_000]),
    # every typed option, which argparse converts and refuses itself
    "t-end-option": ("--t-end", ["evolve", QND, "--t-end", "x" * 300_000]),
    "dt-option": ("--dt", ["evolve", QND, "--dt", "x" * 300_000]),
    "measure-repeats-option": ("--repeats", ["measure", QND, "--repeats", "9" * 100_000]),
    "measure-trials-option": ("--trials", ["measure", QND, "--trials", "9" * 100_000]),
    "seed-option": ("--seed", ["measure", QND, "--seed", "z" * 50_000]),
    "sweep-tau-option": ("--tau", ["sweep", "--tau", "x" * 300_000]),
    "sweep-delta-tau-option": ("--delta-tau", ["sweep", "--delta-tau", "x" * 300_000]),
    "sweep-repeats-option": ("--repeats", ["sweep", "--repeats", "9" * 100_000]),
    "sweep-trials-option": ("--trials", ["sweep", "--trials", "9" * 100_000]),
}


@pytest.mark.parametrize("field, value", OVERSIZED_VALUES.values(), ids=OVERSIZED_VALUES.keys())
def test_oversized_value_makes_a_short_error_line(field, value, tmp_path, capsys):
    path = "" if isinstance(value, list) else _bad_file(tmp_path, value)
    argv = ["check", path] if path else value
    try:
        code, head = main(argv + ["--quiet"]), f"error: {path}"
    except SystemExit as exc:  # argparse refused a typed option, after its usage lines
        code, head = exc.code, f"qndsim {argv[0]}: error: argument"
    assert code == 2
    *usage, line = capsys.readouterr().err.splitlines()
    assert all(u.startswith(("usage: ", " ")) for u in usage) and len(usage) <= 4, usage[:4]
    assert bool(usage) == head.startswith("qndsim") and line.startswith(head), line[:400]
    assert f" {field}" in line, line[:400]
    assert len(line.encode()) <= 300 + len(path.encode()), line[:400]


@pytest.mark.parametrize("argv, message", [
    (["--seeds", "a" * 3000],
     "--seeds: expected integers or lo:hi ranges, got str '" + "a" * 56 + "..."),
    (["--seeds", "0:x"], "--seeds: expected integers or lo:hi ranges, got str '0:x'"),
    (["--seeds", "0:1:2"], "--seeds: expected integers or lo:hi ranges, got str '0:1:2'"),
    (["--dims", "2,2,"], "--dims: expected dS,dM, got str '2,2,'"),
    (["--eta-grid", "0.5,x"], "--eta-grid: expected numbers, got str '0.5,x'"),
], ids=["seeds-text", "seeds-bound", "seeds-step", "dims-trailing-comma", "eta-grid"])
def test_sweep_list_options_quote_the_text_shortly(argv, message, capsys):
    # int()'s own message would quote 200 characters of the text
    assert main(["sweep", *argv, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_seed_beyond_128_bits_runs(tmp_path, capsys):
    path = _bad_file(tmp_path, lambda d: d.update(seed=2**130 + 5))
    out = tmp_path / "rec.csv"
    assert main(["measure", path, "--trials", "20", "--out", str(out), "--quiet"]) == 0
    assert len(out.read_text().splitlines()) == 21


@pytest.mark.parametrize(
    "argv",
    [
        ["check", QND, "--seed", "1"],
        ["check", QND, "--out", "x.csv"],
        ["evolve", QND, "--seed", "1"],
        ["sweep", "--seed", "1"],
        ["evolve", QND, "--exact"],
    ],
    ids=["check-seed", "check-out", "evolve-seed", "sweep-seed", "evolve-exact"],
)
def test_deleted_options_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_dispatch_leaves_no_reference_to_commands():
    # With the collector off, any parser or namespace still holding a command
    # after main returns would show up as a referrer.
    gc.disable()
    try:
        assert main(["check", QND, "--quiet"]) == 0
        referrers = gc.get_referrers(cli.cmd_check)
    finally:
        gc.enable()
    assert referrers == [vars(cli)]


def test_second_call_builds_no_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    assert main(["check", QND, "--quiet"]) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["check", VIOLATING, "--quiet"]) == 1
    assert built == []


# Each call leaves out options that the call before it sets, so a parser or
# namespace that kept one call's values would change the next call's output.
SEQUENCE = [
    ["check", QND, "--quiet"],
    ["check", VIOLATING],
    ["evolve", VIOLATING, "--stepped", "--t-end", "0.5", "--dt", "0.05", "--out", "{}/a.csv"],
    ["evolve", VIOLATING, "--t-end", "0.2", "--out", "{}/b.csv"],
    ["measure", VIOLATING, "--seed", "3", "--trials", "300", "--repeats", "7",
     "--out", "{}/c.csv", "--repeat-out", "{}/d.csv"],
    ["measure", VIOLATING, "--trials", "x"],  # a usage error between two runs
    ["measure", VIOLATING, "--out", "{}/e.csv"],
    ["sweep", "--dims", "3,3", "--tau", "2", "--seeds", "0:2", "--out", "{}/f.csv", "--quiet"],
    ["sweep"],
]


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


def test_a_sequence_of_calls_equals_each_call_alone(tmp_path, capsys):
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    got = [_run([a.format(together) for a in argv], capsys) for argv in SEQUENCE]
    want = []
    for argv in SEQUENCE:
        cli.build_parser.cache_clear()  # the parser of a fresh process
        want.append(_run([a.format(alone) for a in argv], capsys))
    assert got == want
    assert [code for code, _ in got] == [0, 1, 0, 0, 0, 2, 0, 0, 0]
    files = sorted(p.name for p in alone.iterdir())
    assert files == sorted(p.name for p in together.iterdir()) == [f"{c}.csv" for c in "abcdef"]
    for name in files:
        assert (together / name).read_bytes() == (alone / name).read_bytes(), name


@pytest.mark.parametrize("scenario", BUNDLED, ids=[p.stem for p in BUNDLED])
@pytest.mark.parametrize("stepped", [False, True], ids=["exact", "stepped"])
def test_trajectory_writer_matches_cell_by_cell_csv(scenario, stepped, tmp_path):
    s = load_scenario_file(scenario)
    times = time_grid(2.0, 0.01)
    states = (evolve_stepped if stepped else exact_trajectory)(s.model, *s.ensemble, times)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    csvtext.write_trajectory(got, times, states)
    d = s.model.dim
    with open(want, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["time"] + [f"{p}_{r}_{c}" for r in range(d) for c in range(d) for p in ("re", "im")]
        )
        for t, w in zip(times, states):
            cells = [x for z in w.ravel() for x in (z.real, z.imag)]
            writer.writerow([f"{t:.17g}"] + [f"{x:.17g}" for x in cells])
    assert got.read_bytes() == want.read_bytes()


def test_trajectory_writer_memory_is_flat(tmp_path):
    # The benchmark's trajectory: 5001 rows of 73 cells from a dims-(3,2)
    # model.  The writer formats a block of rows at a time, so its peak is
    # that block's temporaries, not the file's 9.5 MB.
    m = random_model((3, 2), "violating", 1)
    q, phi = prepare_kets(m, Preparation.eigenbasis(0, 0), m.apparatus_basis)
    c = phi @ m.spectrum.eigenvectors.conj()  # as Scenario.ensemble gives it
    times = np.arange(5001) * 5.0 / 5000
    states = exact_trajectory(m, q, c, times)
    tracemalloc.start()
    try:
        csvtext.write_trajectory(tmp_path / "traj.csv", times, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
    assert len((tmp_path / "traj.csv").read_bytes().splitlines()) == 5002


def test_measure_bytes_match_golden(tmp_path):
    # Written by the string-formatting record writer that preceded the byte
    # grid; measure must still write them byte for byte.
    name = "measure-violating-seed1-2000"
    records, repeats = tmp_path / "records.csv", tmp_path / "repeats.csv"
    assert main(["measure", VIOLATING, "--seed", "1", "--trials", "2000", "--out", str(records),
                 "--repeat-out", str(repeats), "--quiet"]) == 0
    assert records.read_bytes() == (DATA / f"{name}-records.csv").read_bytes()
    assert repeats.read_bytes() == (DATA / f"{name}-repeats.csv").read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("t0.5-dt0.05-exact", ["--t-end", "0.5", "--dt", "0.05"]),
    ("t0.5-dt0.05-stepped", ["--t-end", "0.5", "--dt", "0.05", "--stepped"]),
    # times of 10 or more go through the block kernel's "%" fallback
    ("t12-dt1-exact", ["--t-end", "12", "--dt", "1"]),
])
def test_evolve_bytes_match_golden(name, argv, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", VIOLATING, *argv, "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == (DATA / f"evolve-violating-{name}.csv").read_bytes()
