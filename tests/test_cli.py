import csv
import gc
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qndsim import cli
from qndsim.cli import main
from qndsim.dynamics import evolve_stepped, exact_trajectory
from qndsim.model import prepare_initial
from qndsim.scenario_io import bundled_scenario_path, load_scenario_file
from qndsim.scenarios import run_scenario

QND = str(bundled_scenario_path("qubit-qnd"))
BUNDLED = sorted(bundled_scenario_path("qubit-qnd").parent.glob("*.json"))
VIOLATING = str(bundled_scenario_path("qubit-violating"))


class TestCheck:
    def test_qnd_holds(self, capsys):
        assert main(["check", QND]) == 0
        out = capsys.readouterr().out
        assert "eq4_defect" in out and "eq5_defect" in out

    def test_violating_fails(self):
        assert main(["check", VIOLATING]) == 1

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
        assert main(args + ["--exact", "--out", str(out_e)]) == 0
        assert main(args + ["--stepped", "--out", str(out_s)]) == 0
        last_e = list(csv.reader(out_e.open()))[-1]
        last_s = list(csv.reader(out_s.open()))[-1]
        a = np.array([float(x) for x in last_e[1:]])
        b = np.array([float(x) for x in last_s[1:]])
        assert np.linalg.norm(a - b) <= 1e-8

    @pytest.mark.parametrize("mode", ["--exact", "--stepped"])
    def test_t_end_rounding_to_one_step(self, mode, tmp_path):
        out = tmp_path / "traj.csv"
        argv = ["evolve", QND, "--t-end", "6e-4", mode, "--out", str(out)]
        assert main(argv) == 0
        rows = list(csv.reader(out.open()))
        assert [float(r[0]) for r in rows[1:]] == [0.0, 6e-4]

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
            replace(s, seed=3, schedule=replace(s.schedule, n_trials=300))
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

    def test_empty_seed_list_is_input_error(self):
        assert main(["sweep", "--seeds", "", "--quiet"]) == 2

    def test_bad_eta_is_input_error(self):
        assert main(["sweep", "--eta-grid", "2.0", "--seeds", "0:2", "--quiet"]) == 2


def _bad_file(tmp_path, edit):
    doc = json.loads(Path(QND).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
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
}


def _assert_input_error(argv, capsys):
    # An exception escaping main fails the test, so exit 2 also means no traceback.
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", BAD_ARGS.values(), ids=BAD_ARGS.keys())
def test_bad_argument_is_input_error(argv, capsys):
    _assert_input_error(argv, capsys)


@pytest.mark.parametrize("mode", ["--exact", "--stepped"])
def test_trajectory_beyond_memory_is_input_error(mode, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli, "exact_trajectory", no_memory)
    monkeypatch.setattr(cli, "evolve_stepped", no_memory)
    _assert_input_error(["evolve", QND, "--t-end", "1", mode], capsys)


@pytest.mark.parametrize("command", ["check", "evolve", "measure"])
@pytest.mark.parametrize("edit", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_scenario_file_is_input_error(command, edit, tmp_path, capsys):
    _assert_input_error([command, _bad_file(tmp_path, edit)], capsys)


def test_bad_operator_is_named_once(tmp_path, capsys):
    path = _bad_file(tmp_path, BAD_FILES["operator-nan"])
    assert main(["check", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: model.h_system: "), err
    assert "model:" not in err


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
    ],
    ids=["check-seed", "check-out", "evolve-seed", "sweep-seed"],
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


@pytest.mark.parametrize("scenario", BUNDLED, ids=[p.stem for p in BUNDLED])
@pytest.mark.parametrize("stepped", [False, True], ids=["exact", "stepped"])
def test_trajectory_writer_matches_cell_by_cell_csv(scenario, stepped, tmp_path):
    s = load_scenario_file(scenario)
    w0 = prepare_initial(s.model, s.preparation, pointer_basis=s.pointer.basis)
    if stepped:
        traj = evolve_stepped(s.model, w0, 2.0, 0.01)
    else:
        traj = exact_trajectory(s.model, w0, np.arange(201) * 2.0 / 200)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_trajectory(got, traj)
    d = w0.dim
    with open(want, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["time"] + [f"{p}_{r}_{c}" for r in range(d) for c in range(d) for p in ("re", "im")]
        )
        for t, w in zip(traj.times, traj.states):
            cells = [x for z in w.ravel() for x in (z.real, z.imag)]
            writer.writerow([cli._fmt(t)] + [cli._fmt(x) for x in cells])
    assert got.read_bytes() == want.read_bytes()
