"""Every pinned CLI run keeps its bytes: exit code, output files, stdout and stderr.

tests/data/outputs.json maps each entry's argv to the SHA-256 of each output
file, of its stdout and of its stderr, and to its exit code.  Each entry runs
in-process through cli.main, with its outputs in a fresh directory.  An argv
cell may hold "{work}", that directory, "{data}", the bundled scenario
directory, or "{benchN}", a scenario file the entry writes there first: the
dims-(3,2) violating model of seed N, the document bench/workloads.py writes
for the evolve workloads at benchmark seed N.

A change that moves bytes on purpose regenerates the manifest by running
this module as a script (PYTHONPATH=src python tests/test_outputs.py), and
names the entries that moved.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from qndsim.cli import main
from qndsim.scenario_io import bundled_scenario_path

MANIFEST = Path(__file__).parent / "data" / "outputs.json"
DATA = bundled_scenario_path("qubit-qnd").parent
BUNDLED = sorted(p.stem for p in DATA.glob("*.json"))
BENCH_SCENARIO = "scenario.json"
EVOLVE = ["--t-end", "5.0", "--dt", "0.001", "--out", "{work}/trajectory.csv", "--quiet"]


def _entries() -> dict[str, list[str]]:
    entries = {}
    for seeds in ("1:5", "2:6", "3:7"):
        entries[f"sweep-4x4-{seeds}"] = ["sweep", "--dims", "4,4", "--seeds", seeds,
                                         "--out", "{work}/sweep.csv"]
    for name, options in [
        ("sweep-8x8-0:4", ["--dims", "8,8", "--seeds", "0:4"]),
        ("sweep-2x2-0:200", ["--dims", "2,2", "--seeds", "0:200"]),
        ("sweep-2x12-0:6-trials300", ["--dims", "2,12", "--seeds", "0:6", "--trials", "300"]),
        ("sweep-3x3-0:50-trials1", ["--dims", "3,3", "--seeds", "0:50", "--trials", "1"]),
    ]:
        entries[name] = ["sweep", *options, "--out", "{work}/sweep.csv"]
    entries["sweep-default-stdout"] = ["sweep"]
    records = ["--out", "{work}/records.csv", "--repeat-out", "{work}/repeats.csv"]
    for name in BUNDLED:
        path = f"{{data}}/{name}.json"
        entries[f"measure-{name}"] = ["measure", path, *records]
        entries[f"measure-{name}-seed7-trials1"] = ["measure", path, "--seed", "7",
                                                    "--trials", "1", *records]
        entries[f"check-{name}"] = ["check", path]
    for seed in (1, 2, 3):
        entries[f"bench-measure-seed{seed}"] = [
            "measure", "{data}/qubit-violating.json", "--seed", str(seed),
            "--trials", "20000", *records, "--quiet"]
        entries[f"bench-evolve-exact-seed{seed}"] = ["evolve", f"{{bench{seed}}}", *EVOLVE]
        entries[f"bench-evolve-stepped-seed{seed}"] = ["evolve", f"{{bench{seed}}}",
                                                       "--stepped", *EVOLVE]
    return entries


ENTRIES = _entries()


def _write_bench_scenario(work: Path, seed: int) -> Path:
    doc = {
        "schema": 1,
        "name": f"bench-violating-{seed}",
        "model": {"dims": [3, 2], "family": "violating", "seed": seed},
        "preparation": {"system_index": 0, "apparatus_index": 0},
        "schedule": {"tau": 1.0, "delta_tau": 0.5, "n_repeats": 5, "n_trials": 200},
        "seed": seed,
    }
    path = work / BENCH_SCENARIO
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(argv: list[str], work: Path) -> dict:
    """Run argv through cli.main in work: its exit code and the SHA-256 of
    each output file, of stdout and of stderr."""
    fields = {"work": str(work), "data": str(DATA)}
    for a in argv:
        if a.startswith("{bench"):
            fields[a[1:-1]] = str(_write_bench_scenario(work, int(a[6:-1])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**fields) for a in argv])
    hashes = {"stdout": _sha256(out.getvalue().encode()),
              "stderr": _sha256(err.getvalue().encode())}
    for path in sorted(work.iterdir()):
        if path.name != BENCH_SCENARIO:
            hashes[path.name] = _sha256(path.read_bytes())
    return {"argv": " ".join(argv), "exit": code, "sha256": hashes}


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_entry(manifest):
    assert list(manifest) == list(ENTRIES)


@pytest.mark.parametrize("name", ENTRIES)
def test_output_keeps_its_bytes(name, manifest, tmp_path):
    want, got = manifest[name], run_entry(ENTRIES[name], tmp_path)
    assert got["argv"] == want["argv"], f"{name}: the manifest holds another argv"
    moved = [key for key in sorted(want["sha256"].keys() | got["sha256"].keys())
             if want["sha256"].get(key) != got["sha256"].get(key)]
    if got["exit"] != want["exit"]:
        moved.insert(0, f"exit {want['exit']} -> {got['exit']}")
    assert not moved, f"{name}: moved {', '.join(moved)}"


if __name__ == "__main__":
    import tempfile

    results = {}
    for name, argv in ENTRIES.items():
        with tempfile.TemporaryDirectory() as work:
            results[name] = run_entry(argv, Path(work))
    MANIFEST.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} entries to {MANIFEST}", file=sys.stderr)
