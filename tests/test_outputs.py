"""Every pinned CLI run keeps its bytes: exit code, output files, stdout and stderr.

tests/data/outputs.json maps each entry's argv to the SHA-256 of each output
file, of its stdout and of its stderr, and to its exit code.  Each entry runs
in-process through cli.main, with its outputs in a fresh directory.  An argv
cell may hold "{work}", that directory, "{data}", the bundled scenario
directory, or a scenario file the entry writes there first: "{benchN}", the
dims-(3,2) violating model of seed N, the document bench/workloads.py writes
for the evolve workloads at benchmark seed N, or a name in DOCUMENTS, a
document of test_cli.py.

A change that moves bytes on purpose regenerates the manifest by running
this module as a script (PYTHONPATH=src python tests/test_outputs.py), and
names the entries that moved.  With --against OTHER/src the script instead
runs every entry in this tree and in the one whose source is OTHER/src, and
prints, for each output that differs, its changed cells and the largest
absolute difference of a numeric cell (cell_diff).
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from qndsim.cli import main
from qndsim.scenario_io import bundled_scenario_path
from test_cli import CALIBRATED, DEGENERATE_POINTER

MANIFEST = Path(__file__).parent / "data" / "outputs.json"
DATA = bundled_scenario_path("qubit-qnd").parent
BUNDLED = sorted(p.stem for p in DATA.glob("*.json"))
BENCH_SCENARIO = "scenario.json"
STREAMS = ("stdout", "stderr")
# a calibration table's row, and the pointer values of a preparation with no index
DOCUMENTS = {
    "calibrated": CALIBRATED,
    "degenerate_rho_mu": dict(DEGENERATE_POINTER, preparation={"rho": {"diag": [1, 0]},
                                                                "mu": {"diag": [0.5, 0, 0.5]}}),
}
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
    for name in DOCUMENTS:
        entries[f"measure-{name}"] = ["measure", f"{{{name}}}", *records]
    return entries


ENTRIES = _entries()


def _bench_document(seed: int) -> dict:
    return {
        "schema": 1,
        "name": f"bench-violating-{seed}",
        "model": {"dims": [3, 2], "family": "violating", "seed": seed},
        "preparation": {"system_index": 0, "apparatus_index": 0},
        "schedule": {"tau": 1.0, "delta_tau": 0.5, "n_repeats": 5, "n_trials": 200},
        "seed": seed,
    }


def _write_scenario(work: Path, doc: dict) -> Path:
    path = work / BENCH_SCENARIO
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_in(argv: list[str], work: Path) -> int:
    """Run argv through cli.main in work, and write its stdout and stderr there
    beside its output files; its exit code."""
    fields = {"work": str(work), "data": str(DATA)}
    for a in argv:
        if a.startswith("{bench"):
            fields[a[1:-1]] = str(_write_scenario(work, _bench_document(int(a[6:-1]))))
        elif a[1:-1] in DOCUMENTS:
            fields[a[1:-1]] = str(_write_scenario(work, DOCUMENTS[a[1:-1]]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**fields) for a in argv])
    for name, stream in zip(STREAMS, (out, err)):
        (work / name).write_bytes(stream.getvalue().encode())
    return code


def run_entry(argv: list[str], work: Path) -> dict:
    """Run argv in work: its exit code and the SHA-256 of its stdout, its
    stderr and each output file."""
    code = run_in(argv, work)
    names = [*STREAMS, *sorted(p.name for p in work.iterdir()
                               if p.name not in (BENCH_SCENARIO, *STREAMS))]
    return {"argv": " ".join(argv), "exit": code,
            "sha256": {name: _sha256((work / name).read_bytes()) for name in names}}


def cell_diff(a: bytes, b: bytes) -> tuple[int, float]:
    """How many cells differ between two outputs, a cell being a line's text
    between commas or whitespace, and the largest absolute difference of a
    differing cell that is a number in both (0.0 if none is).  A cell that
    only one output has counts as changed."""
    rows_a, rows_b = ([re.split(r"[,\s]+", line) for line in x.decode().splitlines()]
                      for x in (a, b))
    changed, largest = 0, 0.0
    for row_a, row_b in itertools.zip_longest(rows_a, rows_b, fillvalue=[]):
        for cell_a, cell_b in itertools.zip_longest(row_a, row_b):
            if cell_a != cell_b:
                changed += 1
                try:
                    largest = max(largest, abs(float(cell_a) - float(cell_b)))
                except (TypeError, ValueError):
                    pass  # not a number on both sides
    return changed, largest


def dump(root: Path) -> None:
    """Run every entry in root/<name>, which then holds its output files, its
    stdout and stderr, and its exit code in the file exit."""
    for name, argv in ENTRIES.items():
        (root / name).mkdir(parents=True)
        (root / name / "exit").write_text(str(run_in(argv, root / name)))


def compare(other_src: str) -> None:
    """Run every entry in this tree and in the one whose source is other_src,
    and print each output that differs with its cell_diff (other -> this)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(other_src).resolve()), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp, "here"), Path(tmp, "there")
        subprocess.run([sys.executable, __file__, "--dump", str(there)], env=env, check=True)
        dump(here)
        moved = 0
        for name in ENTRIES:
            files = {p.name for d in (here, there) for p in (d / name).iterdir()}
            for file in sorted(files - {BENCH_SCENARIO}):
                a, b = ((d / name / file).read_bytes() if (d / name / file).exists() else b""
                        for d in (there, here))
                if a != b:
                    moved += 1
                    changed, largest = cell_diff(a, b)
                    print(f"{name}: {file}: {changed} cells changed, "
                          f"largest numeric difference {largest:.3g}")
        print(f"{moved} outputs differ", file=sys.stderr)


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


def test_cell_diff_counts_cells_and_the_largest_numeric_move():
    a = b"eta,seed,x\n0,1,0.5\n0,2,1e-3\n"
    b = b"eta,seed,x\n0,1,0.25\n0,2,n/a\n0,3,1\n"
    assert cell_diff(a, b) == (5, 0.25)  # two moved cells and a new row of three
    assert cell_diff(b"d = 1  holds = True\n", b"d = 3  holds = False\n") == (2, 2.0)
    assert cell_diff(a, a) == (0, 0.0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the manifest, or compare "
                                     "every entry's outputs with another tree's.")
    parser.add_argument("--against", metavar="SRC",
                        help="the other tree's source directory, as PYTHONPATH takes it")
    parser.add_argument("--dump", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(Path(args.dump))
        sys.exit()
    if args.against:
        compare(args.against)
        sys.exit()
    results = {}
    for name, argv in ENTRIES.items():
        with tempfile.TemporaryDirectory() as work:
            results[name] = run_entry(argv, Path(work))
    MANIFEST.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} entries to {MANIFEST}", file=sys.stderr)
